import numpy as np
import pytest

from conformer import numerics as nm
from conformer.errors import ContractError, DimensionError, ValidationError
from conformer.graph import GraphSpec, PropagationOperator, normalize_adjacency, propagate
from oracles import finite_difference_gradient


def random_graph(rng, n, p=0.4):
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                edges.append((i, j, float(rng.uniform(0.1, 2.0))))
    return GraphSpec(n_nodes=n, edges=tuple(edges))


class TestGraphSpec:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError, match="negative weight"):
            GraphSpec(2, ((0, 1, -1.0),))

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValidationError):
            GraphSpec(2, ((0, 2, 1.0),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            GraphSpec(2, ((0, 1, 1.0), (0, 1, 2.0)))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, weight):
        # A NaN weight used to pass and then zero the node's normalized row.
        with pytest.raises(ValidationError, match=r"edge \(0, 1\) has non-finite weight"):
            GraphSpec(2, ((1, 0, 1.0), (0, 1, weight)))

    def test_adjacency_matches_edge_loop(self):
        rng = np.random.default_rng(7)
        for n in (1, 4, 9):
            g = random_graph(rng, n)
            expected = np.zeros((n, n))
            for src, dst, weight in g.edges:
                expected[src, dst] = weight
            assert g.adjacency().tobytes() == expected.tobytes()

    def test_edge_arrays_do_not_affect_equality(self):
        edges = ((0, 1, 1.0), (1, 0, 0.5))
        assert GraphSpec(2, edges) == GraphSpec(2, edges)
        assert hash(GraphSpec(2, edges)) == hash(GraphSpec(2, edges))
        assert GraphSpec(2, edges) != GraphSpec(2, edges[:1])
        assert "_arrays" not in repr(GraphSpec(2, edges))


class TestNormalizeAdjacency:
    def test_self_loops_only_gives_identity(self):
        g = GraphSpec(3, tuple((i, i, 1.0) for i in range(3)))
        op = normalize_adjacency(g)
        assert np.array_equal(op.matrix, np.eye(3))

    def test_two_node_swap(self):
        g = GraphSpec(2, ((0, 1, 1.0), (1, 0, 1.0)))
        op = normalize_adjacency(g)
        assert np.array_equal(op.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_weighted_chain_row_normalization(self):
        # node 0 sends weight 2 to node 1 and weight 1 to node 2, plus its
        # self-loop of weight 1
        g = GraphSpec(3, ((0, 1, 2.0), (0, 2, 1.0)))
        op = normalize_adjacency(g)
        assert np.allclose(op.matrix[0], [1.0 / 4.0, 2.0 / 4.0, 1.0 / 4.0])

    def test_isolated_node_row_is_its_self_loop(self):
        g = GraphSpec(3, ((0, 1, 1.0),))
        op = normalize_adjacency(g)
        assert np.array_equal(op.matrix[2], [0.0, 0.0, 1.0])

    def test_zero_row_accepted_when_built_directly(self):
        op = PropagationOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(op.matrix[1], [0.0, 0.0])

    def test_rows_sum_to_one_with_self_loops(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 7):
            op = normalize_adjacency(random_graph(rng, n))
            assert np.abs(op.matrix.sum(axis=1) - 1.0).max() <= 1e-12

    def test_entries_bounded(self):
        with pytest.raises(ValidationError):
            PropagationOperator(np.array([[1.5, -0.5], [0.0, 1.0]]))

    def test_row_sum_off_by_five_millionths_rejected(self):
        # Within numpy's default relative tolerance, far outside 1e-12.
        with pytest.raises(ValidationError, match="rows must sum to 1"):
            PropagationOperator(np.array([[0.5, 0.500005], [0.5, 0.5]]))


class TestPropagate:
    def test_zero_hops_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3, 2))
        op = normalize_adjacency(random_graph(rng, 3))
        out = propagate(nm.Tensor(x), op, 0)
        assert np.array_equal(out.data, x)

    def test_zero_adjacency_zero_hop_blocks(self):
        op = PropagationOperator(np.zeros((3, 3)))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 2))
        out = propagate(nm.Tensor(x), op, 2).data
        assert np.array_equal(out[..., :2], x)
        assert np.array_equal(out[..., 2:], np.zeros((2, 3, 4)))

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 10):
            for k in range(5):
                op = normalize_adjacency(random_graph(rng, n))
                x = rng.normal(size=(3, n, 2))
                out = propagate(nm.Tensor(x), op, k).data
                for j in range(k + 1):
                    power = np.linalg.matrix_power(op.matrix, j)
                    expected = np.einsum("uv,tvd->tud", power, x)
                    block = out[..., j * 2:(j + 1) * 2]
                    assert np.abs(block - expected).max() <= 1e-12

    def test_constant_columns_preserved(self):
        rng = np.random.default_rng(4)
        op = normalize_adjacency(random_graph(rng, 4))
        x = np.broadcast_to(np.array([2.0, -3.0]), (2, 4, 2)).copy()
        out = propagate(nm.Tensor(x), op, 3).data
        for j in range(4):
            assert np.allclose(out[..., j * 2:(j + 1) * 2], x, atol=1e-12)

    def test_output_width(self):
        rng = np.random.default_rng(5)
        op = normalize_adjacency(random_graph(rng, 3))
        out = propagate(nm.Tensor(rng.normal(size=(2, 3, 5))), op, 2)
        assert out.shape == (2, 3, 15)

    def test_negative_hops_rejected(self):
        op = normalize_adjacency(GraphSpec(2, ((0, 1, 1.0),)))
        with pytest.raises(ContractError):
            propagate(nm.Tensor(np.zeros((1, 2, 1))), op, -1)

    def test_node_axis_mismatch(self):
        op = normalize_adjacency(GraphSpec(2, ((0, 1, 1.0),)))
        with pytest.raises(DimensionError):
            propagate(nm.Tensor(np.zeros((1, 3, 1))), op, 1)

    def test_hop_gives_operator_no_gradient(self):
        rng = np.random.default_rng(7)
        op = normalize_adjacency(random_graph(rng, 3))
        h = nm.Tensor(rng.normal(size=(2, 3, 2)))
        grad = rng.normal(size=(2, 3, 2))
        hop = propagate(h, op, 1)._parents[1]
        g_op, g_h = hop._vjp(grad)
        assert g_op is None
        # The same hop with the operator as a Tensor computes both gradients.
        _, g_ref = nm.matmul(nm.Tensor(op.matrix), h)._vjp(grad)
        assert g_h.tobytes() == g_ref.tobytes()

    def test_gradient_flows_through_hops(self):
        rng = np.random.default_rng(6)
        op = normalize_adjacency(random_graph(rng, 3))
        x = nm.Tensor(rng.normal(size=(2, 3, 2)))
        weights = nm.Tensor(rng.normal(size=(2, 3, 6)))
        loss = nm.tsum(propagate(x, op, 2) * weights)
        analytic = nm.backward(loss, {"x": x})["x"]
        fd = finite_difference_gradient(
            lambda arr: nm.tsum(propagate(nm.Tensor(arr), op, 2) * weights).item(),
            x.data)
        assert nm.relative_error(analytic, fd) <= 1e-4
