import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conformer import numerics as nm
from conformer.errors import ContractError, DimensionError, ValidationError
from conformer.graph import GraphSpec, normalize_adjacency, propagate
from oracles import finite_difference_gradient, reference_operator


def random_graph(rng, n, p=0.4):
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                edges.append((i, j, float(rng.uniform(0.1, 2.0))))
    return GraphSpec(n_nodes=n, edges=tuple(edges))


@st.composite
def graphs(draw):
    """Graphs with 0.0, -0.0 and self-loop weights, and isolated nodes."""
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          unique=True, max_size=2 * n))
    weight = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1e300))
    return GraphSpec(n, tuple((src, dst, draw(weight)) for src, dst in pairs))


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
        assert np.array_equal(op, np.eye(3))

    def test_two_node_swap(self):
        g = GraphSpec(2, ((0, 1, 1.0), (1, 0, 1.0)))
        op = normalize_adjacency(g)
        assert np.array_equal(op, [[0.5, 0.5], [0.5, 0.5]])

    def test_weighted_chain_row_normalization(self):
        # node 0 sends weight 2 to node 1 and weight 1 to node 2, plus its
        # self-loop of weight 1
        g = GraphSpec(3, ((0, 1, 2.0), (0, 2, 1.0)))
        op = normalize_adjacency(g)
        assert np.allclose(op[0], [1.0 / 4.0, 2.0 / 4.0, 1.0 / 4.0])

    def test_isolated_node_row_is_its_self_loop(self):
        g = GraphSpec(3, ((0, 1, 1.0),))
        op = normalize_adjacency(g)
        assert np.array_equal(op[2], [0.0, 0.0, 1.0])

    def test_rows_sum_to_one_with_self_loops(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 7):
            op = normalize_adjacency(random_graph(rng, n))
            assert np.abs(op.sum(axis=1) - 1.0).max() <= 1e-12
            assert op.min() >= 0.0 and op.max() <= 1.0

    def test_operator_is_read_only(self):
        op = normalize_adjacency(GraphSpec(2, ((0, 1, 1.0),)))
        assert not op.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(g=graphs())
    @example(g=GraphSpec(2, ((0, 1, -0.0),)))
    def test_matches_reference_operator_bytewise(self, g):
        assert normalize_adjacency(g).tobytes() == reference_operator(g).tobytes()

    def test_overflowing_degree_rejected(self):
        # Node 0's degree 1 + 1e308 + 1e308 is inf at float64; dividing by it
        # would zero the node's row.
        g = GraphSpec(3, ((0, 1, 1e308), (0, 2, 1e308), (1, 2, 1.0)))
        with pytest.raises(ValidationError, match="edge weights of node 0 sum past"):
            normalize_adjacency(g)

    def test_built_only_from_a_graph(self):
        with pytest.raises(ContractError, match="from a GraphSpec, got ndarray"):
            normalize_adjacency(np.eye(2))


class TestPropagate:
    def test_zero_hops_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3, 2))
        op = normalize_adjacency(random_graph(rng, 3))
        out = propagate(nm.Tensor(x), op, 0)
        assert np.array_equal(out.data, x)

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 10):
            for k in range(5):
                op = normalize_adjacency(random_graph(rng, n))
                x = rng.normal(size=(3, n, 2))
                out = propagate(nm.Tensor(x), op, k).data
                for j in range(k + 1):
                    power = np.linalg.matrix_power(op, j)
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
        _, g_ref = nm.matmul(nm.Tensor(op), h)._vjp(grad)
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
