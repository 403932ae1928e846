import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conformer import numerics as nm
from conformer.attention import (conditional_qkv, fuse, spatial_attention,
                                 temporal_attention)
from conformer.errors import DimensionError
from oracles import reference_attention


def make_projections(rng, d_model, cond_width, zero_cond_cols=False):
    wk = rng.normal(0, 0.3, (d_model + cond_width, d_model))
    wv = rng.normal(0, 0.3, (d_model + cond_width, d_model))
    if zero_cond_cols:
        wk[d_model:] = 0.0
        wv[d_model:] = 0.0
    params = {
        "a.wq": nm.Tensor(rng.normal(0, 0.3, (d_model, d_model))),
        "a.bq": nm.Tensor(rng.normal(0, 0.3, (d_model,))),
        "a.wk": nm.Tensor(wk),
        "a.bk": nm.Tensor(rng.normal(0, 0.3, (d_model,))),
        "a.wv": nm.Tensor(wv),
        "a.bv": nm.Tensor(rng.normal(0, 0.3, (d_model,))),
        "a.fuse.w": nm.Tensor(rng.normal(0, 0.3, (2 * d_model, d_model))),
        "a.fuse.b": nm.Tensor(rng.normal(0, 0.3, (d_model,))),
    }
    return params


class TestConditionalQkv:
    def test_zeroed_condition_columns_ignore_x_c(self):
        rng = np.random.default_rng(0)
        proj = make_projections(rng, 4, 8, zero_cond_cols=True)
        x = nm.Tensor(rng.normal(size=(2, 3, 4)))
        xc1 = nm.Tensor(rng.normal(size=(2, 3, 8)))
        xc2 = nm.Tensor(rng.normal(size=(2, 3, 8)))
        _, k1, v1 = conditional_qkv(x, xc1, proj, "a")
        _, k2, v2 = conditional_qkv(x, xc2, proj, "a")
        assert np.allclose(k1.data, k2.data, atol=1e-15)
        assert np.allclose(v1.data, v2.data, atol=1e-15)

    def test_zero_condition_equals_plain_projection_plus_bias(self):
        rng = np.random.default_rng(1)
        proj = make_projections(rng, 4, 8)
        x = nm.Tensor(rng.normal(size=(2, 3, 4)))
        xc = nm.Tensor(np.zeros((2, 3, 8)))
        _, k, v = conditional_qkv(x, xc, proj, "a")
        expected_k = x.data @ proj["a.wk"].data[:4] + proj["a.bk"].data
        expected_v = x.data @ proj["a.wv"].data[:4] + proj["a.bv"].data
        assert np.allclose(k.data, expected_k, atol=1e-14)
        assert np.allclose(v.data, expected_v, atol=1e-14)

    def test_query_not_condition_augmented(self):
        rng = np.random.default_rng(2)
        proj = make_projections(rng, 4, 8)
        x = nm.Tensor(rng.normal(size=(2, 3, 4)))
        q1, k1, _ = conditional_qkv(x, nm.Tensor(rng.normal(size=(2, 3, 8))), proj, "a")
        q2, k2, _ = conditional_qkv(x, nm.Tensor(rng.normal(size=(2, 3, 8))), proj, "a")
        assert np.array_equal(q1.data, q2.data)
        assert not np.allclose(k1.data, k2.data)
        assert proj["a.wq"].shape == (4, 4)

    def test_hand_computed_case(self):
        d = 2
        params = {
            "a.wq": nm.Tensor([[1.0, 0.0], [0.0, 2.0]]),
            "a.bq": nm.Tensor([0.5, -0.5]),
            "a.wk": nm.Tensor([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
            "a.bk": nm.Tensor([0.0, 0.0]),
            "a.wv": nm.Tensor([[2.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
            "a.bv": nm.Tensor([0.0, 1.0]),
            "a.fuse.w": nm.Tensor(np.zeros((4, 2))),
            "a.fuse.b": nm.Tensor(np.zeros(2)),
        }
        x = nm.Tensor([[[1.0, 2.0]]])      # T=1, N=1, D=2
        xc = nm.Tensor([[[3.0]]])          # cond width 1
        q, k, v = conditional_qkv(x, xc, params, "a")
        assert np.allclose(q.data, [[[1.5, 3.5]]])
        assert np.allclose(k.data, [[[1.0 + 3.0, 1.0 + 2.0]]])
        assert np.allclose(v.data, [[[2.0, 4.0]]])

    def test_width_mismatch(self):
        # The projection that meets the mismatch names both of its operands:
        # W_Q, then a condition width that breaks only W_K.
        rng = np.random.default_rng(3)
        proj = make_projections(rng, 4, 8)
        for x_width, cond_width, operands in ((5, 8, r"\(2, 3, 5\) vs \(4, 4\)"),
                                              (4, 7, r"\(2, 3, 11\) vs \(12, 4\)")):
            with pytest.raises(DimensionError, match="affine: inner dims differ, " + operands):
                conditional_qkv(nm.Tensor(rng.normal(size=(2, 3, x_width))),
                                nm.Tensor(rng.normal(size=(2, 3, cond_width))), proj, "a")


class TestSpatialAttention:
    def test_single_node_returns_v(self):
        rng = np.random.default_rng(4)
        q = nm.Tensor(rng.normal(size=(3, 1, 4)))
        k = nm.Tensor(rng.normal(size=(3, 1, 4)))
        v = nm.Tensor(rng.normal(size=(3, 1, 4)))
        out = spatial_attention(q, k, v, n_heads=2)
        assert np.allclose(out.data, v.data, atol=1e-15)

    def test_identical_keys_give_node_mean(self):
        rng = np.random.default_rng(5)
        q = nm.Tensor(rng.normal(size=(2, 4, 4)))
        k = nm.Tensor(np.broadcast_to(rng.normal(size=(2, 1, 4)), (2, 4, 4)).copy())
        v = nm.Tensor(rng.normal(size=(2, 4, 4)))
        out = spatial_attention(q, k, v, n_heads=2)
        expected = np.broadcast_to(v.data.mean(axis=1, keepdims=True), out.shape)
        assert np.abs(out.data - expected).max() <= 1e-12

    def test_hand_computed_three_nodes(self):
        q = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
        k = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
        v = np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]])
        scores = (q[0] @ k[0].T) / np.sqrt(2.0)
        w = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        expected = w @ v[0]
        out = spatial_attention(nm.Tensor(q), nm.Tensor(k), nm.Tensor(v), n_heads=1)
        assert np.abs(out.data[0] - expected).max() <= 1e-12

    def test_convex_combination_of_values(self):
        rng = np.random.default_rng(6)
        q = nm.Tensor(rng.normal(size=(3, 5, 8)))
        k = nm.Tensor(rng.normal(size=(3, 5, 8)))
        v = nm.Tensor(rng.normal(size=(3, 5, 8)))
        out = spatial_attention(q, k, v, n_heads=4).data
        vh = v.data.reshape(3, 5, 4, 2)
        lo = vh.min(axis=1, keepdims=True)
        hi = vh.max(axis=1, keepdims=True)
        oh = out.reshape(3, 5, 4, 2)
        assert (oh >= lo - 1e-12).all() and (oh <= hi + 1e-12).all()

    def test_node_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        q, k, v = (rng.normal(size=(2, 5, 4)) for _ in range(3))
        perm = rng.permutation(5)
        base = spatial_attention(nm.Tensor(q), nm.Tensor(k), nm.Tensor(v), 2).data
        permuted = spatial_attention(nm.Tensor(q[:, perm]), nm.Tensor(k[:, perm]),
                                     nm.Tensor(v[:, perm]), 2).data
        assert np.abs(base[:, perm] - permuted).max() <= 1e-12


def _attend_composite(q, k, v, n_heads):
    """Reference attention: the scale is a separate ``mul`` before softmax."""
    def split(t):
        d = t.shape[-1]
        return nm.moveaxis(nm.reshape(t, t.shape[:-1] + (n_heads, d // n_heads)), -2, -3)

    qh, kh, vh = split(q), split(k), split(v)
    scores = nm.matmul(qh, nm.moveaxis(kh, -1, -2))
    weights = nm.softmax_last_axis(scores * (1.0 / np.sqrt(qh.shape[-1])))
    merged = nm.moveaxis(nm.matmul(weights, vh), -3, -2)
    return nm.reshape(merged, merged.shape[:-2] + (q.shape[-1],))


def _temporal_composite(q, k, v, n_heads):
    swap = lambda t: nm.moveaxis(t, -3, -2)
    return swap(_attend_composite(swap(q), swap(k), swap(v), n_heads))


@pytest.mark.parametrize("attend", [spatial_attention, temporal_attention],
                         ids=["spatial", "temporal"])
def test_qkv_shape_mismatch(attend):
    q, k, v = (nm.Tensor(np.zeros(shape)) for shape in ((3, 2, 4), (3, 2, 4), (3, 5, 4)))
    with pytest.raises(DimensionError,
                       match=r"q/k/v shapes differ: \(3, 2, 4\), \(3, 2, 4\), \(3, 5, 4\)"):
        attend(q, k, v, n_heads=2)


class TestScaledSoftmaxAttention:
    """The attention node is bitwise equal to the composite, and its output
    and gradients keep the composite's memory layout, which decides the
    summation order of the reductions downstream."""

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("layout", ["spatial", "temporal"])
    def test_value_and_gradients_bitwise(self, layout, n_heads):
        fast, reference = {"spatial": (spatial_attention, _attend_composite),
                           "temporal": (temporal_attention, _temporal_composite)}[layout]
        rng = np.random.default_rng(11 + n_heads)
        for shape in ((5, 3, 8), (2, 3, 5, 8)):
            qkv = [rng.normal(size=shape) for _ in range(3)]
            weights = rng.normal(size=shape)

            def run(attend):
                params = {name: nm.Tensor(a) for name, a in zip("qkv", qkv)}
                out = attend(*params.values(), n_heads)
                grads = nm.backward(nm.tsum(out * weights), params)
                arrays = [out.data] + [grads[n] for n in "qkv"]
                return [(a.tobytes(), a.strides) for a in arrays]

            assert run(fast) == run(reference), shape

    @pytest.mark.parametrize("constant", ["q", "k", "v"])
    @pytest.mark.parametrize("layout", ["spatial", "temporal"])
    def test_gradients_with_a_constant_operand_bitwise(self, layout, constant):
        # A plain-array q or k still takes part in the recomputed weights.
        fast, reference = {"spatial": (spatial_attention, _attend_composite),
                           "temporal": (temporal_attention, _temporal_composite)}[layout]
        rng = np.random.default_rng(17)
        qkv = [rng.normal(size=(2, 3, 5, 8)) for _ in range(3)]
        weights = rng.normal(size=(2, 3, 5, 8))

        def run(attend):
            params = {name: nm.Tensor(a) for name, a in zip("qkv", qkv) if name != constant}
            out = attend(*(params.get(name, a) for name, a in zip("qkv", qkv)), 2)
            grads = nm.backward(nm.tsum(out * weights), params)
            return [(grads[n].tobytes(), grads[n].strides) for n in sorted(params)]

        assert run(fast) == run(reference)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), lead=st.lists(st.integers(1, 3), max_size=1),
       t=st.integers(1, 6), n=st.integers(1, 6), d=st.sampled_from([4, 8]),
       axis=st.sampled_from([-2, -3]))
def test_attention_matches_oracle(data, lead, t, n, d, axis):
    """``nm.attention`` against the plain-numpy oracle, on 3-d and 4-d inputs."""
    n_heads = data.draw(st.sampled_from([h for h in (1, 2, 4, 8) if d % h == 0]))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    q, k, v = (rng.normal(size=tuple(lead) + (t, n, d)) for _ in range(3))
    out = nm.attention(nm.Tensor(q), nm.Tensor(k), nm.Tensor(v), n_heads, axis).data
    assert nm.relative_error(out, reference_attention(q, k, v, n_heads, axis)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(scores=arrays(np.float64, array_shapes(max_dims=2, max_side=8),
                     elements=st.one_of(st.sampled_from([-1e308, 0.0, 1e308]),
                                        st.floats(-1e308, 1e308))))
@example(scores=np.array([[1e308, -1e308]]))
def test_softmax_of_finite_scores_is_finite_and_bounded(scores):
    """Why ``nm.attention`` checks its scores but not its weights: a
    max-shifted softmax of finite rows lies in [0, 1], even where the shift
    overflows."""
    weights = nm._softmax_in_place(scores)
    assert np.all(np.isfinite(weights))
    assert weights.min() >= 0.0 and weights.max() <= 1.0


class TestAttentionMemory:
    """One ``[.., H, N, N]`` array per call at peak, where scores plus weights
    made two, and none on the tape: the VJP recomputes the weights."""

    T, N, D, HEADS = 2, 256, 8, 2
    UNIT = 8 * T * HEADS * N * N  # bytes of one [T, H, N, N] float64 array

    def qkv(self):
        rng = np.random.default_rng(13)
        return [nm.Tensor(rng.normal(size=(self.T, self.N, self.D))) for _ in range(3)]

    def test_untaped_peak_is_one_weights_array(self):
        q, k, v = self.qkv()
        tracemalloc.start()
        try:
            with nm.no_tape():
                spatial_attention(q, k, v, self.HEADS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * self.UNIT, peak / self.UNIT

    def test_tape_holds_no_weights_array(self):
        q, k, v = self.qkv()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = spatial_attention(q, k, v, self.HEADS)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out._parents
        # The output, T * N * D elements; q, k and v are the caller's arrays.
        assert held < 0.1 * self.UNIT, held / self.UNIT


class TestTemporalAttention:
    def test_single_step_returns_v(self):
        rng = np.random.default_rng(8)
        q = nm.Tensor(rng.normal(size=(1, 4, 4)))
        k = nm.Tensor(rng.normal(size=(1, 4, 4)))
        v = nm.Tensor(rng.normal(size=(1, 4, 4)))
        out = temporal_attention(q, k, v, n_heads=2)
        assert np.allclose(out.data, v.data, atol=1e-15)

    def test_duality_with_spatial(self):
        rng = np.random.default_rng(9)
        q, k, v = (rng.normal(size=(3, 5, 4)) for _ in range(3))
        te = temporal_attention(nm.Tensor(q), nm.Tensor(k), nm.Tensor(v), 2).data
        sp = spatial_attention(nm.Tensor(q.transpose(1, 0, 2)),
                               nm.Tensor(k.transpose(1, 0, 2)),
                               nm.Tensor(v.transpose(1, 0, 2)), 2).data
        assert np.abs(te - sp.transpose(1, 0, 2)).max() <= 1e-14

    def test_hand_computed_three_steps(self):
        q = np.array([[0.5, 1.0], [1.0, 0.0], [0.0, 2.0]]).reshape(3, 1, 2)
        k = np.array([[1.0, 0.5], [0.5, 1.0], [2.0, 0.0]]).reshape(3, 1, 2)
        v = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]).reshape(3, 1, 2)
        scores = (q[:, 0] @ k[:, 0].T) / np.sqrt(2.0)
        w = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        expected = (w @ v[:, 0]).reshape(3, 1, 2)
        out = temporal_attention(nm.Tensor(q), nm.Tensor(k), nm.Tensor(v), 1)
        assert np.abs(out.data - expected).max() <= 1e-12

    def test_no_masking_within_window(self):
        # bidirectional: early queries attend to late keys
        rng = np.random.default_rng(10)
        q, k, v = (rng.normal(size=(4, 2, 4)) for _ in range(3))
        out1 = temporal_attention(nm.Tensor(q), nm.Tensor(k), nm.Tensor(v), 2).data
        v2 = v.copy()
        v2[-1] += 10.0  # bump the last step's values
        out2 = temporal_attention(nm.Tensor(q), nm.Tensor(k), nm.Tensor(v2), 2).data
        assert np.abs(out2[0] - out1[0]).max() > 0.0


def fuse_params(w, b):
    return {"f.w": nm.Tensor(w), "f.b": nm.Tensor(b)}


class TestFuse:
    def test_selector_returns_spatial(self):
        rng = np.random.default_rng(11)
        x_sp = nm.Tensor(rng.normal(size=(2, 3, 4)))
        x_te = nm.Tensor(rng.normal(size=(2, 3, 4)))
        w = np.vstack([np.eye(4), np.zeros((4, 4))])
        out = fuse(x_sp, x_te, fuse_params(w, np.zeros(4)), "f")
        assert np.allclose(out.data, x_sp.data, atol=1e-15)

    def test_averaging_weights(self):
        rng = np.random.default_rng(12)
        x_sp = nm.Tensor(rng.normal(size=(2, 3, 4)))
        x_te = nm.Tensor(rng.normal(size=(2, 3, 4)))
        w = np.vstack([0.5 * np.eye(4), 0.5 * np.eye(4)])
        out = fuse(x_sp, x_te, fuse_params(w, np.zeros(4)), "f")
        assert np.allclose(out.data, 0.5 * (x_sp.data + x_te.data), atol=1e-15)

    def test_hand_computed_case(self):
        x_sp = nm.Tensor([[[1.0, 2.0]]])
        x_te = nm.Tensor([[[3.0, 4.0]]])
        w = [[1.0], [2.0], [3.0], [4.0]]
        out = fuse(x_sp, x_te, fuse_params(w, [10.0]), "f")
        assert out.data.ravel().tolist() == [1 + 4 + 9 + 16 + 10]

    def test_shape_mismatch(self):
        # Widths 4 and 5 would pass a 9-row weight; the branches must match.
        with pytest.raises(DimensionError, match=r"\(2, 3, 4\) vs \(2, 3, 5\)"):
            fuse(nm.Tensor(np.zeros((2, 3, 4))), nm.Tensor(np.zeros((2, 3, 5))),
                 fuse_params(np.zeros((9, 4)), np.zeros(4)), "f")

    def test_width_mismatch(self):
        with pytest.raises(DimensionError,
                           match=r"affine: inner dims differ, \(2, 3, 8\) vs \(6, 4\)"):
            fuse(nm.Tensor(np.zeros((2, 3, 4))), nm.Tensor(np.zeros((2, 3, 4))),
                 fuse_params(np.zeros((6, 4)), np.zeros(4)), "f")
