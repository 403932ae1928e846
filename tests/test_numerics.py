import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import erf

from conformer import numerics as nm
from conformer.errors import ContractError, DimensionError, NumericsError
from oracles import (composite_dropout, composite_gelu_affine, composite_gln,
                     finite_difference_gradient)


def rel_err(a, b):
    return nm.relative_error(a, b)


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = nm.matmul(nm.Tensor(np.eye(2)), nm.Tensor(a))
        assert np.array_equal(out.data, a)

    def test_hand_example(self):
        out = nm.matmul(nm.Tensor([[1.0, 2.0]]), nm.Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_zero_annihilator(self):
        rng = np.random.default_rng(0)
        a = nm.Tensor(rng.normal(size=(3, 4)))
        out = nm.matmul(a, nm.Tensor(np.zeros((4, 2))))
        assert np.array_equal(out.data, np.zeros((3, 2)))

    def test_batched(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(5, 3, 4)), rng.normal(size=(5, 4, 2))
        out = nm.matmul(nm.Tensor(a), nm.Tensor(b))
        assert np.allclose(out.data, a @ b)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            nm.matmul(nm.Tensor(np.zeros((2, 3))), nm.Tensor(np.zeros((2, 2))))


class TestSoftmax:
    def test_symmetry(self):
        out = nm.softmax_last_axis(nm.Tensor([0.0, 0.0]))
        assert np.array_equal(out.data, [0.5, 0.5])

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6))
        a = nm.softmax_last_axis(nm.Tensor(x)).data
        b = nm.softmax_last_axis(nm.Tensor(x + 123.456)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_hand_example(self):
        out = nm.softmax_last_axis(nm.Tensor([0.0, np.log(3.0)]))
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(scale=5.0, size=(3, 7))
            out = nm.softmax_last_axis(nm.Tensor(x)).data
            assert out.min() >= 0.0
            assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-12

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            nm.softmax_last_axis(nm.Tensor(np.zeros((2, 0))))

    @pytest.mark.parametrize("scale", [1.0, 0.5, 1.0 / np.sqrt(3.0), 2.5])
    def test_matches_reference_formula_bitwise(self, scale):
        # The reference formula written out in numpy, on inputs of several
        # magnitudes.
        rng = np.random.default_rng(21)
        x = rng.normal(scale=3.0, size=(2, 3, 7)) * np.float64(scale)
        grad = rng.normal(size=(2, 3, 7))
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        out = e / e.sum(axis=-1, keepdims=True)
        inner = (grad * out).sum(axis=-1, keepdims=True)

        node = nm.softmax_last_axis(nm.Tensor(x))
        assert node.data.tobytes() == out.tobytes()
        assert node._vjp(grad)[0].tobytes() == (out * (grad - inner)).tobytes()


class TestAttention:
    @pytest.mark.parametrize("k_first", [1e200, -1e200], ids=["+inf", "-inf"])
    def test_overflowing_score_named_as_matmul(self, k_first):
        # softmax would turn a -inf score into a finite 0 weight
        q = nm.Tensor([[[1e200], [1.0], [1.0]]])
        k = nm.Tensor([[[k_first], [1.0], [1.0]]])
        with pytest.raises(NumericsError,
                           match=r"'matmul' from inputs \(1, 3, 1\) and \(1, 3, 1\)$"), \
                np.errstate(over="ignore"):
            nm.attention(q, k, nm.Tensor(np.ones((1, 3, 1))), 1, axis=-2)

    def test_shapes_checked(self):
        def attend(shapes, n_heads=2, axis=-2):
            nm.attention(*(nm.Tensor(np.zeros(s)) for s in shapes), n_heads, axis)

        with pytest.raises(DimensionError,
                           match=r"shapes differ: \(2, 3, 4\), \(2, 3, 4\), \(2, 5, 4\)"):
            attend([(2, 3, 4), (2, 3, 4), (2, 5, 4)])
        with pytest.raises(DimensionError, match="width 6 not divisible by 4 heads"):
            attend([(2, 3, 6)] * 3, n_heads=4)
        with pytest.raises(DimensionError, match=r"\[\.\.\., T, N, D\], got \(3, 4\)"):
            attend([(3, 4)] * 3)
        with pytest.raises(ContractError, match="axis must be -2 .* or -3 .*, got -1"):
            attend([(2, 3, 4)] * 3, axis=-1)

    def test_untaped_has_no_parents(self):
        # Equal scores give equal weights: each output is v's mean over ``axis``.
        q, k = nm.Tensor(np.ones((2, 3, 4))), nm.Tensor(np.zeros((2, 3, 4)))
        v = nm.Tensor(np.arange(24.0).reshape(2, 3, 4))
        for axis in (-2, -3):
            with nm.no_tape():
                out = nm.attention(q, k, v, 2, axis)
            assert out._parents == ()
            expected = np.broadcast_to(v.data.mean(axis=axis, keepdims=True), v.shape)
            assert np.allclose(out.data, expected, rtol=0.0, atol=1e-13)
            with pytest.raises(ContractError, match="no_tape"):
                nm.backward(nm.tsum(out * 2.0), {"q": q, "k": k, "v": v})


class TestGelu:
    def test_matches_reference_formula_bitwise(self):
        rng = np.random.default_rng(22)
        x, grad = rng.normal(scale=2.0, size=(3, 4, 5)), rng.normal(size=(3, 4, 5))
        cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
        node = nm.gelu(nm.Tensor(x))
        assert node.data.tobytes() == (x * cdf).tobytes()
        assert node._vjp(grad)[0].tobytes() == (grad * (cdf + x * pdf)).tobytes()
        with nm.no_tape():
            assert nm.gelu(nm.Tensor(x)).data.tobytes() == (x * cdf).tobytes()

    @pytest.mark.parametrize("value", [-3.5, -0.7, 0.0, 1.0, 2.25])
    def test_zero_dim_input_matches_reference_formula(self, value):
        x = np.array(value)
        cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
        p = nm.Tensor(value)
        out = nm.gelu(p)
        assert out.shape == () and out.data.tobytes() == (x * cdf).tobytes()
        grad = nm.backward(out, {"p": p})["p"]
        assert np.asarray(grad).tobytes() == (cdf + x * pdf).tobytes()
        with nm.no_tape():
            assert nm.gelu(nm.Tensor(value)).data.tobytes() == (x * cdf).tobytes()

    def test_vjp_keeps_one_array_of_the_input_size(self):
        # The slope ``cdf + x * pdf``, in place of the input and ``cdf``: with
        # the caller's input and the output dropped, one array stays.
        rng, shape = np.random.default_rng(23), (64, 1000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            x = nm.Tensor(rng.normal(size=shape))
            vjp = nm.gelu(x)._vjp
            del x
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        size = 8 * math.prod(shape)
        assert size <= held < 1.1 * size, held / size
        assert vjp(np.ones(shape))[0].shape == shape


_EXTREME_FLOATS = st.one_of(st.sampled_from([-1e308, 0.0, 1e308]), st.floats(-1e308, 1e308))
_EXTREME = arrays(np.float64, array_shapes(max_dims=2, max_side=8), elements=_EXTREME_FLOATS)


@settings(max_examples=200, deadline=None)
@given(x=_EXTREME)
@example(x=np.array([1e308, -1e308, 5e-324]))
def test_gelu_and_absolute_of_finite_input_are_finite(x):
    """Why ``gelu`` and ``absolute`` run no finiteness check: ``|x Φ(x)|``
    and ``|x|`` are at most ``|x|``, so finite input gives finite output."""
    for out in (nm.gelu(x).data, nm.absolute(x).data):
        assert np.all(np.isfinite(out)) and np.all(np.abs(out) <= np.abs(x))


@settings(max_examples=200, deadline=None)
@given(x=_EXTREME)
@example(x=np.array([1e308, -1e308, 5e-324, 1.4e154]))
def test_gelu_gradient_of_finite_input_is_finite_and_quiet(x):
    """Past ``|x|`` about 1.3e154, ``x * x`` overflows in the slope's
    ``pdf``; ``pdf`` is then 0, the slope is ``cdf``, and no warning is
    raised (the suite turns warnings into errors)."""
    p = nm.Tensor(x)
    scale = 2.0 ** -20  # exact, and keeps the sum of up to 64 outputs finite
    grad = nm.backward(nm.tsum(nm.gelu(p) * scale), {"p": p})["p"]
    assert np.all(np.isfinite(grad))
    big = np.abs(x) > 1e155
    cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    assert np.array_equal(grad[big], cdf[big] * scale)


def _value_and_gradients(fn, operands, consts=()):
    """The output bytes of ``fn(*operands)`` and the gradient bytes of each
    operand not in ``consts`` (those go in as plain arrays), for one random
    cotangent."""
    tensors = {f"x{i}": nm.Tensor(a) for i, a in enumerate(operands) if i not in consts}
    out = fn(*(tensors.get(f"x{i}", a) for i, a in enumerate(operands)))
    cotangent = np.random.default_rng(0).normal(size=out.shape)
    grads = nm.backward(nm.tsum(out * cotangent), tensors)
    return out.data.tobytes(), {name: g.tobytes() for name, g in grads.items()}


_SPLITS = ["1-thread", "every-op-over-2", "every-op-over-3"]


def _use_split(split, threads, force_split):
    if split == "1-thread":
        threads(1)
    else:
        force_split(int(split[-1]))


class TestFusedNodes:
    """``gln``, ``gelu_affine`` and ``dropout`` against the composites they
    replace in the model: the same bytes in value and in every gradient, at
    1 thread and with every op split."""

    @pytest.mark.parametrize("split", _SPLITS)
    @pytest.mark.parametrize("shapes", [
        ((3, 4, 6), (3, 4, 6), (3, 4, 6)),  # generated factors
        ((3, 4, 6), (6,), (6,)),            # plain-ln's parameters
        ((3, 4, 6), (3, 4, 6), (6,)),
        ((5, 1), (1,), (5, 1)),             # one feature
        ((6,), (6,), (6,)),                 # one row
    ])
    @pytest.mark.parametrize("consts", [(), (1, 2), (0,)], ids=["all", "const-factors", "const-x"])
    def test_gln(self, threads, force_split, split, shapes, consts):
        _use_split(split, threads, force_split)
        rng = np.random.default_rng(30)
        x, gamma, beta = (rng.normal(1.0, 2.0, size=shape) for shape in shapes)
        fused, composite = (_value_and_gradients(lambda *t: fn(*t, 1e-5), (x, gamma, beta),
                                                 consts)
                            for fn in (nm.gln, composite_gln))
        assert fused == composite

    @pytest.mark.parametrize("split", _SPLITS)
    @pytest.mark.parametrize("consts", [(), (0,), (1,), (2,), (0, 1)])
    def test_gelu_affine(self, threads, force_split, split, consts):
        _use_split(split, threads, force_split)
        rng = np.random.default_rng(31)
        operands = (rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 7)), rng.normal(size=7))
        assert (_value_and_gradients(nm.gelu_affine, operands, consts)
                == _value_and_gradients(composite_gelu_affine, operands, consts))

    @pytest.mark.parametrize("split", _SPLITS)
    def test_dropout(self, threads, force_split, split):
        _use_split(split, threads, force_split)
        rng = np.random.default_rng(32)
        x, keep = rng.normal(size=(3, 4, 5)), 0.9
        kept = rng.random(x.shape) < keep
        assert (_value_and_gradients(lambda t: nm.dropout(t, kept, keep), (x,))
                == _value_and_gradients(lambda t: composite_dropout(t, kept, keep), (x,)))

    def test_tape_keeps_less_than_the_composite(self):
        # GLN keeps ``x - mean``, std and gamma, not both ``x - mean`` arrays
        # and the normalized input; a generator head keeps its input, not
        # GELU's slope and output; dropout keeps a boolean draw, not a float
        # mask. Operands are made before tracing: only what the tape adds
        # counts. Shapes are the criterion-8 step's.
        rng = np.random.default_rng(33)
        x = rng.normal(size=(64, 12, 30, 32))
        gamma, beta = rng.normal(size=x.shape), rng.normal(size=x.shape)
        kept = rng.random(x.shape) < 0.9
        w, b = rng.normal(size=(32, 65)), rng.normal(size=65)
        cases = {"gln": (lambda *t: nm.gln(*t, 1e-5), lambda *t: composite_gln(*t, 1e-5),
                         (x, gamma, beta), 2),
                 "gelu_affine": (nm.gelu_affine, composite_gelu_affine, (x, w, b), 2),
                 "dropout": (lambda t: nm.dropout(t, kept, 0.9),
                             lambda t: composite_dropout(t, kept, 0.9), (x,), 7 / 8)}
        for name, (node, composite, operands, saved) in cases.items():
            held = []
            for fn in (node, composite):
                tensors = [nm.Tensor(a) for a in operands]
                tracemalloc.start()
                try:
                    record = fn(*tensors)._record  # the output array is dropped
                    held.append(tracemalloc.get_traced_memory()[0])
                finally:
                    tracemalloc.stop()
                del record, tensors
            assert held[1] - held[0] >= saved * x.nbytes, (name, held)


@settings(max_examples=200, deadline=None)
@given(x=_EXTREME, data=st.data())
@example(x=np.array([[1e308, -1e308]]), data=None)  # only ``std`` is non-finite
def test_gln_raises_where_its_composite_raises(x, data):
    """Where ``composite_gln`` raises ``NumericsError``, so does ``nm.gln``,
    which checks only ``std`` and its output; elsewhere both give the same
    bytes."""
    width = x.shape[-1:]
    if data is None:
        gamma, beta = np.ones(width), np.zeros(width)
    else:
        gamma, beta = (data.draw(arrays(np.float64, width, elements=_EXTREME_FLOATS),
                                 label=name) for name in ("gamma", "beta"))
    outcomes = []
    for fn in (nm.gln, composite_gln):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                outcomes.append(fn(nm.Tensor(x), nm.Tensor(gamma), nm.Tensor(beta),
                                   1e-5).data.tobytes())
        except NumericsError:
            outcomes.append(NumericsError)
    assert outcomes[0] == outcomes[1]


def _add_at_reference(n_rows: int, ids: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``gather_rows``' table gradient as ``np.add.at`` scatter-adds it."""
    width = grad.shape[-1]
    g = np.zeros((n_rows, width))
    np.add.at(g, ids.reshape(-1), grad.reshape(ids.size, width))
    return g


@pytest.mark.parametrize("n_rows", [288, 7, 3, 2])
def test_gather_rows_gradient_matches_add_at(n_rows):
    # Repeated ids, a row no id uses, a column of -0.0 and a row reached
    # only by -0.0: the sums and every zero's sign are ``np.add.at``'s.
    rng = np.random.default_rng(n_rows)
    ids = rng.integers(1, n_rows, size=(64, 12, 30))
    ids[0, 0, :3] = 0
    grad = rng.normal(size=ids.shape + (8,))
    grad[..., 0] = -0.0
    grad[0, 0, :3] = -0.0
    for lookup in (ids, ids.astype(np.uint16)):
        vjp = nm.gather_rows(nm.Tensor(rng.normal(size=(n_rows, 8))), lookup)._vjp
        assert vjp(grad)[0].tobytes() == _add_at_reference(n_rows, ids, grad).tobytes()


def test_gather_rows_gradient_of_zero_width():
    ids = np.array([[0, 2], [2, 2]])
    vjp = nm.gather_rows(nm.Tensor(np.zeros((3, 0))), ids)._vjp
    assert vjp(np.zeros((2, 2, 0)))[0].shape == (3, 0)


class TestMeanStd:
    def test_hand_example(self):
        mean, std = nm.mean_std_last_axis(nm.Tensor([1.0, 2.0, 3.0, 4.0]), eps=1e-300)
        assert np.allclose(mean.data, 2.5)
        assert np.allclose(std.data, np.sqrt(1.25))

    def test_constant_vector(self):
        mean, std = nm.mean_std_last_axis(nm.Tensor([3.0, 3.0, 3.0]), eps=1e-5)
        assert np.allclose(mean.data, 3.0)
        assert np.allclose(std.data, np.sqrt(1e-5))

    def test_single_element(self):
        mean, std = nm.mean_std_last_axis(nm.Tensor([7.0]), eps=1e-5)
        assert np.allclose(mean.data, 7.0)
        assert np.allclose(std.data, np.sqrt(1e-5))

    def test_bad_eps(self):
        with pytest.raises(ContractError):
            nm.mean_std_last_axis(nm.Tensor([1.0]), eps=0.0)


class TestConcatSlice:
    def test_single_part_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(nm.concat_last_axis([nm.Tensor(x)]).data, x)

    def test_widths_add(self):
        out = nm.concat_last_axis([nm.Tensor(np.zeros((2, 3))),
                                   nm.Tensor(np.ones((2, 5)))])
        assert out.shape == (2, 8)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 5))
        joined = nm.concat_last_axis([nm.Tensor(a), nm.Tensor(b)])
        assert np.array_equal(nm.slice_last_axis(joined, 0, 3).data, a)
        assert np.array_equal(nm.slice_last_axis(joined, 3, 8).data, b)

    def test_slice_owns_its_array(self):
        # A view would keep all of ``x`` alive for as long as the slice lives.
        x = nm.Tensor(np.arange(12.0).reshape(3, 4))
        part = nm.slice_last_axis(x, 1, 3).data
        assert not np.shares_memory(part, x.data)
        assert part.base is None and part.flags.c_contiguous
        assert np.array_equal(part, x.data[:, 1:3])

    def test_leading_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nm.concat_last_axis([nm.Tensor(np.zeros((2, 3))),
                                 nm.Tensor(np.zeros((3, 3)))])


_BAD_STRUCTURAL_CALLS = {  # case: (input shape, call, error, message)
    "moveaxis-out-of-range": ((2, 3), lambda x: nm.moveaxis(x, 0, 5), DimensionError,
                              r"moveaxis: axis 0 or 5 out of range for \(2, 3\)"),
    "zero-heads": ((2, 3, 4), lambda x: nm.attention(x, x, x, 0, axis=-2), ContractError,
                   r"attention: n_heads must be >= 1, got 0 for inputs \(2, 3, 4\)"),
    "negative-heads": ((2, 3, 4), lambda x: nm.attention(x, x, x, -2, axis=-2), ContractError,
                       r"attention: n_heads must be >= 1, got -2 for inputs \(2, 3, 4\)"),
    "reshape-size": ((2, 3), lambda x: nm.reshape(x, (5, 5)), DimensionError,
                     r"reshape: cannot reshape \(2, 3\) to \(5, 5\)"),
    "transpose-repeated": ((2, 3), lambda x: nm.transpose(x, (0, 0)), DimensionError,
                           r"transpose: axes \(0, 0\) are no permutation .* \(2, 3\)"),
    "tsum-axis": ((2, 3), lambda x: nm.tsum(x, axis=2), DimensionError,
                  r"tsum: axis 2 out of range for \(2, 3\)"),
    "concat-0d": ((2, 3), lambda x: nm.concat_last_axis([x, nm.Tensor(1.0)]), DimensionError,
                  r"concat_last_axis: a 0-d part .* \[\(2, 3\), \(\)\]"),
}


@pytest.mark.parametrize("case", _BAD_STRUCTURAL_CALLS)
def test_bad_structural_argument_names_op_and_shapes(case):
    shape, call, error, match = _BAD_STRUCTURAL_CALLS[case]
    with pytest.raises(error, match=match):
        call(nm.Tensor(np.ones(shape)))


class TestAffine:
    @pytest.mark.parametrize("x_shape", [(5, 4), (3, 5, 4), (2, 3, 5, 4)])
    def test_matches_matmul_add_bitwise(self, x_shape):
        rng = np.random.default_rng(30)
        x, w, b = rng.normal(size=x_shape), rng.normal(size=(4, 6)), rng.normal(size=6)
        weights = rng.normal(size=x_shape[:-1] + (6,))

        def run(build):
            params = {"x": nm.Tensor(x), "w": nm.Tensor(w), "b": nm.Tensor(b)}
            out = build(*params.values())
            grads = nm.backward(nm.tsum(out * nm.Tensor(weights)), params)
            return [out.data.tobytes()] + [grads[k].tobytes() for k in params]

        assert run(nm.affine) == run(lambda x, w, b: nm.matmul(x, w) + b)

    def test_bias_must_fit_output(self):
        with pytest.raises(DimensionError, match="bias"):
            nm.affine(nm.Tensor(np.zeros((3, 2))), nm.Tensor(np.zeros((2, 1))),
                      nm.Tensor(np.zeros(4)))


def _backward_peak_bytes(depth: int, size: int = 10**6) -> int:
    """tracemalloc peak of ``backward`` over a ``depth``-op mul/add chain."""
    p = nm.Tensor(np.random.default_rng(0).normal(size=size))
    x = p
    for _ in range(depth // 2):
        x = x * 1.0001 + 0.5
    loss = nm.tsum(x)
    tracemalloc.start()
    try:
        nm.backward(loss, {"p": p})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _affine_chain_backward(depth: int, shape=(16, 128, 128)) -> dict[str, float]:
    """tracemalloc figures of ``backward`` over a ``depth``-layer affine chain.

    Returned in units of one ``shape`` array: the tape above the leaves
    before ``backward``, the peak above the tape, and what is live above the
    leaves when the first layer's VJP runs, the last one the walk reaches.
    """
    rng = np.random.default_rng(0)
    k = shape[-1]
    tracemalloc.start()
    try:
        params = {"p": nm.Tensor(rng.normal(size=shape))}
        for i in range(depth):
            params[f"w{i}"] = nm.Tensor(rng.normal(size=(k, k)) / np.sqrt(k))
            params[f"b{i}"] = nm.Tensor(np.zeros(k))
        leaves = tracemalloc.get_traced_memory()[0]
        first = x = nm.affine(params["p"], params["w0"], params["b0"])
        for i in range(1, depth):
            x = nm.affine(x, params[f"w{i}"], params[f"b{i}"])
        loss = nm.tsum(x)
        del x
        live = []
        vjp = first._vjp

        def probe(grad):
            live.append(tracemalloc.get_traced_memory()[0])
            return vjp(grad)

        first._vjp = probe
        tape = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        nm.backward(loss, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = 8 * np.prod(shape)
    return {"tape": (tape - leaves) / unit, "peak_above_tape": (peak - tape) / unit,
            "live_at_first": (live[0] - leaves) / unit}


class TestBackward:
    def test_sum_gradient(self):
        p = nm.Tensor([1.0, 5.0, -2.0])
        record = nm.backward(nm.tsum(p), {"p": p})
        assert np.array_equal(record["p"], [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        p = nm.Tensor([1.0, 2.0])
        record = nm.backward(nm.tsum(p * p), {"p": p})
        assert np.array_equal(record["p"], [2.0, 4.0])

    def test_disconnected_param_gets_zeros(self):
        p = nm.Tensor([1.0, 2.0])
        q = nm.Tensor([3.0])
        record = nm.backward(nm.tsum(p), {"p": p, "q": q})
        assert np.array_equal(record["q"], [0.0])

    def test_non_scalar_loss_rejected(self):
        p = nm.Tensor([1.0, 2.0])
        with pytest.raises(ContractError):
            nm.backward(p * p, {"p": p})

    def test_reused_node_accumulates(self):
        p = nm.Tensor([3.0])
        record = nm.backward(nm.tsum(p + p), {"p": p})
        assert np.array_equal(record["p"], [2.0])

    def test_interior_param_gets_gradient(self):
        p = nm.Tensor([1.0, -2.0])
        h = p * 3.0
        record = nm.backward(nm.tsum(h * h), {"p": p, "h": h})
        assert np.array_equal(record["h"], [6.0, -12.0])
        assert np.array_equal(record["p"], [18.0, -36.0])

    def test_peak_memory_flat_in_depth(self):
        # Consumed gradients are dropped: 40 ops peak like 4, within one array.
        shallow, deep = _backward_peak_bytes(4), _backward_peak_bytes(40)
        assert deep < shallow + 8 * 10**6, (shallow, deep)

    def test_consumed_tape_freed_as_walked(self):
        # The tape is 11 arrays above its leaves: every layer's output but the
        # last, which only ``tsum`` takes, and its VJP keeps no operand. The peak
        # adds the incoming gradient and one more array: the weight
        # gradient's batched product is reduced before the input gradient is
        # allocated. By the first layer, the walk has freed every later
        # layer's output.
        figures = _affine_chain_backward(12)
        assert 11 < figures["tape"] < 11.5, figures
        assert figures["peak_above_tape"] < 2.5, figures
        assert figures["live_at_first"] < 3.0, figures

    def test_intermediate_no_vjp_reads_freed_before_backward(self):
        p, q = nm.Tensor(np.ones((2, 3))), nm.Tensor(np.full((2, 3), 2.0))
        h = p * 3.0
        ref = weakref.ref(h.data)
        loss = nm.tsum(nm.concat_last_axis([h + q, h]))
        assert ref() is not None
        del h
        assert ref() is None
        record = nm.backward(loss, {"p": p, "q": q})
        assert np.array_equal(record["p"], np.full((2, 3), 6.0))
        assert np.array_equal(record["q"], np.ones((2, 3)))

    def test_intermediate_a_vjp_reads_lives_until_that_vjp_runs(self):
        p, q = nm.Tensor(np.ones((2, 3))), nm.Tensor(np.full((2, 3), 2.0))
        h = p * 3.0
        ref = weakref.ref(h.data)
        prod = h * q  # q's gradient reads h
        alive = []

        def probing(vjp):
            def probe(grad):
                alive.append(ref() is not None)
                return vjp(grad)
            return probe

        prod._vjp = probing(prod._vjp)
        loss = nm.tsum(prod)
        del h, prod
        assert ref() is not None
        record = nm.backward(loss, {"p": p, "q": q})
        assert alive == [True] and ref() is None
        assert np.array_equal(record["q"], np.full((2, 3), 3.0))

    def test_second_backward_rejected(self):
        p = nm.Tensor([1.0, -2.0])
        h = p * 3.0
        loss = nm.tsum(h * h)
        nm.backward(loss, {"p": p})
        with pytest.raises(ContractError, match="consumed") as excinfo:
            nm.backward(loss, {"p": p})
        assert "no_tape" not in str(excinfo.value)
        # A new loss through a consumed interior node raises, never zeros.
        with pytest.raises(ContractError, match="consumed"):
            nm.backward(nm.tsum(h + 1.0), {"p": p})
        with pytest.raises(ContractError, match="consumed"):
            h._vjp(np.ones(2))
        assert h._parents == () and p._parents == ()

    def test_constant_operand_gets_no_gradient(self):
        p = nm.Tensor([1.0, -2.0])
        arr = np.array([3.0, 4.0])
        grad = np.array([0.5, 2.0])
        assert nm.mul(p, arr)._vjp(grad)[1] is None
        assert nm.sub(p, arr)._vjp(grad)[1] is None
        assert (p + 2.0)._vjp(grad)[1] is None
        assert nm.sub(3.0, p)._vjp(grad)[0] is None
        assert nm.div(1.0, p)._vjp(grad)[0] is None
        m, w = nm.Tensor([[1.0, 2.0]]), nm.Tensor([[3.0], [4.0]])
        assert nm.matmul(m.data, w)._vjp(np.ones((1, 1)))[0] is None
        assert nm.matmul(m, w.data)._vjp(np.ones((1, 1)))[1] is None
        assert nm.affine(m.data, w, np.zeros(1))._vjp(np.ones((1, 1)))[::2] == (None, None)
        x = nm.Tensor(np.ones((1, 2, 2)))
        for i in range(3):
            qkv = [x.data if j == i else x for j in range(3)]
            grads = nm.attention(*qkv, 1, axis=-2)._vjp(np.ones((1, 2, 2)))
            assert [g is None for g in grads] == [j == i for j in range(3)]
        # A Tensor operand still gets its gradient, and so does ``p``.
        g_p, g_t = nm.mul(p, nm.Tensor(arr))._vjp(grad)
        assert np.array_equal(g_p, grad * arr) and np.array_equal(g_t, grad * p.data)
        record = nm.backward(nm.tsum(p * arr - 1.0), {"p": p})
        assert np.array_equal(record["p"], arr)


def _chain_peak_bytes(depth: int, size: int = 10**6) -> int:
    """tracemalloc peak of building a ``depth``-op mul/add chain under no_tape."""
    x = nm.Tensor(np.random.default_rng(0).normal(size=size))
    tracemalloc.start()
    try:
        with nm.no_tape():
            for _ in range(depth // 2):
                x = x * 1.0001 + 0.5
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoTape:
    def test_leaves_and_finite_check_unchanged(self):
        with nm.no_tape():
            leaf = nm.Tensor([1.0, 2.0])
            with pytest.raises(NumericsError):
                nm.div(leaf, nm.Tensor([1.0, 0.0]))
        assert leaf._vjp is None
        record = nm.backward(nm.tsum(leaf * leaf), {"leaf": leaf})
        assert np.array_equal(record["leaf"], [2.0, 4.0])

    def test_backward_on_untaped_loss_rejected(self):
        p = nm.Tensor([1.0, 2.0])
        with nm.no_tape():
            loss = nm.tsum(p * p)
        with pytest.raises(ContractError, match="no_tape"):
            nm.backward(loss, {"p": p})

    def test_backward_through_untaped_node_rejected(self):
        # An untaped node inside a taped graph is no leaf: never zero gradients.
        p = nm.Tensor([1.0, 2.0])
        with nm.no_tape():
            h = p * 2.0
        with pytest.raises(ContractError, match="no_tape") as excinfo:
            nm.backward(nm.tsum(h * 3.0), {"p": p})
        assert "consumed" not in str(excinfo.value)

    def test_thread_local(self):
        p = nm.Tensor([1.0, 2.0])
        taped = {}

        def build(key):
            taped[key] = bool((p * 2.0)._parents)

        def build_untaped(key):
            with nm.no_tape():
                build(key)

        def in_thread(fn, key):
            worker = threading.Thread(target=fn, args=(key,))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        with nm.no_tape():
            in_thread(build, "worker while main is untaped")
            build("main untaped")
        in_thread(build_untaped, "worker untaped")
        build("main after")
        assert taped == {"worker while main is untaped": True, "main untaped": False,
                         "worker untaped": False, "main after": True}

    def test_restored_after_exception(self):
        p = nm.Tensor([1.0])
        with pytest.raises(NumericsError):
            with nm.no_tape():
                with nm.no_tape():
                    nm.div(p, 0.0)
        assert (p * 2.0)._parents[0] is p._record
        with nm.no_tape():
            with pytest.raises(NumericsError):
                with nm.no_tape():
                    nm.div(p, 0.0)
            assert (p * 2.0)._parents == ()

    def test_peak_memory_flat_in_depth(self):
        # Nothing keeps an intermediate alive: 40 ops peak like 4.
        shallow, deep = _chain_peak_bytes(4), _chain_peak_bytes(40)
        assert deep < shallow + 8 * 10**6, (shallow, deep)


def _fd_check(build, tensors, seed, tol=1e-4):
    """Compare analytic gradients of sum(weights * build(tensors)) to FD."""
    rng = np.random.default_rng(seed)
    out = build(*[nm.Tensor(t) for t in tensors])
    weights = rng.normal(size=out.shape)

    params = {f"x{i}": nm.Tensor(t) for i, t in enumerate(tensors)}
    loss = nm.tsum(build(*params.values()) * nm.Tensor(weights))
    analytic = nm.backward(loss, params)

    for i, base in enumerate(tensors):
        def scalar_fn(arr, i=i):
            args = [nm.Tensor(arr) if j == i else nm.Tensor(t)
                    for j, t in enumerate(tensors)]
            return nm.tsum(build(*args) * nm.Tensor(weights)).item()

        fd = finite_difference_gradient(scalar_fn, base)
        assert rel_err(analytic[f"x{i}"], fd) <= tol, f"input {i} gradient mismatch"


class TestPrimitiveGradients:
    """Every differentiable primitive vs central finite differences."""

    def test_add_sub_mul_div(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(-10, 10, size=(3, 4))
        b = rng.uniform(0.5, 10, size=(3, 4))
        _fd_check(lambda x, y: (x + y) * x - y, [a, b], seed=0)
        _fd_check(lambda x, y: x / y, [a, b], seed=1)

    def test_broadcast_ops(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-5, 5, size=(2, 3, 4))
        b = rng.uniform(0.5, 5, size=(4,))
        _fd_check(lambda x, y: x * y + y, [a, b], seed=2)

    def test_matmul(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(-3, 3, size=(2, 3, 4))
        b = rng.uniform(-3, 3, size=(4, 5))
        _fd_check(nm.matmul, [a, b], seed=3)

    def test_affine(self):
        rng = np.random.default_rng(20)
        _fd_check(nm.affine, [rng.uniform(-3, 3, size=(2, 3, 4)),
                              rng.uniform(-3, 3, size=(4, 5)),
                              rng.uniform(-3, 3, size=(5,))], seed=18)

    def test_transpose_reshape_broadcast(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(-5, 5, size=(2, 3, 4))
        _fd_check(lambda x: nm.transpose(x, (1, 0, 2)), [a], seed=4)
        _fd_check(lambda x: nm.reshape(x, (6, 4)), [a], seed=5)
        _fd_check(lambda x: nm.broadcast_to(x, (5, 2, 3, 4)), [a], seed=6)

    def test_reductions(self):
        rng = np.random.default_rng(14)
        a = rng.uniform(-5, 5, size=(3, 6))
        _fd_check(lambda x: nm.tsum(x, axis=-1, keepdims=True), [a], seed=7)
        _fd_check(lambda x: nm.reshape(nm.tsum(x), (1,)), [a], seed=8)

    def test_sqrt_abs_gelu(self):
        rng = np.random.default_rng(15)
        pos = rng.uniform(0.5, 10, size=(2, 5))
        # keep |x| >= 0.1 so the FD step never crosses the abs kink
        signed = rng.uniform(0.1, 8, size=(2, 5)) * rng.choice([-1, 1], size=(2, 5))
        _fd_check(nm.sqrt, [pos], seed=9)
        _fd_check(nm.absolute, [signed], seed=10)
        _fd_check(nm.gelu, [signed], seed=11)

    def test_softmax(self):
        rng = np.random.default_rng(16)
        a = rng.uniform(-4, 4, size=(3, 5))
        _fd_check(nm.softmax_last_axis, [a], seed=12)

    def test_attention(self):
        rng = np.random.default_rng(21)
        qkv = [rng.uniform(-2, 2, size=(2, 3, 4)) for _ in range(3)]
        for axis, seed in ((-2, 22), (-3, 23)):
            _fd_check(lambda q, k, v: nm.attention(q, k, v, 2, axis), qkv, seed=seed)

    def test_concat_slice(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(-5, 5, size=(2, 3))
        b = rng.uniform(-5, 5, size=(2, 4))
        _fd_check(lambda x, y: nm.concat_last_axis([x, y]), [a, b], seed=13)
        _fd_check(lambda x: nm.slice_last_axis(x, 1, 3), [a], seed=14)

    def test_gather(self):
        rng = np.random.default_rng(18)
        table = rng.uniform(-2, 2, size=(6, 3))
        ids = rng.integers(0, 6, size=(2, 4))
        _fd_check(lambda t: nm.gather_rows(t, ids), [table], seed=15)

    def test_gather_unused_row_zero_grad(self):
        table = nm.Tensor(np.arange(12.0).reshape(4, 3))
        ids = np.array([[0, 1], [1, 0]])
        loss = nm.tsum(nm.gather_rows(table, ids))
        record = nm.backward(loss, {"t": table})
        assert np.array_equal(record["t"][2], [0.0, 0.0, 0.0])
        assert np.array_equal(record["t"][3], [0.0, 0.0, 0.0])

    def test_mean_std(self):
        rng = np.random.default_rng(19)
        a = rng.uniform(-5, 5, size=(3, 6))
        _fd_check(lambda x: nm.mean_std_last_axis(x, 1e-5)[0], [a], seed=16)
        _fd_check(lambda x: nm.mean_std_last_axis(x, 1e-5)[1], [a], seed=17)


class TestFiniteGuard:
    def test_division_by_zero_surfaces(self):
        with pytest.raises(NumericsError, match=r"'div' from inputs \(2, 3\) and \(2, 1\)$"):
            nm.div(nm.Tensor(np.ones((2, 3))), nm.Tensor(np.zeros((2, 1))))

    def test_sqrt_of_negative_surfaces(self):
        with pytest.raises(NumericsError, match=r"'sqrt' from input \(1,\)$"):
            nm.sqrt(nm.Tensor([-1.0]))
        with nm.no_tape():
            with pytest.raises(NumericsError, match=r"'sqrt' from input \(1,\)$"):
                nm.sqrt(nm.Tensor([-1.0]))

    def test_overflow_names_every_input(self):
        with pytest.raises(NumericsError,
                           match=r"'affine' from inputs \(1, 1\), \(1, 1\) and \(1,\)$"), \
                np.errstate(over="ignore"):
            nm.affine(nm.Tensor([[1e308]]), nm.Tensor([[10.0]]), nm.Tensor([0.0]))

    def test_nan_input_rejected(self):
        with pytest.raises(NumericsError, match="'tensor'$"):
            nm.Tensor([np.nan])


def test_determinism_bit_identical():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(4, 5))
    w = rng.normal(size=(5, 3))

    def run():
        out = nm.softmax_last_axis(nm.matmul(nm.Tensor(x), nm.Tensor(w)))
        return out.data.tobytes()

    assert run() == run()


def _split_ops(x, y, w, b):
    """Every primitive that splits over axis 0, on ``[B, .., D]`` tensors."""
    return {"add": x + y, "sub": x - y, "mul": x * y, "div": x / (y * y + 1.0),
            "matmul": nm.matmul(x, w), "affine": nm.affine(x, w, b), "gelu": nm.gelu(x),
            "spatial": nm.attention(x, y, x, 2, axis=-2),
            "temporal": nm.attention(x, y, x, 2, axis=-3),
            "concat": nm.concat_last_axis([x, y]), "sum": nm.tsum(x, axis=-1, keepdims=True)}


def _split_record(transposed: bool):
    """Bytes and strides of each op's output and of its VJP's gradients."""
    rng = np.random.default_rng(8)
    x, y = (rng.normal(size=(5, 3, 4, 6)) for _ in range(2))
    if transposed:  # axes 1 and 2 swapped in memory: numpy keeps that layout
        x, y = (np.swapaxes(np.swapaxes(a, 1, 2).copy(), 1, 2) for a in (x, y))
    out = _split_ops(nm.Tensor(x), nm.Tensor(y), nm.Tensor(rng.normal(size=(6, 6))),
                     nm.Tensor(rng.normal(size=6)))
    record = {}
    for name, node in out.items():
        grads = node._vjp(rng.normal(size=node.shape))
        record[name] = [(a.tobytes(), a.strides) for a in (node.data,) + grads
                        if a is not None]
    return record


class TestSplit:
    @pytest.mark.parametrize("transposed", [False, True], ids=["c-order", "transposed"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_bytes_and_layout_of_the_whole_op(self, threads, force_split, slabs,
                                              transposed, workers):
        threads(1)
        whole = _split_record(transposed)
        force_split(workers)
        assert _split_record(transposed) == whole
        # Transposed operands run whole where numpy's layout is not C order.
        assert [work for work, _ in slabs].count("_rowwise.<locals>.work") >= 15

    def test_one_row_and_2d_products_stay_whole(self, force_split, slabs):
        """A value of one row is never split, nor the rows of a 2-D product
        (whose finiteness check still splits: it reads, and writes nothing)."""
        x, w, b = (nm.Tensor(np.ones(shape)) for shape in ((1, 3, 4, 6), (6, 2), (2,)))
        a, c = nm.Tensor(np.ones((8, 6))), nm.Tensor(np.ones((6, 3)))
        force_split(2)
        slabs.clear()
        nm.gelu(nm.affine(x, w, b) * x.data[..., :2])
        assert slabs == []
        nm.matmul(a, c)
        assert slabs == [("_check_finite.<locals>.<lambda>", 2)]

    def test_worker_error_is_the_callers_error(self, force_split):
        """An inf in the last window's row is seen by a worker: it raises the
        error of the whole op, under the caller's errstate, with no warning."""
        force_split(2)
        x = nm.Tensor(np.ones((4, 3, 5)))
        x.data[3, 0, 0] = np.inf  # tensors are checked when built: plant it after
        w = nm.Tensor(np.array([[1.0, -1.0] * 3] * 5))
        args = (x, w, nm.Tensor(np.zeros(6)))
        message = r"'affine' from inputs \(4, 3, 5\), \(5, 6\) and \(6,\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
                    NumericsError, match=message):
                nm.affine(*args)
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                nm.affine(*args)

    def test_forked_child_starts_its_own_workers(self, force_split):
        force_split(2)
        big = nm.Tensor(np.ones((2, 3)))
        nm.add(big, big)  # this process's workers now exist
        with warnings.catch_warnings():  # Python 3.12 on warns of forking with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: exit 0 once a split op has returned
            os._exit(0 if nm.add(big, big).data.sum() == 12.0 else 1)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

    def test_concurrent_callers_each_get_their_own_bytes(self, threads, force_split):
        """Four callers share four workers on two cores, with the interpreter
        switching threads as often as it can: each caller's split ops give the
        bytes of the whole ops."""
        rng = np.random.default_rng(9)
        xs = [nm.Tensor(rng.normal(size=(7, 3, 5))) for _ in range(4)]
        w = nm.Tensor(rng.normal(size=(5, 5)))
        threads(1)
        whole = [nm.gelu(nm.matmul(x, w) * x).data.tobytes() for x in xs]
        force_split(4)
        wrong = []

        def call(i: int) -> None:
            for _ in range(50):
                if nm.gelu(nm.matmul(xs[i], w) * xs[i]).data.tobytes() != whole[i]:
                    wrong.append(i)

        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers) and wrong == []
