"""Dense float64 tensors with reverse-mode automatic differentiation.

Every primitive records its parents and a vector-Jacobian product, so any
scalar built from Tensor ops can be differentiated with ``backward``.
Values are checked for NaN/Inf after every arithmetic primitive; a
non-finite result raises ``NumericsError`` instead of propagating silently.
A primitive skips the check when its output cannot be non-finite: the
structural ones (``reshape``, ``transpose``/``moveaxis``, ``slice_last_axis``,
``concat_last_axis``, ``gather_rows`` and ``broadcast_to``) only rearrange
values of tensors already checked, ``softmax_last_axis`` maps finite
input into [0, 1], and ``gelu`` and ``absolute`` give at most ``|x|`` in
magnitude.

``affine(x, w, b)`` is ``x @ w + b`` as one node: one output array on the
tape instead of two, with the gradients of the matmul-plus-add composite.

``attention(q, k, v, n_heads, axis)`` is multi-head softmax attention over
the node or the time axis as one node, bitwise equal to the chain of head
split, ``matmul``, ``softmax_last_axis``, ``matmul`` and head merge. The
scores are scaled and softmaxed in their own buffer, so a call keeps one
``[.., L, L]`` array per head, on the tape and at peak. Its weights, a softmax
of checked scores, lie in [0, 1] and are not checked. ``softmax_last_axis``
and ``gelu`` likewise work in one buffer per pass.

An operand passed as a plain array or Python scalar can never be a
parameter, so the arithmetic primitives, ``matmul``, ``affine`` and
``attention`` give it no gradient (``None`` in its VJP slot) instead of a
full-size product or reduction.

``backward`` runs a node's VJP once a gradient has reached it, and keeps a
parent's gradient only when the parent is an interior node or a requested
parameter. It drops each interior gradient once its node's VJP has used it,
and consumes the tape as it walks: a visited node loses its parents and its
VJP, so each forward array is freed after the last VJP that reads it. A node
with a VJP slot but no parents, consumed by an earlier ``backward`` or built
under ``no_tape``, cannot be differentiated through: ``backward`` raises
``ContractError`` on meeting one.

Inside ``with no_tape():`` (per thread) a node keeps its data and its
finiteness check but gets no parents, and a stub that raises stands in for
its VJP, so each intermediate is freed as soon as Python drops it.
Inference runs this way.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ContractError, DimensionError, NumericsError

Array = np.ndarray

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _check_finite(arr: Array, op: str, inputs: tuple = ()) -> Array:
    if not np.all(np.isfinite(arr)):
        shapes = [str(t.shape) for t in inputs]
        source = f"'{op}'"
        if len(shapes) == 1:
            source += f" from input {shapes[0]}"
        elif shapes:
            source += f" from inputs {', '.join(shapes[:-1])} and {shapes[-1]}"
        raise NumericsError(f"non-finite value produced by {source}")
    return arr


def check_allocatable(what: str, shape) -> None:
    """Raise ``ConfigError`` unless numpy can allocate a float64 array of ``shape``."""
    try:
        np.empty(shape)
    except (ValueError, MemoryError) as exc:  # numpy refuses the size
        raise ConfigError(f"{what} cannot be allocated: {exc}") from exc


_TAPE = threading.local()


@contextmanager
def no_tape() -> Iterator[None]:
    """Build nodes without parents or VJPs in this thread, for inference."""
    was_off = getattr(_TAPE, "off", False)
    _TAPE.off = True
    try:
        yield
    finally:
        _TAPE.off = was_off


def _untaped(grad: Array):
    raise ContractError("this node was built under no_tape and has no VJP")


class Tensor:
    """Immutable dense array node in the autodiff graph.

    ``Tensor(values)`` builds a leaf; ``_node`` builds every interior node,
    with its parents and a ``vjp`` callback mapping the output gradient to
    per-parent gradients. ``data`` must never be mutated after construction.
    """

    __slots__ = ("data", "_parents", "_vjp")

    def __init__(self, values):
        self.data = _check_finite(np.asarray(values, dtype=np.float64), "tensor")
        self._parents, self._vjp = (), None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents: tuple, vjp: Callable, op: str | None = None) -> Tensor:
    """The output of a primitive; under ``no_tape`` it keeps no parents.

    A named ``op`` is checked for finiteness. ``op=None`` skips the check, for
    a structural primitive, which only rearranges values of finite parents,
    or for one whose output from finite input is finite.
    """
    node = Tensor.__new__(Tensor)
    # A full ``tsum`` returns a numpy scalar; the node holds a 0-d array.
    node.data = np.asarray(data, dtype=np.float64)
    if op is not None:
        _check_finite(node.data, op, parents)
    if getattr(_TAPE, "off", False):
        parents, vjp = (), _untaped
    node._parents, node._vjp = parents, vjp
    return node


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    reduce_axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if reduce_axes:
        grad = grad.sum(axis=reduce_axes, keepdims=True)
    return grad


def _broadcastable(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(reversed(a), reversed(b)):
        if x != y and x != 1 and y != 1:
            return False
    return True


def _binary(a, b, op: str, fwd, vjp_a, vjp_b) -> Tensor:
    # A plain array or scalar operand is a constant: it gets no gradient.
    const_a, const_b = not isinstance(a, Tensor), not isinstance(b, Tensor)
    a, b = as_tensor(a), as_tensor(b)
    if not _broadcastable(a.shape, b.shape):
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")
    out_data = fwd(a.data, b.data)

    def vjp(grad: Array):
        return (None if const_a else _unbroadcast(vjp_a(grad, a.data, b.data), a.shape),
                None if const_b else _unbroadcast(vjp_b(grad, a.data, b.data), b.shape))

    return _node(out_data, (a, b), vjp, op)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def _quiet_div(x, y):
    # non-finite results raise NumericsError; keep numpy's warning quiet
    with np.errstate(divide="ignore", invalid="ignore"):
        return x / y


def div(a, b) -> Tensor:
    return _binary(a, b, "div", _quiet_div,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def _check_matmul(a: Tensor, b: Tensor, op: str) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"{op} needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"{op}: inner dims differ, {a.shape} vs {b.shape}")
    if not _broadcastable(a.shape[:-2], b.shape[:-2]):
        raise DimensionError(f"{op}: batch dims differ, {a.shape} vs {b.shape}")


def _matmul_vjp(grad: Array, a: Array, b: Array, const_a: bool,
                const_b: bool) -> tuple[Array | None, Array | None]:
    def grad_a():
        return None if const_a else _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)

    def grad_b():
        return None if const_b else _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)

    # The gradient summed over broadcast axes (an affine weight) is reduced
    # before the other one is allocated: one batched temporary at a time.
    if a.shape[:-2] != grad.shape[:-2]:
        ga = grad_a()
        return ga, grad_b()
    gb = grad_b()
    return grad_a(), gb


def matmul(a, b) -> Tensor:
    """Batched matrix product: ``a[..., m, k] @ b[..., k, n]``.

    A plain-array operand is a constant and gets no gradient.
    """
    const_a, const_b = not isinstance(a, Tensor), not isinstance(b, Tensor)
    a, b = as_tensor(a), as_tensor(b)
    _check_matmul(a, b, "matmul")
    out_data = a.data @ b.data

    def vjp(grad: Array):
        return _matmul_vjp(grad, a.data, b.data, const_a, const_b)

    return _node(out_data, (a, b), vjp, "matmul")


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` as one node; bitwise equal to ``matmul(x, w) + b``.

    ``b`` is added in place to the fresh product, so the tape holds one
    output array where the composite holds two. A plain-array operand gets
    no gradient.
    """
    const_x, const_w, const_b = (not isinstance(t, Tensor) for t in (x, w, b))
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_matmul(x, w, "affine")
    out_data = x.data @ w.data
    if b.ndim > out_data.ndim or any(n not in (1, m) for n, m in
                                     zip(b.shape[::-1], out_data.shape[::-1])):
        raise DimensionError(f"affine: bias {b.shape} does not broadcast to {out_data.shape}")
    out_data += b.data

    def vjp(grad: Array):
        return _matmul_vjp(grad, x.data, w.data, const_x, const_w) + (
            None if const_b else _unbroadcast(grad, b.shape),)

    return _node(out_data, (x, w, b), vjp, "affine")


def transpose(x, axes: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def vjp(grad: Array):
        return (grad.transpose(inv),)

    return _node(x.data.transpose(axes), (x,), vjp)


def moveaxis(x, src: int, dst: int) -> Tensor:
    x = as_tensor(x)
    axes = list(range(x.ndim))
    axes.insert(dst % x.ndim, axes.pop(src % x.ndim))
    return transpose(x, axes)


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    old = x.shape

    def vjp(grad: Array):
        return (grad.reshape(old),)

    return _node(x.data.reshape(shape), (x,), vjp)


def broadcast_to(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    if not _broadcastable(x.shape, shape):
        raise DimensionError(f"cannot broadcast {x.shape} to {shape}")
    old = x.shape

    def vjp(grad: Array):
        return (_unbroadcast(grad, old),)

    return _node(np.broadcast_to(x.data, shape).copy(), (x,), vjp)


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    in_shape = x.shape

    def vjp(grad: Array):
        if axis is None:
            return (np.broadcast_to(grad, in_shape).copy(),)
        g = grad if keepdims else np.expand_dims(grad, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _node(x.data.sum(axis=axis, keepdims=keepdims), (x,), vjp, "sum")


def mean_last_axis(x) -> Tensor:
    x = as_tensor(x)
    n = x.shape[-1]
    return tsum(x, axis=-1, keepdims=True) * (1.0 / n)


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(invalid="ignore"):
        out_data = np.sqrt(x.data)

    def vjp(grad: Array):
        return (grad * 0.5 / out_data,)

    return _node(out_data, (x,), vjp, "sqrt")


def absolute(x) -> Tensor:
    x = as_tensor(x)

    def vjp(grad: Array):
        return (grad * np.sign(x.data),)

    return _node(np.abs(x.data), (x,), vjp)


def gelu(x) -> Tensor:
    """Exact (erf-based) GELU; smooth, so finite differences stay honest.

    Each pass works in one buffer (``cdf`` forward, ``pdf`` in the VJP) with
    the op order of ``0.5 * (1 + erf(x / sqrt 2))`` and
    ``grad * (cdf + x * pdf)``.
    """
    x = as_tensor(x)
    cdf = x.data * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def vjp(grad: Array):
        pdf = -0.5 * x.data
        pdf *= x.data
        np.exp(pdf, out=pdf)
        pdf *= _INV_SQRT2PI
        pdf *= x.data
        pdf += cdf
        pdf *= grad
        return (pdf,)

    return _node(x.data * cdf, (x,), vjp)


def _softmax_in_place(scaled: Array) -> Array:
    """Softmax over the last axis of ``scaled``, in place: max-shift, ``exp``
    and division, the op order of the reference formula. Finite input gives
    weights in [0, 1]: a shift past float64 is ``-inf``, whose ``exp`` is 0."""
    with np.errstate(over="ignore"):
        scaled -= scaled.max(axis=-1, keepdims=True)
    np.exp(scaled, out=scaled)
    scaled /= scaled.sum(axis=-1, keepdims=True)
    return scaled


def _softmax_vjp(grad: Array, out: Array, scale: float) -> Array:
    """Gradient of ``softmax(x * scale)`` w.r.t. ``x`` from its output, in one
    buffer with ``scale`` applied last."""
    g = grad * out
    inner = g.sum(axis=-1, keepdims=True)
    np.subtract(grad, inner, out=g)
    g *= out
    g *= scale
    return g


def softmax_last_axis(x) -> Tensor:
    """Numerically stable softmax over the last axis, in one owned buffer."""
    x = as_tensor(x)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise DimensionError(f"softmax_last_axis: empty last axis in shape {x.shape}")
    out_data = _softmax_in_place(x.data.copy())

    def vjp(grad: Array):
        return (_softmax_vjp(grad, out_data, 1.0),)

    return _node(out_data, (x,), vjp)


def attention(q, k, v, n_heads: int, axis: int) -> Tensor:
    """Multi-head softmax attention over ``axis`` of ``[..., T, N, D]`` inputs.

    ``axis`` is -2 to attend over nodes, per timestep, or -3 over time, per
    node; the output has the inputs' shape. Head ``h`` computes
    ``softmax(q kᵀ / sqrt(d_head)) v`` on its ``d_head = D / n_heads``
    columns, and the heads' outputs are concatenated.

    One node, bitwise equal to the chain of head split, ``matmul``,
    ``softmax_last_axis``, ``matmul`` and head merge, forward and VJP. The
    scores are scaled and softmaxed in their own buffer, so a call holds one
    ``[..., H, L, L]`` array. They are checked as ``'matmul'`` before the
    softmax, which would turn a ``-inf`` score into a finite 0 weight. The
    weights of finite scores lie in [0, 1] and need no check; the product
    with v is checked. A plain-array operand gets no gradient.
    """
    const_q, const_k, const_v = (not isinstance(t, Tensor) for t in (q, k, v))
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(f"q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    if q.ndim < 3:
        raise DimensionError(f"attention expects [..., T, N, D], got {q.shape}")
    if axis not in (-2, -3):
        raise ContractError(f"attention: axis must be -2 (nodes) or -3 (time), got {axis}")
    d = q.shape[-1]
    if d % n_heads != 0:
        raise DimensionError(f"feature width {d} not divisible by {n_heads} heads")
    # ``heads`` gives views with the strides the chain gave BLAS. ``merge``
    # copies into the chain's layout as well, [.., N, T, D] in memory for
    # time, which fixes the summation order of the reductions downstream.
    moved = np.moveaxis(q.data, axis, -2).shape
    split = moved[:-1] + (n_heads, d // n_heads)

    def heads(x: Array) -> Array:
        return np.swapaxes(np.moveaxis(x, axis, -2).reshape(split), -3, -2)

    def merge(x: Array) -> Array:
        return np.moveaxis(np.swapaxes(x, -3, -2).reshape(moved), -2, axis)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    k_t = np.swapaxes(kh, -1, -2)
    scale = 1.0 / np.sqrt(d // n_heads)
    w = _check_finite(qh @ k_t, "matmul", (q, k))
    w *= scale
    _softmax_in_place(w)

    def vjp(grad: Array):
        g_w, g_v = _matmul_vjp(heads(grad), w, vh, False, const_v)
        g_q, g_kt = _matmul_vjp(_softmax_vjp(g_w, w, scale), qh, k_t, const_q, const_k)
        g_k = None if g_kt is None else np.swapaxes(g_kt, -1, -2)
        return tuple(None if g is None else merge(g) for g in (g_q, g_k, g_v))

    # The last arithmetic step is the product with v.
    return _node(merge(w @ vh), (q, k, v), vjp, "matmul")


def concat_last_axis(parts: Iterable) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat_last_axis: need at least one part")
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead:
            raise DimensionError(
                f"concat_last_axis: leading shapes differ, {parts[0].shape} vs {p.shape}")
    widths = [p.shape[-1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def vjp(grad: Array):
        return tuple(np.split(grad, splits, axis=-1))

    return _node(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), vjp)


def slice_last_axis(x, start: int, stop: int) -> Tensor:
    x = as_tensor(x)
    if not (0 <= start <= stop <= x.shape[-1]):
        raise DimensionError(
            f"slice_last_axis: [{start}:{stop}] out of range for width {x.shape[-1]}")
    in_shape = x.shape

    def vjp(grad: Array):
        full = np.zeros(in_shape)
        full[..., start:stop] = grad
        return (full,)

    # A view: ``x`` is on the tape already and tensor data is never mutated.
    return _node(x.data[..., start:stop], (x,), vjp)


def gather_rows(table, ids: Array) -> Tensor:
    """Embedding lookup: ``table[v, d]`` indexed by an integer array of ids.

    Output shape is ``ids.shape + (d,)``; the backward pass scatter-adds into
    the table so unused rows receive exactly zero gradient.
    """
    table = as_tensor(table)
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise DimensionError(f"gather_rows: table must be 2-d, got {table.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError("gather_rows: ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DimensionError(
            f"gather_rows: id out of range [0, {table.shape[0]}) in lookup")
    n_rows = table.shape[0]

    def vjp(grad: Array):
        g = np.zeros((n_rows, table.shape[1]))
        np.add.at(g, ids.reshape(-1), grad.reshape(-1, table.shape[1]))
        return (g,)

    return _node(table.data[ids], (table,), vjp)


def mean_std_last_axis(x, eps: float = 1e-5) -> tuple[Tensor, Tensor]:
    """Per-slice mean and std over the last axis.

    Uses population (biased) variance; ``std = sqrt(var + eps)`` so it is
    strictly positive even on constant slices.
    """
    x = as_tensor(x)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise DimensionError(f"mean_std_last_axis: empty last axis in {x.shape}")
    if eps <= 0:
        raise ContractError("mean_std_last_axis: eps must be > 0")
    mean = mean_last_axis(x)
    centered = x - mean
    var = mean_last_axis(centered * centered)
    std = sqrt(var + eps)
    return mean, std


# -- reverse pass ------------------------------------------------------------


def _consumed(grad: Array):
    raise ContractError("this node's tape was consumed by an earlier backward")


def backward(loss: Tensor, params: Mapping[str, Tensor]) -> dict[str, Array]:
    """Gradient of a scalar ``loss`` with respect to each named parameter.

    Parameters not reachable from ``loss`` get a zero gradient of matching
    shape. One rule decides what is differentiated: a node's VJP runs once a
    gradient has reached it, and a parent keeps its gradient only when it is
    an interior node or a requested parameter. Interior gradients are dropped
    once used; only the parameters' gradients are kept, leaves or not.

    The tape is consumed once: each interior node, once visited, loses its
    parents and its VJP (a stub that raises takes its place), so every
    forward array is freed after the last VJP that reads it. ``backward``
    raises ``ContractError`` on a node with a VJP slot but no parents: one
    consumed by an earlier ``backward`` or built under ``no_tape``.
    """
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._vjp is not None and not node._parents:
            why = ("was consumed by an earlier backward; build the loss again to "
                   "differentiate it" if node._vjp is _consumed else
                   "was never recorded: the node was built under no_tape")
            raise ContractError(f"backward: the tape through a {node.shape} node {why}")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    # Parents precede children in ``topo``. Every child of ``topo[i]`` comes
    # after it, so once the walk has cleared those children and its own
    # slot, nothing on the tape holds the node.
    wanted = {id(p) for p in params.values()}
    grads: dict[int, Array] = {id(loss): np.ones(loss.shape)}
    for i in range(len(topo) - 1, -1, -1):
        node, topo[i] = topo[i], None
        if not node._parents:
            continue
        key = id(node)
        if key in grads:
            grad = grads[key] if key in wanted else grads.pop(key)
            for parent, pgrad in zip(node._parents, node._vjp(grad)):
                pkey = id(parent)
                if pgrad is None or not (parent._parents or pkey in wanted):
                    continue
                grads[pkey] = grads[pkey] + pgrad if pkey in grads else pgrad
        node._parents, node._vjp = (), _consumed

    record: dict[str, Array] = {}
    for name, p in params.items():
        g = grads.get(id(p))
        record[name] = np.zeros(p.shape) if g is None else np.asarray(g)
        if record[name].shape != p.shape:
            raise ContractError(
                f"backward: gradient shape {record[name].shape} != param "
                f"shape {p.shape} for '{name}'")
    return record


def relative_error(a: Array, b: Array) -> float:
    """Max elementwise relative error with a unit floor on the denominator."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
