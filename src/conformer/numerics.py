"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` is an array and a tape record (``_Record``). Each primitive makes
its output with ``_node``, which checks it for NaN/Inf (``NumericsError``) and
records the primitive's VJP; ``backward`` walks the records, and ``no_tape``
records nothing, for inference. Large batched ops split over threads
(``_rowwise``) with every byte of the whole op. Fused nodes (``affine``,
``gelu_affine``, ``attention``, ``gln``, ``dropout``) replace composites of
the model, bitwise in value and in every gradient, and keep less on the tape.
"""

from __future__ import annotations

import contextvars
import math
import os
import queue
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ContractError, DimensionError, NumericsError

Array = np.ndarray

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# -- intra-op threads ---------------------------------------------------------

# An op with fewer output elements than this runs whole: below it, handing a
# slab to a worker costs more than the worker saves.
_SPLIT_FLOOR = 1 << 15

# Elements per block of a pass that works a cache-sized block at a time.
_BLOCK = 1 << 15

_POOL_LOCK = threading.Lock()
_POOL: tuple | None = None  # (slabs, task queue), made once per process
_IN_SLAB = threading.local()


def _serve(tasks: queue.SimpleQueue) -> None:
    """A worker: run slabs until a ``None`` task retires it. Each task is
    dropped before the next wait, so no op's arrays outlive the op."""
    while (task := tasks.get()) is not None:
        context, run, i, replies = task
        replies.put((i, context.run(run, i)))
        del task, context, run, replies


def _pool() -> tuple[int, queue.SimpleQueue | None]:
    """Slabs per split op, and the task queue of the workers that run all but
    the caller's slab.

    The count is ``CONFORMER_THREADS``, by default the CPUs this process may
    use. It is read, and the workers started, once per process; a bad value
    raises ``ConfigError`` at every call.
    """
    global _POOL
    if _POOL is None:
        with _POOL_LOCK:
            if _POOL is None:
                raw = os.environ.get("CONFORMER_THREADS")
                if raw is None:
                    n = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                         else os.cpu_count() or 1)
                else:
                    try:
                        n = int(raw)
                    except ValueError:
                        n = 0
                    if n < 1:
                        raise ConfigError(
                            f"CONFORMER_THREADS must be an integer >= 1, got {raw!r}")
                tasks = queue.SimpleQueue() if n > 1 else None
                for _ in range(n - 1):
                    threading.Thread(target=_serve, args=(tasks,), daemon=True).start()
                _POOL = (n, tasks)
    return _POOL


def thread_count() -> int:
    """The threads a large batched op splits over, from ``CONFORMER_THREADS``;
    raises ``ConfigError`` for a value that is not an integer >= 1."""
    return _pool()[0]


def _forget_pool() -> None:
    """A forked child has none of its parent's workers: it starts its own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _slab_count(rows: int, size: int) -> int:
    """Slabs to split an op's axis 0 into; 1 runs it whole, as does a call
    made from inside a slab."""
    if rows < 2 or size < _SPLIT_FLOOR or getattr(_IN_SLAB, "on", False):
        return 1
    return min(_pool()[0], rows)


def _over_slabs(work: Callable[[slice], object], rows: int, k: int) -> list:
    """``work(slice(lo, hi))`` for ``k`` contiguous slabs of ``rows`` rows,
    the first in this thread; the results in slab order. A worker runs its
    slab in a copy of this thread's context, so under its ``np.errstate``, a
    context variable from numpy 2 on, the version this package requires.
    Once every slab has ended, the first to raise, in slab order, raises
    here."""
    bounds = [rows * i // k for i in range(k + 1)]

    def run(i: int) -> tuple[bool, object]:
        _IN_SLAB.on = True
        try:
            return True, work(slice(bounds[i], bounds[i + 1]))
        except Exception as exc:  # raised in the caller's thread below
            return False, exc
        finally:
            _IN_SLAB.on = False

    replies = queue.SimpleQueue()
    tasks = _pool()[1]
    for i in range(1, k):
        tasks.put((contextvars.copy_context(), run, i, replies))
    results = [run(0)] + [None] * (k - 1)
    for _ in range(1, k):
        i, result = replies.get()
        results[i] = result
    for ok, value in results:
        if not ok:
            raise value
    return [value for _, value in results]


def _c_ordered(x: Array, core: int) -> bool:
    """Whether numpy lays out a result of ``x`` in C order: the strides of its
    axes longer than 1, core axes excepted, do not increase."""
    if x.flags.c_contiguous:
        return True
    strides = [s for s, n in zip(x.strides[:max(x.ndim - core, 0)], x.shape) if n > 1 and s]
    return all(s > 0 for s in strides) and strides == sorted(strides, reverse=True)


def _rowwise(fn: Callable, xs: Sequence[Array], *shapes: tuple, core: int = 0):
    """``fn(*xs)``, computed in slabs of axis 0 of its outputs ``shapes``.

    Each slab calls ``fn`` on the slab of every operand that spans axis 0
    with ``out=`` its slab of each output, preallocated C-contiguous (a
    tuple for several outputs). An op runs whole, as ``fn(*xs)``, unless its
    axis 0 is a batch axis (``core`` trailing axes excluded) of at least two
    rows, it has ``_SPLIT_FLOOR`` output elements, and numpy would lay its
    result out in C order anyway: so the bytes and the layout, which fixes the
    summation order of reductions downstream, are those of the whole op.
    """
    lead = shapes[0]
    rows = lead[0] if len(lead) > core else 0
    k = _slab_count(rows, math.prod(lead))
    if k == 1 or not all(_c_ordered(x, core) for x in xs):
        return fn(*xs)
    outs = [np.empty(shape) for shape in shapes]

    def work(s: slice) -> None:
        part = tuple(out[s] for out in outs)
        fn(*(x[s] if x.ndim == len(lead) and x.shape[0] == rows else x for x in xs),
           out=part if len(part) > 1 else part[0])

    _over_slabs(work, rows, k)
    return tuple(outs) if len(outs) > 1 else outs[0]


def _product_shape(a: tuple, b: tuple) -> tuple:
    """The shape of ``a @ b`` for operands of shapes ``a`` and ``b``."""
    return np.broadcast_shapes(a[:-2], b[:-2]) + (a[-2], b[-1])


def _matmul(a: Array, b: Array) -> Array:
    """``a @ b``, split over the batch axis."""
    return _rowwise(np.matmul, (a, b), _product_shape(a.shape, b.shape), core=2)


def _check_finite(arr: Array, op: str, inputs: tuple = ()) -> Array:
    k = _slab_count(arr.shape[0] if arr.ndim else 0, arr.size)
    if not (np.all(np.isfinite(arr)) if k == 1 else
            all(_over_slabs(lambda s: np.isfinite(arr[s]).all(), arr.shape[0], k))):
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
    """Build nodes without parents in this thread, for inference: a node keeps
    its data and its finiteness check, and a stub that raises stands in for its
    VJP, so each intermediate is freed as soon as Python drops it."""
    was_off = getattr(_TAPE, "off", False)
    _TAPE.off = True
    try:
        yield
    finally:
        _TAPE.off = was_off


def _untaped(grad: Array):
    raise ContractError("this node was built under no_tape and has no VJP")


class _Record:
    """A node's place on the tape: its parents' records, the ``vjp`` callback
    mapping its output gradient to per-parent gradients, and its shape. It
    holds no array, and the callback only the arrays it reads: an output that
    no VJP reads is freed when its ``Tensor`` is dropped, before ``backward``."""

    __slots__ = ("_parents", "_vjp", "shape")

    def __init__(self, parents: tuple, vjp: Callable | None, shape: tuple[int, ...]):
        self._parents, self._vjp, self.shape = parents, vjp, shape


class Tensor:
    """Immutable dense array node in the autodiff graph.

    ``Tensor(values)`` builds a leaf; ``_node`` builds every interior node.
    ``_parents`` and ``_vjp`` read the node's tape record. ``data`` must never
    be mutated after construction.
    """

    __slots__ = ("data", "_record")

    def __init__(self, values):
        self.data = _check_finite(np.asarray(values, dtype=np.float64), "tensor")
        self._record = _Record((), None, self.data.shape)

    @property
    def _parents(self) -> tuple[_Record, ...]:
        return self._record._parents

    @property
    def _vjp(self) -> Callable | None:
        return self._record._vjp

    @_vjp.setter
    def _vjp(self, vjp: Callable) -> None:
        self._record._vjp = vjp

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
    """The output of a primitive, recorded with its parents' records; under
    ``no_tape`` it keeps no parents.

    A named ``op`` is checked for finiteness. ``op=None`` skips the check, for
    a structural primitive, which only rearranges values of finite parents,
    or for one whose output from finite input is finite: ``softmax_last_axis``
    lies in [0, 1], and ``gelu`` and ``absolute`` are at most ``|x|``.
    """
    node = Tensor.__new__(Tensor)
    # A full ``tsum`` returns a numpy scalar; the node holds a 0-d array.
    node.data = np.asarray(data, dtype=np.float64)
    if op is not None:
        _check_finite(node.data, op, parents)
    if getattr(_TAPE, "off", False):
        node._record = _Record((), _untaped, node.data.shape)
    else:
        node._record = _Record(tuple(p._record for p in parents), vjp, node.data.shape)
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


def _check_fits(op: str, name: str, shape: tuple, target: tuple) -> None:
    """Raise ``DimensionError`` unless ``shape`` broadcasts to ``target`` without growing it."""
    if len(shape) > len(target) or any(n not in (1, m) for n, m in
                                       zip(shape[::-1], target[::-1])):
        raise DimensionError(f"{op}: {name} {shape} does not broadcast to {target}")


def _binary(a, b, op: str, fwd, vjp_a, vjp_b, reads=((), ())) -> Tensor:
    """``fwd(a, b)`` as a node whose VJP maps ``(grad, x, y)`` to each
    operand's gradient by ``vjp_a`` and ``vjp_b``.

    ``reads`` lists the operands, 0 for ``x`` and 1 for ``y``, that each of
    the two reads. The VJP keeps an operand's data only while a gradient that
    reads it is wanted, and passes ``None`` in its place otherwise.
    """
    # A plain array or scalar operand is a constant: it gets no gradient.
    const_a, const_b = not isinstance(a, Tensor), not isinstance(b, Tensor)
    a, b = as_tensor(a), as_tensor(b)
    if not _broadcastable(a.shape, b.shape):
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")
    out_data = _rowwise(fwd, (a.data, b.data), np.broadcast_shapes(a.shape, b.shape))
    kept = set(() if const_a else reads[0]) | set(() if const_b else reads[1])
    x = a.data if 0 in kept else None
    y = b.data if 1 in kept else None
    shape_a, shape_b = a.shape, b.shape

    def vjp(grad: Array):
        return (None if const_a else _unbroadcast(vjp_a(grad, x, y), shape_a),
                None if const_b else _unbroadcast(vjp_b(grad, x, y), shape_b))

    return _node(out_data, (a, b), vjp, op)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", np.add,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", np.subtract,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", np.multiply,
                   lambda g, x, y: g * y, lambda g, x, y: g * x, reads=((1,), (0,)))


def _quiet_div(x, y, out=None):
    # non-finite results raise NumericsError; keep numpy's warning quiet
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(x, y, out=out)


def div(a, b) -> Tensor:
    return _binary(a, b, "div", _quiet_div,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y),
                   reads=((1,), (0, 1)))


def _check_matmul(a: Tensor, b: Tensor, op: str) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"{op} needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"{op}: inner dims differ, {a.shape} vs {b.shape}")
    if not _broadcastable(a.shape[:-2], b.shape[:-2]):
        raise DimensionError(f"{op}: batch dims differ, {a.shape} vs {b.shape}")


def _matmul_vjp(grad: Array, a: Array | None, b: Array | None, shape_a: tuple,
                shape_b: tuple) -> tuple[Array | None, Array | None]:
    """The gradients of ``a @ b`` for operands of shapes ``shape_a`` and
    ``shape_b``. Only ``b``'s gradient reads ``a``, and only ``a``'s reads
    ``b``: ``a=None`` means ``b`` gets no gradient, and ``b=None`` ``a``."""
    def grad_a():
        return None if b is None else _unbroadcast(_matmul(grad, np.swapaxes(b, -1, -2)),
                                                   shape_a)

    def grad_b():
        return None if a is None else _unbroadcast(_matmul(np.swapaxes(a, -1, -2), grad),
                                                   shape_b)

    # The gradient summed over broadcast axes (an affine weight) is reduced
    # before the other one is allocated: one batched temporary at a time.
    if shape_a[:-2] != grad.shape[:-2]:
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
    out_data = _matmul(a.data, b.data)
    kept_a, kept_b = None if const_b else a.data, None if const_a else b.data
    shape_a, shape_b = a.shape, b.shape

    def vjp(grad: Array):
        return _matmul_vjp(grad, kept_a, kept_b, shape_a, shape_b)

    return _node(out_data, (a, b), vjp, "matmul")


def _affine_shape(x: Tensor, w: Tensor, b: Tensor, op: str) -> tuple:
    """The shape of ``x @ w + b``, once ``op``'s operand shapes are checked."""
    _check_matmul(x, w, op)
    shape = _product_shape(x.shape, w.shape)
    _check_fits(op, "bias", b.shape, shape)
    return shape


def _affine_product(x: Array, w: Array, b: Array, out: Array | None = None) -> Array:
    """``x @ w + b``, with ``b`` added in place to the fresh product."""
    out = np.matmul(x, w, out=out)
    out += b
    return out


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` as one node; bitwise equal to ``matmul(x, w) + b``.

    ``b`` is added in place to the fresh product, so the tape holds one
    output array where the composite holds two. A plain-array operand gets
    no gradient.
    """
    const_x, const_w, const_b = (not isinstance(t, Tensor) for t in (x, w, b))
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    shape = _affine_shape(x, w, b, "affine")
    out_data = _rowwise(_affine_product, (x.data, w.data, b.data), shape, core=2)
    kept_x, kept_w = None if const_w else x.data, None if const_x else w.data
    shape_x, shape_w, shape_b = x.shape, w.shape, b.shape

    def vjp(grad: Array):
        return _matmul_vjp(grad, kept_x, kept_w, shape_x, shape_w) + (
            None if const_b else _unbroadcast(grad, shape_b),)

    return _node(out_data, (x, w, b), vjp, "affine")


def transpose(x, axes: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    try:
        data = x.data.transpose(axes)
    except ValueError as exc:  # numpy's AxisError is one too
        raise DimensionError(
            f"transpose: axes {axes} are no permutation of the axes of {x.shape}") from exc
    inv = tuple(np.argsort(axes))

    def vjp(grad: Array):
        return (grad.transpose(inv),)

    return _node(data, (x,), vjp)


def moveaxis(x, src: int, dst: int) -> Tensor:
    x = as_tensor(x)
    if not (-x.ndim <= src < x.ndim and -x.ndim <= dst < x.ndim):
        raise DimensionError(f"moveaxis: axis {src} or {dst} out of range for {x.shape}")
    axes = list(range(x.ndim))
    axes.insert(dst % x.ndim, axes.pop(src % x.ndim))
    return transpose(x, axes)


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    old = x.shape
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"reshape: cannot reshape {old} to {shape}") from exc

    def vjp(grad: Array):
        return (grad.reshape(old),)

    return _node(data, (x,), vjp)


def broadcast_to(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    _check_fits("broadcast_to", "input", x.shape, shape)
    old = x.shape

    def vjp(grad: Array):
        return (_unbroadcast(grad, old),)

    return _node(np.broadcast_to(x.data, shape).copy(), (x,), vjp)


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    in_shape = x.shape

    def vjp(grad: Array):
        g = grad if keepdims or axis is None else np.expand_dims(grad, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    try:
        data = x.data.sum(axis=axis, keepdims=keepdims)
    except ValueError as exc:  # numpy's AxisError is one too
        raise DimensionError(f"tsum: axis {axis} out of range for {x.shape}") from exc
    return _node(data, (x,), vjp, "sum")


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(invalid="ignore"):
        out_data = np.sqrt(x.data)

    def vjp(grad: Array):
        return (grad * 0.5 / out_data,)

    return _node(out_data, (x,), vjp, "sqrt")


def absolute(x) -> Tensor:
    x = as_tensor(x)
    x_data = x.data

    def vjp(grad: Array):
        return (grad * np.sign(x_data),)

    return _node(np.abs(x.data), (x,), vjp)


def _add_x_pdf(x: Array, cdf: Array) -> None:
    """``cdf += x * pdf(x)`` in place, turning GELU's ``cdf`` into its slope.

    It runs over blocks of whole rows of axis 0, about ``_BLOCK`` elements
    each, so one small ``pdf`` temporary is live at a time, with the op order
    of ``cdf + x * (exp(-0.5 * x * x) / sqrt(2 pi))``. Past ``|x|`` about
    1.3e154, ``x * x`` overflows to ``inf``: ``pdf`` is then 0 and the slope
    ``cdf``, so the overflow is not reported. A 0-d input is one row."""
    x, cdf = np.atleast_1d(x, cdf)  # views: the add still lands in ``cdf``
    step = max(1, _BLOCK // (math.prod(x.shape[1:]) or 1))
    with np.errstate(over="ignore"):
        for lo in range(0, x.shape[0], step):
            xb = x[lo:lo + step]
            pdf = np.multiply(-0.5, xb)
            pdf *= xb
            np.exp(pdf, out=pdf)
            pdf *= _INV_SQRT2PI
            pdf *= xb
            cdf[lo:lo + step] += pdf


def _gelu_cdf(x: Array, out: Array | None = None) -> Array:
    """GELU's ``cdf``, ``0.5 * (1 + erf(x / sqrt 2))``, in one buffer."""
    cdf = np.asarray(np.multiply(x, _INV_SQRT2, out=out))  # a 0-d product is a scalar
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_value(x: Array, out: Array | None = None) -> Array:
    """GELU's output ``x * cdf``, written over ``cdf``'s buffer."""
    cdf = _gelu_cdf(x, out)
    return np.multiply(x, cdf, out=cdf)


def _gelu_value_and_slope(x: Array, out=(None, None)) -> tuple[Array, Array]:
    """GELU's output and its slope ``cdf + x * pdf``."""
    cdf = _gelu_cdf(x, out[1])
    y = np.multiply(x, cdf, out=out[0])
    _add_x_pdf(x, cdf)
    return y, cdf


def gelu(x) -> Tensor:
    """Exact (erf-based) GELU; smooth, so finite differences stay honest.

    When taped, the forward pass turns its ``cdf`` buffer into the slope
    (``_add_x_pdf``), the one array the VJP keeps; under ``no_tape`` no slope
    is computed, and the output takes ``cdf``'s buffer.
    """
    x = as_tensor(x)
    if getattr(_TAPE, "off", False):
        return _node(_rowwise(_gelu_value, (x.data,), x.shape), (x,), _untaped)
    out_data, slope = _rowwise(_gelu_value_and_slope, (x.data,), x.shape, x.shape)

    def vjp(grad: Array):
        return (_rowwise(np.multiply, (grad, slope), slope.shape),)

    return _node(out_data, (x,), vjp)


def gelu_affine(h, w, b) -> Tensor:
    """``gelu(h) @ w + b`` as one node; bitwise equal to
    ``affine(gelu(h), w, b)``, forward and VJP.

    The tape keeps ``h``, where the composite keeps GELU's slope and its
    output: the VJP rebuilds both from ``h`` with the forward pass's ops,
    the output for ``w``'s gradient and the slope for ``h``'s. A plain-array
    operand gets no gradient.
    """
    const_h, const_w, const_b = (not isinstance(t, Tensor) for t in (h, w, b))
    h, w, b = as_tensor(h), as_tensor(w), as_tensor(b)
    shape = _affine_shape(h, w, b, "gelu_affine")
    hidden = _rowwise(_gelu_value, (h.data,), h.shape)
    out_data = _rowwise(_affine_product, (hidden, w.data, b.data), shape, core=2)
    del hidden
    kept_h = None if const_h and const_w else h.data
    kept_w = None if const_h else w.data
    shape_h, shape_w, shape_b = h.shape, w.shape, b.shape

    def vjp(grad: Array):
        g_h = g_w = None
        if kept_h is not None:
            hidden, slope = _rowwise(_gelu_value_and_slope, (kept_h,), shape_h, shape_h)
            g_w = _matmul_vjp(grad, None if const_w else hidden, None, shape_h, shape_w)[1]
            del hidden
            if kept_w is not None:
                g_h = _matmul_vjp(grad, None, kept_w, shape_h, shape_w)[0]
                g_h *= slope
        return g_h, g_w, None if const_b else _unbroadcast(grad, shape_b)

    return _node(out_data, (h, w, b), vjp, "gelu_affine")


def _softmax_in_place(scaled: Array) -> Array:
    """Softmax over the last axis of ``scaled``, in place: max-shift, ``exp``
    and division, the op order of the reference formula. Finite input gives
    weights in [0, 1]: a shift past float64 is ``-inf``, whose ``exp`` is 0."""
    with np.errstate(over="ignore"):
        scaled -= scaled.max(axis=-1, keepdims=True)
    np.exp(scaled, out=scaled)
    scaled /= scaled.sum(axis=-1, keepdims=True)
    return scaled


def _softmax_vjp(grad: Array, y: Array, scale: float) -> Array:
    """Gradient of ``softmax(x * scale)`` w.r.t. ``x`` from its output ``y``,
    in one buffer with ``scale`` applied last."""
    def rows(grad: Array, y: Array, out: Array | None = None) -> Array:
        g = np.multiply(grad, y, out=out)
        inner = g.sum(axis=-1, keepdims=True)
        np.subtract(grad, inner, out=g)
        g *= y
        g *= scale
        return g

    return _rowwise(rows, (grad, y), np.broadcast_shapes(grad.shape, y.shape))


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
    ``[..., H, L, L]`` array, and the tape none: the VJP recomputes the
    weights with the same ops over the same slabs, so bitwise. The scores are
    checked as ``'matmul'`` before the softmax, which would turn a ``-inf``
    score into a finite 0 weight. The weights of finite scores lie in [0, 1]
    and need no check; the product with v is checked. A plain-array operand
    gets no gradient.
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
    if n_heads < 1:
        raise ContractError(f"attention: n_heads must be >= 1, got {n_heads} for inputs {q.shape}")
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
    w_shape = qh.shape[:-1] + (qh.shape[-2],)

    def softmaxed(w: Array) -> Array:
        w *= scale
        return _softmax_in_place(w)

    def core(qh: Array, k_t: Array, vh: Array, out=(None, None)) -> tuple[Array, Array]:
        w = softmaxed(_check_finite(np.matmul(qh, k_t, out=out[0]), "matmul", (q, k)))
        return w, np.matmul(w, vh, out=out[1])

    def weights(qh: Array, k_t: Array, out: Array | None = None) -> Array:
        return softmaxed(np.matmul(qh, k_t, out=out))

    wv = _rowwise(core, (qh, k_t, vh), w_shape, qh.shape, core=2)[1]

    # The VJP keeps q, k and v, and recomputes the weights from q and k.
    def vjp(grad: Array):
        w = _rowwise(weights, (qh, k_t), w_shape, core=2)
        g_w, g_v = _matmul_vjp(heads(grad), None if const_v else w, vh, w_shape, vh.shape)
        g_q, g_kt = _matmul_vjp(_softmax_vjp(g_w, w, scale), None if const_k else qh,
                                None if const_q else k_t, qh.shape, k_t.shape)
        g_k = None if g_kt is None else np.swapaxes(g_kt, -1, -2)
        return tuple(None if g is None else merge(g) for g in (g_q, g_k, g_v))

    # The last arithmetic step is the product with v.
    return _node(merge(wv), (q, k, v), vjp, "matmul")


def concat_last_axis(parts: Iterable) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat_last_axis: need at least one part")
    if any(p.ndim == 0 for p in parts):
        raise DimensionError(
            f"concat_last_axis: a 0-d part has no last axis, shapes {[p.shape for p in parts]}")
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead:
            raise DimensionError(
                f"concat_last_axis: leading shapes differ, {parts[0].shape} vs {p.shape}")
    widths = [p.shape[-1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def vjp(grad: Array):
        return tuple(np.split(grad, splits, axis=-1))

    def join(*xs: Array, out: Array | None = None) -> Array:
        return np.concatenate(xs, axis=-1, out=out)

    data = _rowwise(join, [p.data for p in parts], lead + (sum(widths),))
    return _node(data, tuple(parts), vjp)


def slice_last_axis(x, start: int, stop: int) -> Tensor:
    x = as_tensor(x)
    if x.ndim == 0 or not 0 <= start <= stop <= x.shape[-1]:
        raise DimensionError(
            f"slice_last_axis: [{start}:{stop}] out of range for shape {x.shape}")
    in_shape = x.shape

    def vjp(grad: Array):
        full = np.zeros(in_shape)
        full[..., start:stop] = grad
        return (full,)

    # A copy, not a view: a narrow slice, such as a generator's alpha, would
    # otherwise keep the whole of ``x`` alive for as long as it lives.
    return _node(x.data[..., start:stop].copy(order="K"), (x,), vjp)


def gather_rows(table, ids: Array) -> Tensor:
    """Embedding lookup: ``table[v, d]`` indexed by an integer array of ids.

    Output shape is ``ids.shape + (d,)``; the backward pass sums the rows of
    the gradient into the table, one ``np.bincount`` per column, so unused
    rows receive exactly zero gradient. ``bincount`` adds each column's
    values in id order from 0.0, as ``np.add.at`` would, so bitwise.
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
    n_rows, width = table.shape

    def vjp(grad: Array):
        # Flattened here, not when taped: calendar ids are broadcast views.
        flat = ids.reshape(-1).astype(np.intp, copy=False)  # bincount takes no uint64
        rows = grad.reshape(flat.size, width)
        g = np.zeros((n_rows, width))
        for j in range(width):
            g[:, j] = np.bincount(flat, weights=rows[:, j], minlength=n_rows)
        return (g,)

    return _node(table.data[ids], (table,), vjp)


def gln(x, gamma, beta, eps: float) -> Tensor:
    """Guided layer norm ``gamma * (x - mean) / sqrt(var + eps) + beta`` over
    the last axis as one node; bitwise equal, forward and VJP, to its
    composite of ``tsum``, ``mul``, ``sub``, ``add``, ``sqrt`` and ``div``
    nodes, whose ops it computes in their order, in slabs of axis 0.

    The composite computes ``x - mean`` twice, so ``x`` gets three separate
    gradients, from the normalizing path's ``sub``, the variance path's
    ``sub`` and the mean's ``tsum``, in the order its reverse pass adds them.
    The parents are ``(gamma, x, x, x, beta)``: ``backward`` then reaches
    beta's, x's and gamma's ancestors in the composite's order, so every
    gradient they share is summed in the composite's order too, also where
    beta is a leaf (``no-beta``). The VJP keeps ``c = x - mean``, ``std``
    and ``gamma`` and rebuilds the normalized input ``c / std``, where the
    composite keeps both ``x - mean`` arrays and the normalized input.
    ``std`` and the output are checked: any non-finite intermediate of the
    composite makes one of them non-finite. A plain-array operand gets no
    gradient.
    """
    const_x, const_g, const_b = (not isinstance(t, Tensor) for t in (x, gamma, beta))
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise DimensionError(f"gln: empty last axis in {x.shape}")
    if eps <= 0:
        raise ContractError("gln: eps must be > 0")
    _check_fits("gln", "gamma", gamma.shape, x.shape)
    _check_fits("gln", "beta", beta.shape, x.shape)
    inv_n = 1.0 / x.shape[-1]

    def normalize(x: Array, gamma: Array, beta: Array, out=(None, None, None)):
        y, c, std = out
        std = x.sum(axis=-1, keepdims=True, out=std)
        std *= inv_n  # the mean
        c = np.subtract(x, std, out=c)
        y = np.multiply(c, c, out=y)
        y.sum(axis=-1, keepdims=True, out=std)
        std *= inv_n  # the variance
        std += eps
        with np.errstate(invalid="ignore"):
            np.sqrt(std, out=std)
        _quiet_div(c, std, out=y)
        y *= gamma
        y += beta
        return y, c, std

    operands = (x.data, gamma.data, beta.data)
    shapes = (x.shape, x.shape, x.shape[:-1] + (1,))
    # A 1-d input is one row: its axis 0 is the feature axis.
    y, c, std = (normalize(*operands) if x.ndim == 1 else
                 _rowwise(normalize, operands, *shapes))
    _check_finite(std, "gln", (x, gamma, beta))
    kept_gamma = None if const_x else gamma.data
    shape_g, shape_b = gamma.shape, beta.shape

    def vjp(grad: Array):
        g_beta = None if const_b else _unbroadcast(grad, shape_b)
        g_gamma = None
        if not const_g:
            g_gamma = _quiet_div(c, std)
            g_gamma *= grad
            g_gamma = _unbroadcast(g_gamma, shape_g)
        if const_x:
            return g_gamma, None, None, None, g_beta
        # Back through the normalizing path's ``c / std``, then ``std``, the
        # variance's mean and ``c * c``, then the mean, each in the
        # composite's op order.
        g_n = grad * kept_gamma
        g_c2 = g_n / std
        g_n = np.negative(g_n, out=g_n)
        g_n *= c
        g_n /= std * std
        g_var = _unbroadcast(g_n, std.shape)
        del g_n
        g_var *= 0.5
        g_var /= std
        g_var *= inv_n
        g_c1 = c * g_var
        g_c1 += g_c1
        g_mean = _unbroadcast(-g_c2, std.shape) + _unbroadcast(-g_c1, std.shape)
        g_mean *= inv_n
        return g_gamma, g_c2, g_c1, np.broadcast_to(g_mean, c.shape).copy(), g_beta

    return _node(y, (gamma, x, x, x, beta), vjp, "gln")


def dropout(x, kept: Array, keep: float) -> Tensor:
    """``x * (kept / keep)`` for a boolean draw ``kept``; bitwise equal to
    ``x * mask`` with the float mask ``kept / keep``. The VJP keeps the
    boolean ``kept``, an eighth of the mask's bytes, and rebuilds the mask.
    """
    x, kept = as_tensor(x), np.asarray(kept)
    if kept.dtype != np.bool_ or kept.shape != x.shape:
        raise ContractError(
            f"dropout: kept must be a boolean array of shape {x.shape}, "
            f"got {kept.dtype} {kept.shape}")

    def scaled(x: Array, kept: Array, out: Array | None = None) -> Array:
        return np.multiply(x, kept / keep, out=out)

    def vjp(grad: Array):
        return (_rowwise(scaled, (grad, kept), grad.shape),)

    return _node(_rowwise(scaled, (x.data, kept), x.shape), (x,), vjp, "dropout")


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

    The walk is over tape records, and gradients are keyed by record. The
    tape is consumed once: each interior record, once visited, loses its
    parents and its VJP (a stub that raises takes its place), so every
    forward array is freed after the last VJP that reads it. ``backward``
    raises ``ContractError`` on a node with a VJP slot but no parents: one
    consumed by an earlier ``backward`` or built under ``no_tape``.
    """
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")

    topo: list[_Record] = []
    seen: set[int] = set()
    stack: list[tuple[_Record, bool]] = [(loss._record, False)]
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
    wanted = {id(p._record) for p in params.values()}
    grads: dict[int, Array] = {id(loss._record): np.ones(loss.shape)}
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
                grads[pkey] = (_rowwise(np.add, (grads[pkey], pgrad), pgrad.shape)
                               if pkey in grads else pgrad)
        node._parents, node._vjp = (), _consumed

    result: dict[str, Array] = {}
    for name, p in params.items():
        g = grads.get(id(p._record))
        result[name] = np.zeros(p.shape) if g is None else np.asarray(g)
        if result[name].shape != p.shape:
            raise ContractError(
                f"backward: gradient shape {result[name].shape} != param "
                f"shape {p.shape} for '{name}'")
    return result


def relative_error(a: Array, b: Array) -> float:
    """Max elementwise relative error with a unit floor on the denominator."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
