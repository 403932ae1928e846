"""Road-network graph handling: normalized propagation operator and K-hop
propagation with hop-wise feature concatenation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .errors import ContractError, DimensionError, ValidationError

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class GraphSpec:
    """Weighted directed road graph: ``n_nodes`` nodes and an edge list.

    Weights are finite and non-negative. The edges are also kept as read-only
    ``src``/``dst``/``weight`` arrays, which the operator scatters in one store.
    """

    n_nodes: int
    edges: tuple[Edge, ...] = field(default_factory=tuple)
    _arrays: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValidationError(f"n_nodes must be >= 1, got {self.n_nodes}")
        object.__setattr__(self, "edges", tuple(
            (int(s), int(d), float(w)) for s, d, w in self.edges))
        seen: set[tuple[int, int]] = set()
        for src, dst, weight in self.edges:
            if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
                raise ValidationError(
                    f"edge ({src}, {dst}) outside node range [0, {self.n_nodes})")
            if not math.isfinite(weight):
                raise ValidationError(f"edge ({src}, {dst}) has non-finite weight {weight}")
            if weight < 0:
                raise ValidationError(f"edge ({src}, {dst}) has negative weight {weight}")
            if (src, dst) in seen:
                raise ValidationError(f"duplicate edge ({src}, {dst})")
            seen.add((src, dst))
        columns = tuple(zip(*self.edges)) or ((), (), ())
        arrays = tuple(np.array(col, dtype=dtype) for col, dtype in
                       zip(columns, (np.int64, np.int64, np.float64)))
        arrays[2][:] += 0.0  # a -0.0 weight becomes +0.0, as in ``A + I``
        for array in arrays:
            array.setflags(write=False)
        object.__setattr__(self, "_arrays", arrays)


def normalize_adjacency(g: GraphSpec) -> np.ndarray:
    """The propagation operator ``D^-1 (A + I)`` of ``g``, as a read-only
    ``[N, N]`` array built in one buffer.

    The self-loops make every degree at least 1, so each row sums to 1 with
    entries in [0, 1]. A node whose weights sum past float64 is refused.
    """
    if not isinstance(g, GraphSpec):
        raise ContractError(f"an operator is built from a GraphSpec, got {type(g).__name__}")
    src, dst, weight = g._arrays
    n = g.n_nodes
    nm.check_allocatable(f"adjacency of {n} nodes", (n, n))
    a = np.zeros((n, n))
    a[src, dst] = weight
    a.flat[::n + 1] += 1.0
    with np.errstate(over="ignore"):
        degree = a.sum(axis=1, keepdims=True)
    overflow = np.flatnonzero(~np.isfinite(degree))
    if overflow.size:
        raise ValidationError(f"edge weights of node {overflow[0]} sum past the float64 range")
    a /= degree
    a.setflags(write=False)
    return a


def propagate(x: nm.Tensor, op: np.ndarray, k_hops: int) -> nm.Tensor:
    """K-hop graph propagation with hop-wise concatenation.

    ``x`` is ``[..., N, D]`` with the node axis second-to-last; the output is
    ``[..., N, (K+1)*D]``, the concatenation ``x || Lx || L^2 x || ... || L^K x``.
    Differentiable: gradients flow through every hop to ``x``; the operator
    is a constant and gets none.
    """
    if k_hops < 0:
        raise ContractError(f"k_hops must be >= 0, got {k_hops}")
    x = nm.as_tensor(x)
    if x.ndim < 2:
        raise DimensionError(f"propagate expects [..., N, D] input, got {x.shape}")
    if x.shape[-2] != op.shape[0]:
        raise DimensionError(
            f"node axis {x.shape[-2]} does not match operator size {op.shape[0]}")
    hops = [x]
    for _ in range(k_hops):
        hops.append(nm.matmul(op, hops[-1]))
    return nm.concat_last_axis(hops)
