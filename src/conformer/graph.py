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
    ``src``/``dst``/``weight`` arrays, so ``adjacency`` is one indexed store.
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
        for array in arrays:
            array.setflags(write=False)
        object.__setattr__(self, "_arrays", arrays)

    def adjacency(self) -> np.ndarray:
        src, dst, weight = self._arrays
        a = np.zeros((self.n_nodes, self.n_nodes))
        a[src, dst] = weight
        return a


class PropagationOperator:
    """Row-normalized N x N propagation matrix with entries in [0, 1].

    Each row sums to 1 (or to 0 for an isolated node without a self-loop).
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionError(f"operator must be square, got {matrix.shape}")
        if matrix.min() < 0.0 or matrix.max() > 1.0:
            raise ValidationError("operator entries must lie in [0, 1]")
        row_sums = matrix.sum(axis=1)
        ok = np.isclose(row_sums, 1.0, rtol=0.0, atol=1e-12) | (row_sums == 0.0)
        if not ok.all():
            raise ValidationError("operator rows must sum to 1 (or 0 for isolated nodes)")
        self.matrix = matrix
        self.matrix.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]


def normalize_adjacency(g: GraphSpec, add_self_loops: bool = True) -> PropagationOperator:
    """Build ``D^-1 (A [+ I])``, the random-walk propagation operator.

    Rows of isolated nodes stay all-zero when self-loops are off.
    """
    a = g.adjacency()
    if add_self_loops:
        a = a + np.eye(g.n_nodes)
    degree = a.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(degree > 0, a / degree, 0.0)
    return PropagationOperator(normalized)


def propagate(x: nm.Tensor, op: PropagationOperator, k_hops: int) -> nm.Tensor:
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
    if x.shape[-2] != op.n_nodes:
        raise DimensionError(
            f"node axis {x.shape[-2]} does not match operator size {op.n_nodes}")
    hops = [x]
    for _ in range(k_hops):
        hops.append(nm.matmul(op.matrix, hops[-1]))
    return nm.concat_last_axis(hops)
