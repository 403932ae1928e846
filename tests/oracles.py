"""Slow, obviously-correct references that the tests compare the package to.

Nothing under ``src/conformer`` calls these; each is the oracle for a fast
path there: ``index_time`` for the vectorized ``embeddings.time_indices``,
``reference_attention`` for ``numerics.attention``, ``reference_operator``
for ``graph.normalize_adjacency``, and ``finite_difference_gradient`` for
every VJP that ``numerics.backward`` runs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from conformer.embeddings import CalendarIndexer
from conformer.graph import GraphSpec


def index_time(t: int, cal: CalendarIndexer) -> tuple[int, int]:
    """(dow, tod) for absolute step ``t``; dow advances by one per day wrap."""
    total = cal.start_slot + t
    tod = total % cal.steps_per_day
    dow = (cal.start_weekday + total // cal.steps_per_day) % 7
    return dow, tod


def reference_attention(q, k, v, n_heads: int, axis: int) -> np.ndarray:
    """Multi-head softmax attention over ``axis`` (-2 nodes, -3 time) of
    ``[..., T, N, D]`` arrays, one head's column slice at a time."""
    q, k, v = (np.moveaxis(np.asarray(t, dtype=np.float64), axis, -2) for t in (q, k, v))
    d_head = q.shape[-1] // n_heads
    out = np.empty_like(q)
    for h in range(n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        scores = np.einsum("...id,...jd->...ij", q[..., cols], k[..., cols]) / np.sqrt(d_head)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        out[..., cols] = np.einsum("...ij,...jd->...id", weights, v[..., cols])
    return np.moveaxis(out, -2, axis)


def reference_operator(g: GraphSpec) -> np.ndarray:
    """``D^-1 (A + I)`` from the edge list: ``(A + I) / rowsum``."""
    a = np.zeros((g.n_nodes, g.n_nodes))
    for src, dst, weight in g.edges:
        a[src, dst] = weight
    a = a + np.eye(g.n_nodes)
    return a / a.sum(axis=1, keepdims=True)


def finite_difference_gradient(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                               step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, the gradient oracle.

    ``fn`` maps an array of ``x0``'s shape to a float; every entry is probed.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for idx in np.ndindex(*x0.shape):
        bumped = x0.copy()
        bumped[idx] = x0[idx] + step
        hi = fn(bumped)
        bumped[idx] = x0[idx] - step
        lo = fn(bumped)
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad
