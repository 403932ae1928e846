"""Slow, obviously-correct references that the tests compare the package to.

Nothing under ``src/conformer`` calls these; each is the oracle for a fast
path there: ``index_time`` for the vectorized ``embeddings.time_indices``,
and ``finite_difference_gradient`` for every VJP that ``numerics.backward``
runs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from conformer.embeddings import CalendarIndexer


def index_time(t: int, cal: CalendarIndexer) -> tuple[int, int]:
    """(dow, tod) for absolute step ``t``; dow advances by one per day wrap."""
    total = cal.start_slot + t
    tod = total % cal.steps_per_day
    dow = (cal.start_weekday + total // cal.steps_per_day) % 7
    return dow, tod


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
