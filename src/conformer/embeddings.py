"""Input embedding: raw traffic, incident indicators, calendar indices, and
the learnable adaptive embedding, fused into one representation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ValidationError


def day_steps(interval_minutes: int) -> int:
    """Steps in a day of ``interval_minutes`` minutes each, which must divide the day."""
    if interval_minutes < 1 or 1440 % interval_minutes != 0:
        raise ValidationError(f"interval_minutes must divide 1440, got {interval_minutes}")
    return 1440 // interval_minutes


@dataclass(frozen=True)
class CalendarIndexer:
    """Maps absolute step indices to (day-of-week, time-of-day) indices."""

    steps_per_day: int
    start_weekday: int = 0
    start_slot: int = 0

    def __post_init__(self):
        if self.steps_per_day < 1:
            raise ValidationError(f"steps_per_day must be >= 1, got {self.steps_per_day}")
        if not 0 <= self.start_weekday <= 6:
            raise ValidationError(f"start_weekday must be in 0..6, got {self.start_weekday}")
        if not 0 <= self.start_slot < self.steps_per_day:
            raise ValidationError(
                f"start_slot must be in 0..{self.steps_per_day - 1}, got {self.start_slot}")


def time_indices(t0, horizon: int, cal: CalendarIndexer) -> tuple[np.ndarray, np.ndarray]:
    """(day-of-week, time-of-day) indices of steps ``t0 .. t0+horizon-1``; the
    day of week advances by one at each wrap of the time of day.

    ``t0`` is one start step or an array of them; both results have shape
    ``np.shape(t0) + (horizon,)``.
    """
    total = cal.start_slot + np.asarray(t0, dtype=np.int64)[..., None] + np.arange(horizon)
    tod = total % cal.steps_per_day
    dow = (cal.start_weekday + total // cal.steps_per_day) % 7
    return dow.astype(np.int64), tod.astype(np.int64)


def _validate_ids(ids: np.ndarray, vocab_size: int, name: str):
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        bad = np.argwhere((ids < 0) | (ids >= vocab_size))[0]
        raise ValidationError(
            f"{name} id {ids[tuple(bad)]} at (t={bad[-2]}, n={bad[-1]}) outside "
            f"vocabulary of size {vocab_size}")
    return ids.astype(np.int64)


def embed_all(x: nm.Tensor | np.ndarray, acc_ids: np.ndarray, reg_ids: np.ndarray, t0,
              params, cal: CalendarIndexer) -> nm.Tensor:
    """Fused input embedding, ``[..., T, N, D_model]``.

    ``x`` is ``[T, N, D_in]`` or batched ``[B, T, N, D_in]``, a plain array
    unless its gradient is wanted; ids match its leading shape without the
    feature axis. ``t0`` is the absolute start step of each window: an int, or
    one per batch element. Reads the ``embed.*`` entries of ``params``; id 0
    means "no incident" in the acc/reg tables.
    """
    t_len = x.shape[-3]
    lead = x.shape[:-1]

    acc_table, reg_table = params["embed.acc_table"], params["embed.reg_table"]
    acc_ids = _validate_ids(acc_ids, acc_table.shape[0], "accident")
    reg_ids = _validate_ids(reg_ids, reg_table.shape[0], "regulation")
    if acc_ids.shape != lead or reg_ids.shape != lead:
        raise ValidationError(
            f"id arrays must have shape {lead}, got {acc_ids.shape} / {reg_ids.shape}")

    if np.shape(t0) != x.shape[:-3]:
        raise ValidationError(f"t0 must hold one start per window, shape "
                              f"{x.shape[:-3]}, got shape {np.shape(t0)}")
    # Per-timestep calendar rows broadcast over the node axis.
    dow, tod = (np.broadcast_to(a[..., None], lead)
                for a in time_indices(t0, t_len, cal))

    x_data = nm.affine(x, params["embed.data_proj.w"], params["embed.data_proj.b"])
    x_acc = nm.gather_rows(acc_table, acc_ids)
    x_reg = nm.gather_rows(reg_table, reg_ids)
    x_dow = nm.gather_rows(params["embed.dow_table"], dow)
    x_tod = nm.gather_rows(params["embed.tod_table"], tod)
    adaptive = params["embed.adaptive"]
    if x.ndim == 4:
        adaptive = nm.broadcast_to(adaptive, (x.shape[0],) + adaptive.shape)

    fused = nm.concat_last_axis([x_data, x_acc, x_reg, x_dow, x_tod, adaptive])
    return nm.affine(fused, params["embed.fuse.w"], params["embed.fuse.b"])
