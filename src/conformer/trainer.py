"""Training loop (Adam on masked MAE), early stopping, and evaluation."""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, asdict

import numpy as np

from . import numerics as nm
from .data import (DatasetBundle, MaskedMetrics, NormalizationStats, SplitSpec,
                   chronological_split, fit_normalization, make_windows,
                   masked_metrics, window_block)
from .errors import ConfigError
from .model import ConFormerConfig, ConFormerParams, forward, init_params


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 20
    seed: int = 0
    clip_norm: float = 5.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        for name in ("learning_rate", "adam_eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        # AdamState.step compares against clip_norm ** 2, which must not overflow.
        if not 0 <= self.clip_norm <= math.sqrt(sys.float_info.max):
            raise ConfigError(f"clip_norm must be >= 0 with a finite square, got {self.clip_norm}")
        if self.patience < 1 or self.max_epochs < 1 or self.batch_size < 1 or self.seed < 0:
            raise ConfigError("patience, max_epochs and batch_size must be >= 1, seed >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpochRecord:
    epoch: int
    train_mae: float
    val_mae: float


@dataclass
class TrainResult:
    params: ConFormerParams
    history: list[EpochRecord]
    stats: NormalizationStats
    best_epoch: int


class AdamState:
    """Per-parameter first/second moment accumulators."""

    def __init__(self, params: ConFormerParams):
        self.m = {name: np.zeros(t.shape) for name, t in params.entries()}
        self.v = {name: np.zeros(t.shape) for name, t in params.entries()}
        self.t = 0

    def step(self, params: ConFormerParams, grads: dict[str, np.ndarray],
             tcfg: TrainConfig) -> None:
        norm_sq = sum(float((g * g).sum()) for g in grads.values())
        scale = 1.0
        if tcfg.clip_norm > 0 and norm_sq > tcfg.clip_norm ** 2:
            scale = tcfg.clip_norm / math.sqrt(norm_sq)
        self.t += 1
        bias1 = 1.0 - tcfg.beta1 ** self.t
        bias2 = 1.0 - tcfg.beta2 ** self.t
        updates = {}
        for name, g in grads.items():
            g = g * scale
            self.m[name] = tcfg.beta1 * self.m[name] + (1.0 - tcfg.beta1) * g
            self.v[name] = tcfg.beta2 * self.v[name] + (1.0 - tcfg.beta2) * g * g
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            updates[name] = (params[name].data
                             - tcfg.learning_rate * m_hat / (np.sqrt(v_hat) + tcfg.adam_eps))
        params.replace(updates)


def masked_mae_loss(pred: nm.Tensor, target: np.ndarray,
                    stats: NormalizationStats) -> nm.Tensor | None:
    """Masked MAE in original units; None when no target is nonzero.

    ``pred`` is in normalized space and is denormalized inside the graph so
    gradients flow; targets with value 0 are excluded, sharing the metric
    mask.
    """
    target = np.asarray(target, dtype=np.float64)
    mask = (target != 0).astype(np.float64)
    n_valid = mask.sum()
    if n_valid == 0:
        return None
    denorm = pred * stats.std + stats.mean
    err = nm.absolute(denorm - target)
    return nm.tsum(err * mask) * (1.0 / n_valid)


def _gather(bundle: DatasetBundle, t0s: np.ndarray, t_in: int,
            stats: NormalizationStats):
    """Normalized inputs ``[B, T, N, 1]`` and id blocks ``[B, T, N]`` of the
    windows starting at ``t0s``."""
    x, acc, reg = (window_block(a, t0s, 0, t_in)
                   for a in (bundle.values, bundle.acc_ids, bundle.reg_ids))
    return stats.apply(x)[..., None], acc, reg


def _thread_count() -> int:
    """Worker threads for evaluation from ``CONFORMER_THREADS`` (default 1)."""
    raw = os.environ.get("CONFORMER_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"CONFORMER_THREADS must be an integer >= 1, got {raw!r}")
    return n


def predict_windows(params: ConFormerParams, bundle: DatasetBundle,
                    windows, stats: NormalizationStats,
                    batch_size: int = 64) -> np.ndarray:
    """Denormalized forecasts for a sequence of window starts, [W, T', N, 1].

    Each batch runs under ``nm.no_tape``: nothing is differentiated, so every
    intermediate is freed as soon as the forward pass drops it.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    cfg = params.cfg
    n_workers = _thread_count()
    t0s = np.asarray(windows)  # window_block checks each batch before its int64 cast
    batches = [t0s[i:i + batch_size] for i in range(0, len(t0s), batch_size)]

    def run(starts: np.ndarray) -> np.ndarray:
        x, acc, reg = _gather(bundle, starts, cfg.t_in, stats)
        with nm.no_tape():
            pred = forward(x, acc, reg, starts, bundle.graph, params, cfg)
        return stats.invert(pred.data)

    if n_workers > 1 and len(batches) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            out = list(pool.map(run, batches))
    else:
        out = [run(starts) for starts in batches]
    return np.concatenate(out, axis=0) if out else np.zeros((0, cfg.t_out, cfg.n_nodes, 1))


def historical_inertia(bundle: DatasetBundle, windows, t_in: int,
                       t_out: int) -> np.ndarray:
    """Reference forecaster: repeat the last observed value across the horizon."""
    last = window_block(bundle.values, windows, t_in - 1, 1)     # [W, 1, N]
    return np.repeat(last[..., None], t_out, axis=1)


def evaluate_forecasts(y_true: np.ndarray, y_pred: np.ndarray,
                       horizons: list[int]) -> dict[str, MaskedMetrics]:
    """Masked metrics per requested horizon plus the all-horizon average.

    ``horizons`` are 1-based steps into the forecast; 'average' pools every
    step of the horizon.
    """
    t_out = y_true.shape[1]
    for h in horizons:
        if not 1 <= h <= t_out:
            raise ConfigError(f"horizon {h} outside [1, {t_out}]")
    table = {f"h{h}": masked_metrics(y_true[:, h - 1], y_pred[:, h - 1])
             for h in horizons}
    table["average"] = masked_metrics(y_true, y_pred)
    return table


def _split_windows(bundle: DatasetBundle, split: SplitSpec, split_name: str,
                   t_in: int, t_out: int) -> tuple[np.ndarray, np.ndarray]:
    """The window starts of one split and their targets ``[W, T', N, 1]``."""
    windows = make_windows(bundle, split.range_for(split_name), t_in, t_out)
    if len(windows) == 0:
        raise ConfigError(f"split '{split_name}' too short for T={t_in}, T'={t_out}")
    return windows, window_block(bundle.values, windows, t_in, t_out)[..., None]


def evaluate(params: ConFormerParams, bundle: DatasetBundle, split: SplitSpec,
             split_name: str, horizons: list[int],
             stats: NormalizationStats) -> dict[str, MaskedMetrics]:
    """Metrics table for the trained model on one split, original units."""
    cfg = params.cfg
    windows, y_true = _split_windows(bundle, split, split_name, cfg.t_in, cfg.t_out)
    preds = predict_windows(params, bundle, windows, stats)
    return evaluate_forecasts(y_true, preds, horizons)


def evaluate_historical_inertia(bundle: DatasetBundle, split: SplitSpec,
                                split_name: str, t_in: int, t_out: int,
                                horizons: list[int]) -> dict[str, MaskedMetrics]:
    windows, y_true = _split_windows(bundle, split, split_name, t_in, t_out)
    y_pred = historical_inertia(bundle, windows, t_in, t_out)
    return evaluate_forecasts(y_true, y_pred, horizons)


def train(bundle: DatasetBundle, cfg: ConFormerConfig, tcfg: TrainConfig,
          split: SplitSpec | None = None) -> TrainResult:
    """Fit on the train split, early-stop on validation masked MAE.

    Returns the parameters with the lowest validation MAE, the per-epoch
    history, and the normalization stats (fit on the train split only).
    Fully deterministic for a fixed seed.
    """
    split = split or chronological_split(bundle.n_steps)
    train_windows, y_train = _split_windows(bundle, split, "train", cfg.t_in, cfg.t_out)
    val_windows, y_val = _split_windows(bundle, split, "val", cfg.t_in, cfg.t_out)
    for name, y in (("train", y_train), ("val", y_val)):
        if not y.any():
            raise ConfigError(f"split '{name}' has no observed target: every target "
                              "value of its windows is 0 (missing)")

    lo, hi = split.train
    stats = fit_normalization(bundle.values[lo:hi])

    seeds = np.random.SeedSequence(tcfg.seed).spawn(3)
    init_seed = int(seeds[0].generate_state(1)[0])
    shuffle_rng = np.random.default_rng(seeds[1])
    dropout_rng = np.random.default_rng(seeds[2])

    params = init_params(cfg, seed=init_seed)
    adam = AdamState(params)

    history: list[EpochRecord] = []
    best_mae, best_epoch, best_params = math.inf, 0, params.copy()

    for epoch in range(1, tcfg.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_windows))
        epoch_losses = []
        for start in range(0, len(order), tcfg.batch_size):
            batch = order[start:start + tcfg.batch_size]
            t0s = train_windows[batch]
            x, acc, reg = _gather(bundle, t0s, cfg.t_in, stats)
            pred = forward(x, acc, reg, t0s, bundle.graph, params, cfg, dropout_rng)
            loss = masked_mae_loss(pred, y_train[batch], stats)
            if loss is None:
                continue
            loss_val = loss.item()
            grads = nm.backward(loss, dict(params.entries()))
            adam.step(params, grads, tcfg)
            epoch_losses.append(loss_val)

        val_mae = masked_metrics(y_val, predict_windows(params, bundle, val_windows, stats)).mae
        train_mae = float(np.mean(epoch_losses)) if epoch_losses else math.nan
        history.append(EpochRecord(epoch=epoch, train_mae=train_mae, val_mae=val_mae))

        if val_mae < best_mae:
            best_mae, best_epoch, best_params = val_mae, epoch, params.copy()
        elif epoch - best_epoch >= tcfg.patience:
            break

    return TrainResult(params=best_params, history=history, stats=stats,
                       best_epoch=best_epoch)
