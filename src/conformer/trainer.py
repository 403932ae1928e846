"""Training loop (Adam on masked MAE), early stopping, and evaluation."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, asdict

import numpy as np

from . import numerics as nm
from .data import (DatasetBundle, MaskedMetrics, NormalizationStats, SplitSpec,
                   chronological_split, fit_normalization, make_windows,
                   masked_metrics, observed, window_block)
from .errors import ConfigError
from .model import ConFormerConfig, ConFormerParams, forward, init_params

# Adam's decay rates and denominator floor, as Kingma & Ba (arXiv 1412.6980) set them.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """The ``train`` section of a run config; Adam's other settings are constants."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 20
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
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
    """Per-parameter first/second moments, decayed by ``ADAM_BETA1/2``."""

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
        bias1 = 1.0 - ADAM_BETA1 ** self.t
        bias2 = 1.0 - ADAM_BETA2 ** self.t
        updates = {}
        for name, g in grads.items():
            g = g * scale
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            updates[name] = (params[name].data
                             - tcfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        params.replace(updates)


def masked_mae_loss(pred: nm.Tensor, target: np.ndarray,
                    stats: NormalizationStats) -> nm.Tensor | None:
    """Masked MAE in original units; None when no target is ``observed``.

    ``pred`` is in normalized space and is denormalized inside the graph so
    gradients flow; missing targets are excluded, as in the metrics.
    """
    target = np.asarray(target, dtype=np.float64)
    mask = observed(target).astype(np.float64)
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


def predict_windows(params: ConFormerParams, bundle: DatasetBundle,
                    windows, stats: NormalizationStats,
                    batch_size: int = 64) -> np.ndarray:
    """Denormalized forecasts for a sequence of window starts, [W, T', N, 1].

    Each batch runs under ``nm.no_tape``: nothing is differentiated, so every
    intermediate is freed as soon as the forward pass drops it.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    nm.thread_count()  # a bad CONFORMER_THREADS is refused whatever the sizes
    cfg = params.cfg
    t0s = np.asarray(windows)  # window_block checks each batch before its int64 cast
    out = []
    for i in range(0, len(t0s), batch_size):
        starts = t0s[i:i + batch_size]
        x, acc, reg = _gather(bundle, starts, cfg.t_in, stats)
        with nm.no_tape():
            pred = forward(x, acc, reg, starts, bundle.graph, params, cfg)
        out.append(stats.invert(pred.data))
    return np.concatenate(out, axis=0) if out else np.zeros((0, cfg.t_out, cfg.n_nodes, 1))


def historical_inertia(bundle: DatasetBundle, windows, t_in: int,
                       t_out: int) -> np.ndarray:
    """Reference forecaster: repeat each node's last input reading across the
    horizon, a missing 0 included."""
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
    nm.thread_count()  # a bad CONFORMER_THREADS is refused before any work
    split = split or chronological_split(bundle.n_steps)
    train_windows, y_train = _split_windows(bundle, split, "train", cfg.t_in, cfg.t_out)
    val_windows, y_val = _split_windows(bundle, split, "val", cfg.t_in, cfg.t_out)
    for name, y in (("train", y_train), ("val", y_val)):
        if not observed(y).any():
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
