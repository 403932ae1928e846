"""Full model assembly: configuration, parameter store, forward pass,
parameter accounting, FLOPs estimation, and checkpoint serialization."""

from __future__ import annotations

import io
import itertools
import json
import math
import struct
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import numerics as nm
from .attention import conditional_qkv, fuse, spatial_attention, temporal_attention
from .conditioning import (ConditionFactors, generate_factors, gln,
                           modulated_residual)
from .data import NormalizationStats
from .embeddings import CalendarIndexer, embed_all
from .errors import ConfigError, DimensionError, LoadError, NumericsError, ValidationError
from .graph import GraphSpec, normalize_adjacency, propagate

ABLATIONS = ("no-accident", "no-regulation", "no-alpha", "no-beta", "no-gamma",
             "no-spatial", "no-temporal", "plain-ln")

_MAGIC = b"CFMR1\n"


@dataclass(frozen=True)
class ConFormerConfig:
    """Static shape and behavior knobs for one model instance."""

    t_in: int = 12
    t_out: int = 12
    n_nodes: int = 1
    d_in: int = 1
    d_data: int = 16
    d_acc: int = 8
    d_reg: int = 8
    d_dow: int = 8
    d_tod: int = 8
    d_stae: int = 16
    d_model: int = 32
    k_hops: int = 2
    n_heads: int = 4
    n_layers: int = 1
    dropout: float = 0.1
    eps: float = 1e-5
    steps_per_day: int = 288
    start_weekday: int = 0
    start_slot: int = 0
    n_acc_codes: int = 2
    n_reg_codes: int = 2
    ablations: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if min(self.t_in, self.t_out, self.n_nodes, self.d_model, self.n_heads) < 1:
            raise ConfigError("t_in, t_out, n_nodes, d_model and n_heads must all be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.k_hops < 0:
            raise ConfigError(f"k_hops must be >= 0, got {self.k_hops}")
        if self.n_layers < 0:
            raise ConfigError(f"n_layers must be >= 0, got {self.n_layers}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if min(self.d_in, self.n_acc_codes, self.n_reg_codes, self.embed_width) < 1:
            raise ConfigError("d_in, n_acc_codes, n_reg_codes and embed_width must be >= 1")
        if min(self.d_data, self.d_acc, self.d_reg, self.d_dow, self.d_tod, self.d_stae) < 0:
            raise ConfigError("embedding widths d_data .. d_stae must be >= 0")
        if not 0 < self.eps < math.inf:
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")
        unknown = set(self.ablations) - set(ABLATIONS)
        if unknown:
            raise ConfigError(f"unknown ablation flags: {sorted(unknown)}")
        try:
            self.calendar()
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "ablations", tuple(sorted(set(self.ablations))))

    @property
    def cond_width(self) -> int:
        return (self.k_hops + 1) * self.d_model

    @property
    def embed_width(self) -> int:
        return self.d_data + self.d_acc + self.d_reg + self.d_dow + self.d_tod + self.d_stae

    def calendar(self) -> CalendarIndexer:
        return CalendarIndexer(self.steps_per_day, self.start_weekday, self.start_slot)

    def ablated(self, flag: str) -> bool:
        return flag in self.ablations

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ablations"] = list(self.ablations)
        return d


# Field annotation -> (the types it takes, by type() so JSON true is no int; name).
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "str": ((str,), "a string"), "tuple[str, ...]": ((list,), "a list of strings")}


def config_from_dict(cls, d: dict, section: str):
    """``cls(**d)`` for JSON config section ``section``. A key that is not a field
    of dataclass ``cls``, or a value whose type does not fit its annotation, is a
    ``ConfigError``. Values pass on as given: ``"dropout": 0`` stays ``0``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{section} config must be a JSON object, got {d!r}")
    fields = cls.__dataclass_fields__
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {sorted(unknown)}")
    for key, value in d.items():
        types, what = _JSON_TYPES[fields[key].type]
        if type(value) not in types or (type(value) is list
                                        and not all(type(s) is str for s in value)):
            raise ConfigError(f"{section} config {key} must be {what}, got {value!r}")
    return cls(**d)


class ConFormerParams:
    """All learnable arrays, keyed by name in ``param_spec`` order."""

    def __init__(self, cfg: ConFormerConfig, arrays: "OrderedDict[str, nm.Tensor]"):
        self.cfg = cfg
        self.arrays = arrays

    def __getitem__(self, name: str) -> nm.Tensor:
        return self.arrays[name]

    def entries(self) -> list[tuple[str, nm.Tensor]]:
        return list(self.arrays.items())

    def replace(self, updates: dict[str, np.ndarray]) -> None:
        """Swap in new values for the given names (tensors stay immutable)."""
        for name, values in updates.items():
            if name not in self.arrays:
                raise ConfigError(f"unknown parameter '{name}'")
            if tuple(values.shape) != self.arrays[name].shape:
                raise DimensionError(
                    f"parameter '{name}' shape {self.arrays[name].shape} cannot "
                    f"take values of shape {values.shape}")
            self.arrays[name] = nm.Tensor(values)

    def copy(self) -> "ConFormerParams":
        return ConFormerParams(self.cfg, OrderedDict(
            (k, nm.Tensor(v.data.copy())) for k, v in self.arrays.items()))


def param_spec(cfg: ConFormerConfig) -> Iterator[tuple[str, tuple[int, ...], float | str]]:
    """Every learnable array as ``(name, shape, init)``, in enumeration order.

    ``init`` is a uniform bound ``s`` (drawn from ``U(-s, s)``), ``"zeros"``
    or ``"ones"``. The order is the contract for initialization draws,
    parameter counting, gradient records and checkpoint layout. Entries come
    one at a time, so a caller can stop before listing ``n_layers`` layers.
    """
    d, c = cfg.d_model, cfg.cond_width

    def affine(w: str, b: str, n_in: int, n_out: int):
        bound = 1.0 / math.sqrt(n_in)  # np.sqrt takes no int beyond int64
        return [(w, (n_in, n_out), bound), (b, (n_out,), bound)]

    yield from affine("embed.data_proj.w", "embed.data_proj.b", cfg.d_in, cfg.d_data)
    yield from [("embed.acc_table", (cfg.n_acc_codes, cfg.d_acc), 0.1),
                ("embed.reg_table", (cfg.n_reg_codes, cfg.d_reg), 0.1),
                ("embed.dow_table", (7, cfg.d_dow), 0.1),
                ("embed.tod_table", (cfg.steps_per_day, cfg.d_tod), 0.1),
                ("embed.adaptive", (cfg.t_in, cfg.n_nodes, cfg.d_stae), 0.1)]
    yield from affine("embed.fuse.w", "embed.fuse.b", cfg.embed_width, d)

    for i in range(cfg.n_layers):
        p = f"layer{i}."
        for gen in ("gen_c", "gen_f"):
            yield from affine(f"{p}{gen}.hidden.w", f"{p}{gen}.hidden.b", c, d)
            yield from [(f"{p}{gen}.out.w", (d, 2 * d + 1), "zeros"),
                        (f"{p}{gen}.out.b", (2 * d + 1,), "zeros")]
        for w, b, n_in, n_out in (("attn.wq", "attn.bq", d, d),
                                  ("attn.wk", "attn.bk", d + c, d),
                                  ("attn.wv", "attn.bv", d + c, d),
                                  ("attn.fuse.w", "attn.fuse.b", 2 * d, d),
                                  ("ff.w1", "ff.b1", d, 4 * d),
                                  ("ff.w2", "ff.b2", 4 * d, d)):
            yield from affine(p + w, p + b, n_in, n_out)
        if cfg.ablated("plain-ln"):
            for ln in ("ln1", "ln2"):
                yield from [(f"{p}{ln}.gamma", (d,), "ones"),
                            (f"{p}{ln}.beta", (d,), "zeros")]

    yield from affine("readout.w", "readout.b", cfg.t_in * d, cfg.t_out)


_FILLS = {"zeros": np.zeros, "ones": np.ones}


def init_params(cfg: ConFormerConfig, seed: int = 0) -> ConFormerParams:
    """Fresh parameters; generator output heads start at exactly zero.

    Each shape, all found in a model of at most one layer, and then the total
    are tried for allocation before ``n_layers`` layers are listed."""
    for name, shape, _ in param_spec(replace(cfg, n_layers=min(cfg.n_layers, 1))):
        nm.check_allocatable(f"parameter '{name}' of shape {shape}", shape)
    total = count_params(cfg)
    nm.check_allocatable(f"{total} parameters", total)
    rng = np.random.default_rng(seed)
    return ConFormerParams(cfg, OrderedDict(
        (name, nm.Tensor(_FILLS[init](shape) if init in _FILLS
                         else rng.uniform(-init, init, shape)))
        for name, shape, init in param_spec(cfg)))


def count_params(cfg: ConFormerConfig) -> int:
    """Exact number of scalar learnables: the sum over ``param_spec``, read off
    the models of 0 and 1 layers, as every layer holds as many as the first."""
    base, one = (sum(math.prod(shape) for _, shape, _ in
                     param_spec(replace(cfg, n_layers=n))) for n in (0, 1))
    return base + cfg.n_layers * (one - base)


def estimate_flops(cfg: ConFormerConfig, n_edges: int) -> int:
    """Printed-formula FLOPs: ``K|E|D + (T N^2 D + N T^2 D) + N T D^2``."""
    if n_edges < 0:
        raise ConfigError(f"edge count must be >= 0, got {n_edges}")
    t, n, d = cfg.t_in, cfg.n_nodes, cfg.d_model
    return (cfg.k_hops * n_edges * d + (t * n * n * d + n * t * t * d)
            + n * t * d * d)


def _dropout(x: nm.Tensor, rate: float, rng: np.random.Generator | None) -> nm.Tensor:
    if rng is None or rate <= 0.0:
        return x
    keep = 1.0 - rate
    return nm.dropout(x, rng.random(x.shape) < keep, keep)


def _ablate(cfg: ConFormerConfig, params: ConFormerParams, ln: str,
           f: ConditionFactors) -> ConditionFactors:
    """The factors one GLN and its residual gate use under the active flags.

    ``no-gamma``/``no-beta``/``no-alpha`` pin a generated factor to its
    neutral value; ``plain-ln`` then swaps in the static ``ln`` parameters
    (prefix like ``layer0.ln1``) for gamma and beta, keeping alpha.
    """
    gamma, beta, alpha = f.gamma, f.beta, f.alpha
    if cfg.ablated("no-gamma"):
        gamma = nm.Tensor(np.ones(gamma.shape))
    if cfg.ablated("no-beta"):
        beta = nm.Tensor(np.zeros(beta.shape))
    if cfg.ablated("no-alpha"):
        alpha = nm.Tensor(np.ones(alpha.shape))
    if cfg.ablated("plain-ln"):
        gamma, beta = params[f"{ln}.gamma"], params[f"{ln}.beta"]
    return ConditionFactors(gamma=gamma, beta=beta, alpha=alpha)


def forward(x, acc_ids, reg_ids, t0, graph: GraphSpec, params: ConFormerParams,
            cfg: ConFormerConfig,
            dropout_rng: np.random.Generator | None = None) -> nm.Tensor:
    """Full forward pass: embeddings, conditioned layers, horizon readout.

    Input ``x`` is ``[T, N, D_in]`` or batched ``[B, T, N, D_in]``; the output
    is ``[T', N, 1]`` (or ``[B, T', N, 1]``). The propagation operator is
    built from ``graph`` once its node count matches the config. Pass
    ``dropout_rng`` only during training; inference is deterministic.

    Each stage's output is dropped after its last reader: a layer's two
    blocks scope their stages, the branch outputs are arguments of the call
    that reads them, and a layer's input goes once its attention residual
    exists. Only the condition features ``x_c`` live through the layer. So
    an array no VJP reads, and under ``nm.no_tape`` every array, is freed as
    the pass moves on.
    """
    if x.ndim not in (3, 4):
        raise DimensionError(f"input must be [.., T, N, D_in], got {x.shape}")
    if x.shape[-3] != cfg.t_in or x.shape[-2] != cfg.n_nodes or x.shape[-1] != cfg.d_in:
        raise DimensionError(
            f"input window {x.shape} does not match config "
            f"(T={cfg.t_in}, N={cfg.n_nodes}, D_in={cfg.d_in})")
    if graph.n_nodes != cfg.n_nodes:
        raise DimensionError(
            f"graph has {graph.n_nodes} nodes, config expects {cfg.n_nodes}")
    op = normalize_adjacency(graph)

    acc_ids = np.asarray(acc_ids)
    reg_ids = np.asarray(reg_ids)
    if cfg.ablated("no-accident"):
        acc_ids = np.zeros_like(acc_ids)
    if cfg.ablated("no-regulation"):
        reg_ids = np.zeros_like(reg_ids)

    h = embed_all(x, acc_ids, reg_ids, t0, params, cfg.calendar())
    for i in range(cfg.n_layers):
        p = f"layer{i}."
        x_c = propagate(h, op, cfg.k_hops)
        h = _attention_block(h, x_c, params, cfg, p, dropout_rng)
        h = _feed_forward_block(h, x_c, params, cfg, p, dropout_rng)
    return readout(h, params, cfg)


def _attend(attend, q: nm.Tensor, k: nm.Tensor, v: nm.Tensor, cfg: ConFormerConfig,
            flag: str) -> nm.Tensor:
    """``attend(q, k, v)``, or zeros when the ``flag`` ablation removes it."""
    return nm.Tensor(np.zeros(q.shape)) if cfg.ablated(flag) else attend(q, k, v, cfg.n_heads)


def _attention_block(h: nm.Tensor, x_c: nm.Tensor, params: ConFormerParams,
                     cfg: ConFormerConfig, p: str,
                     dropout_rng: np.random.Generator | None) -> nm.Tensor:
    """``h + alpha_c * Dropout(Fuse(SA, TA))`` over GLN(h) and the condition
    features ``x_c``; the branches are arguments of ``fuse``, so they are
    dropped once fused."""
    f_c = _ablate(cfg, params, p + "ln1", generate_factors(x_c, params, p + "gen_c"))
    q, k, v = conditional_qkv(gln(h, f_c, cfg.eps), x_c, params, p + "attn")
    x = fuse(_attend(spatial_attention, q, k, v, cfg, "no-spatial"),
             _attend(temporal_attention, q, k, v, cfg, "no-temporal"),
             params, p + "attn.fuse")
    x = _dropout(x, cfg.dropout, dropout_rng)
    return modulated_residual(h, x, f_c.alpha)


def _feed_forward_block(h: nm.Tensor, x_c: nm.Tensor, params: ConFormerParams,
                        cfg: ConFormerConfig, p: str,
                        dropout_rng: np.random.Generator | None) -> nm.Tensor:
    """``h + alpha_f * Dropout(FF(GLN(h)))``; each stage rebinds ``x``, so
    its input is dropped once read."""
    f_f = _ablate(cfg, params, p + "ln2", generate_factors(x_c, params, p + "gen_f"))
    x = gln(h, f_f, cfg.eps)
    x = nm.affine(x, params[p + "ff.w1"], params[p + "ff.b1"])
    x = nm.gelu(x)
    x = nm.affine(x, params[p + "ff.w2"], params[p + "ff.b2"])
    x = _dropout(x, cfg.dropout, dropout_rng)
    return modulated_residual(h, x, f_f.alpha)


def readout(h: nm.Tensor, params: ConFormerParams, cfg: ConFormerConfig) -> nm.Tensor:
    """Per-node affine map from the flattened (T, D) embedding to T' scalars."""
    # [..., T, N, D] -> [..., N, T, D] -> [..., N, T*D] -> [..., N, T'] -> [..., T', N, 1]
    moved = nm.moveaxis(h, -3, -2)
    flat = nm.reshape(moved, moved.shape[:-2] + (cfg.t_in * cfg.d_model,))
    pred = nm.affine(flat, params["readout.w"], params["readout.b"])
    pred = nm.moveaxis(pred, -1, -2)
    return nm.reshape(pred, pred.shape + (1,))


# -- checkpoint I/O -----------------------------------------------------------


def save_checkpoint(path, params: ConFormerParams, stats: NormalizationStats,
                    best_epoch: int) -> None:
    """Single-file checkpoint: a JSON header (config, parameter list, the
    normalization stats the parameters were fit with, best epoch), then the
    arrays as flat little-endian float64 in enumeration order. Equal inputs
    give equal bytes."""
    header = {
        "config": params.cfg.to_dict(),
        "params": [[name, list(t.shape)] for name, t in params.entries()],
        "extra": {"norm_mean": stats.mean, "norm_std": stats.std, "best_epoch": best_epoch},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, t in params.entries():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ConFormerParams, NormalizationStats]:
    """Inverse of ``save_checkpoint``: the parameters and their normalization
    stats. The header is validated against ``param_spec``."""
    with open(path, "rb") as fh:
        data = fh.read()
    buf = io.BytesIO(data)
    if buf.read(len(_MAGIC)) != _MAGIC:
        raise LoadError(f"{path}: not a checkpoint file (bad magic)")
    size = buf.read(8)
    if len(size) != 8:
        raise LoadError(f"{path}: truncated header length")
    (header_len,) = struct.unpack("<Q", size)
    if header_len > len(data) - buf.tell():  # ``read`` overflows past int64
        raise LoadError(f"{path}: truncated header of {header_len} bytes")
    try:
        header = json.loads(buf.read(header_len).decode("utf-8"))
        cfg = config_from_dict(ConFormerConfig, header["config"], "model")
        extra = header["extra"]
        stats = NormalizationStats(extra["norm_mean"], extra["norm_std"])
        listed = header["params"]
        # One entry past the listed ones, as n_layers may be too large to list.
        spec = list(itertools.islice(param_spec(cfg), len(listed) + 1))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise LoadError(f"{path}: corrupt checkpoint header: {exc!r}") from exc
    if listed != [[name, list(shape)] for name, shape, _ in spec]:
        raise LoadError(f"{path}: parameter enumeration does not match config")
    arrays: "OrderedDict[str, nm.Tensor]" = OrderedDict()
    for name, shape, _ in spec:
        # Checked before reading: ``read`` overflows on a size beyond int64.
        n_bytes = 8 * math.prod(shape)
        if n_bytes > len(data) - buf.tell():
            raise LoadError(f"{path}: truncated data for parameter '{name}'")
        try:
            arrays[name] = nm.Tensor(np.frombuffer(buf.read(n_bytes), dtype="<f8").reshape(shape))
        except NumericsError as exc:
            raise LoadError(f"{path}: non-finite value in parameter '{name}'") from exc
    if buf.read(1):
        raise LoadError(f"{path}: trailing bytes after parameter data")
    return ConFormerParams(cfg, arrays), stats
