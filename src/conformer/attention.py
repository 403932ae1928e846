"""Spatial and temporal multi-head self-attention with conditional key/value
augmentation and MLP fusion."""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .errors import DimensionError


def conditional_qkv(x_gln: nm.Tensor, x_c: nm.Tensor, params,
                    prefix: str) -> tuple[nm.Tensor, nm.Tensor, nm.Tensor]:
    """Condition-augmented projections: Q from x_gln, K/V from [x_gln || x_c].

    Reads ``{prefix}.wq/bq/wk/bk/wv/bv``; conditioning enters only K and V.
    """
    augmented = nm.concat_last_axis([x_gln, x_c])
    q = nm.affine(x_gln, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    k = nm.affine(augmented, params[f"{prefix}.wk"], params[f"{prefix}.bk"])
    v = nm.affine(augmented, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    return q, k, v


def _split_heads(x: nm.Tensor, n_heads: int) -> nm.Tensor:
    # [..., L, D] -> [..., H, L, d_head]
    d = x.shape[-1]
    if d % n_heads != 0:
        raise DimensionError(f"feature width {d} not divisible by {n_heads} heads")
    parts = x.shape[:-1] + (n_heads, d // n_heads)
    return nm.moveaxis(nm.reshape(x, parts), -2, -3)


def _merge_heads(x: nm.Tensor) -> nm.Tensor:
    # [..., H, L, d_head] -> [..., L, H * d_head]
    merged = nm.moveaxis(x, -3, -2)
    return nm.reshape(merged, merged.shape[:-2] + (merged.shape[-2] * merged.shape[-1],))


def _attend(q: nm.Tensor, k: nm.Tensor, v: nm.Tensor, n_heads: int) -> nm.Tensor:
    """Scaled dot-product attention over the second-to-last axis, per head."""
    if q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(f"q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    qh, kh, vh = (_split_heads(t, n_heads) for t in (q, k, v))
    d_head = qh.shape[-1]
    weights = nm.attention_weights(qh, kh, 1.0 / np.sqrt(d_head))
    return _merge_heads(nm.matmul(weights, vh))


def spatial_attention(q: nm.Tensor, k: nm.Tensor, v: nm.Tensor,
                      n_heads: int = 1) -> nm.Tensor:
    """Full softmax attention over the node axis, per timestep and head.

    Inputs are ``[..., T, N, D]``; output has the same shape.
    """
    q, k, v = nm.as_tensor(q), nm.as_tensor(k), nm.as_tensor(v)
    return _attend(q, k, v, n_heads)


def temporal_attention(q: nm.Tensor, k: nm.Tensor, v: nm.Tensor,
                       n_heads: int = 1) -> nm.Tensor:
    """Full softmax attention over the time axis, per node and head.

    Same contract as ``spatial_attention`` with the roles of T and N
    exchanged: inputs ``[..., T, N, D]`` are transposed to put time
    second-to-last, attended, and transposed back.
    """
    q, k, v = nm.as_tensor(q), nm.as_tensor(k), nm.as_tensor(v)
    if q.ndim < 3:
        raise DimensionError(f"temporal_attention expects [..., T, N, D], got {q.shape}")
    swap = lambda t: nm.moveaxis(t, -3, -2)
    out = _attend(swap(q), swap(k), swap(v), n_heads)
    return nm.moveaxis(out, -3, -2)


def fuse(x_sp: nm.Tensor, x_te: nm.Tensor, params, prefix: str) -> nm.Tensor:
    """Blend the spatial and temporal branches: ``MLP(x_sp || x_te)``, reading
    ``{prefix}.w`` and ``{prefix}.b``."""
    x_sp, x_te = nm.as_tensor(x_sp), nm.as_tensor(x_te)
    if x_sp.shape != x_te.shape:
        raise DimensionError(f"branch shapes differ: {x_sp.shape} vs {x_te.shape}")
    both = nm.concat_last_axis([x_sp, x_te])
    return nm.affine(both, params[f"{prefix}.w"], params[f"{prefix}.b"])
