"""Spatial and temporal multi-head self-attention with conditional key/value
augmentation and MLP fusion."""

from __future__ import annotations

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


def spatial_attention(q: nm.Tensor, k: nm.Tensor, v: nm.Tensor,
                      n_heads: int) -> nm.Tensor:
    """Full softmax attention over the node axis, per timestep and head.

    Inputs are ``[..., T, N, D]``; output has the same shape.
    """
    return nm.attention(q, k, v, n_heads, axis=-2)


def temporal_attention(q: nm.Tensor, k: nm.Tensor, v: nm.Tensor,
                       n_heads: int) -> nm.Tensor:
    """Full softmax attention over the time axis, per node and head.

    Same contract as ``spatial_attention`` with the roles of T and N
    exchanged: inputs are ``[..., T, N, D]`` and time is the attended axis.
    """
    return nm.attention(q, k, v, n_heads, axis=-3)


def fuse(x_sp: nm.Tensor, x_te: nm.Tensor, params, prefix: str) -> nm.Tensor:
    """Blend the spatial and temporal branches: ``MLP(x_sp || x_te)``, reading
    ``{prefix}.w`` and ``{prefix}.b``."""
    x_sp, x_te = nm.as_tensor(x_sp), nm.as_tensor(x_te)
    if x_sp.shape != x_te.shape:
        raise DimensionError(f"branch shapes differ: {x_sp.shape} vs {x_te.shape}")
    both = nm.concat_last_axis([x_sp, x_te])
    return nm.affine(both, params[f"{prefix}.w"], params[f"{prefix}.b"])
