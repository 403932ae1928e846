"""(gamma, beta, alpha) factor generation from the condition features, guided
layer normalization, and the modulated residual connection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError, DimensionError


@dataclass(frozen=True)
class ConditionFactors:
    """Per-token modulation triplet.

    ``gamma`` and ``beta`` are per-channel ``[..., D]``; ``alpha`` is a
    per-token scalar ``[..., 1]`` broadcast over the feature axis. Fresh
    (zero-initialized) generator heads give gamma=1, beta=0, alpha=0.
    """

    gamma: nm.Tensor
    beta: nm.Tensor
    alpha: nm.Tensor


def generate_factors(x_c: nm.Tensor, params, prefix: str) -> ConditionFactors:
    """Two-layer MLP from the condition features to (gamma, beta, alpha).

    Reads ``{prefix}.hidden.w/b`` and ``{prefix}.out.w/b``; ``out.w`` has
    ``2*D + 1`` columns and starts at zero, and gamma carries a +1 offset, so
    a fresh generator gives gamma=1, beta=0, alpha=0 and GLN is plain layer norm.
    """
    hidden = nm.affine(x_c, params[f"{prefix}.hidden.w"], params[f"{prefix}.hidden.b"])
    out_w = params[f"{prefix}.out.w"]
    raw = nm.gelu_affine(hidden, out_w, params[f"{prefix}.out.b"])
    d = (out_w.shape[-1] - 1) // 2
    gamma = nm.slice_last_axis(raw, 0, d) + 1.0
    beta = nm.slice_last_axis(raw, d, 2 * d)
    alpha = nm.slice_last_axis(raw, 2 * d, 2 * d + 1)
    return ConditionFactors(gamma=gamma, beta=beta, alpha=alpha)


def gln(x: nm.Tensor, f: ConditionFactors, eps: float) -> nm.Tensor:
    """Guided layer normalization: ``gamma * (x - mu) / sigma + beta``.

    Statistics are per token over the feature axis; with gamma=1 and beta=0
    this is exactly standard (affine-free) layer normalization. One node,
    ``nm.gln``.
    """
    x = nm.as_tensor(x)
    if f.gamma.shape[-1] != x.shape[-1]:
        raise DimensionError(
            f"gamma width {f.gamma.shape[-1]} does not match features {x.shape[-1]}")
    return nm.gln(x, f.gamma, f.beta, eps)


def modulated_residual(x_in: nm.Tensor, branch_out: nm.Tensor,
                       alpha: nm.Tensor) -> nm.Tensor:
    """``x_in + alpha * branch_out`` with alpha broadcast over features."""
    x_in, branch_out = nm.as_tensor(x_in), nm.as_tensor(branch_out)
    if x_in.shape != branch_out.shape:
        raise DimensionError(
            f"residual shapes differ: {x_in.shape} vs {branch_out.shape}")
    return x_in + nm.as_tensor(alpha) * branch_out


def _normalize_rows(x: np.ndarray, eps: float) -> np.ndarray:
    """``(x - mean) / sqrt(var + eps)`` per row, with the population variance,
    in the op order of ``nm.gln``'s composite."""
    inv_n = 1.0 / x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) * inv_n
    centered = x - mean
    return centered / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_n + eps)


def _modulated_rows(q, k, gamma, beta, eps: float):
    """``gamma * N_Q``, ``gamma * N_K`` and ``beta`` as float64 rows, with q
    and k checked finite, their feature widths and gamma's equal and nonzero,
    and ``eps > 0``."""
    q, k = (np.atleast_2d(nm.Tensor(t).data) for t in (q, k))
    gamma = np.asarray(gamma, dtype=np.float64).reshape(-1)
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    if q.shape[-1] != k.shape[-1] or q.shape[-1] != gamma.shape[0]:
        raise DimensionError(
            f"q/k/gamma feature widths differ: {q.shape[-1]}, {k.shape[-1]}, "
            f"{gamma.shape[0]}")
    if not gamma.size:
        raise DimensionError(f"expanded scores: empty feature axis in {q.shape}")
    if eps <= 0:
        raise ContractError(f"expanded scores: eps must be > 0, got {eps}")
    return gamma * _normalize_rows(q, eps), gamma * _normalize_rows(k, eps), beta


def expanded_score_terms(q, k, gamma, beta, eps: float = 1e-12):
    """The four terms of the binomial expansion of ``Q' K'^T``.

    With ``N_Q = (Q - mu_Q) / sigma_Q`` per token (row), the terms are
    ``(g N_Q)(g N_K)^T``, ``(g N_Q) b^T``, ``b (g N_K)^T``, and ``b b^T``
    (the last two broadcast across rows/columns of the score matrix).
    """
    gnq, gnk, beta = _modulated_rows(q, k, gamma, beta, eps)
    term_gg = gnq @ gnk.T
    term_gb = (gnq @ beta)[:, None]
    term_bg = (gnk @ beta)[None, :]
    term_bb = float(beta @ beta)
    return term_gg, term_gb, term_bg, term_bb


def expanded_score_identity(q, k, gamma, beta, eps: float = 1e-12):
    """Both sides of the reformulated-attention score identity.

    lhs is the direct product ``Q' K'^T`` of the normalized-and-modulated
    queries and keys; rhs is its four-term binomial expansion. The two are
    algebraically identical; callers assert elementwise agreement.
    """
    gnq, gnk, b = _modulated_rows(q, k, gamma, beta, eps)
    lhs = (gnq + b) @ (gnk + b).T
    term_gg, term_gb, term_bg, term_bb = expanded_score_terms(q, k, gamma, beta, eps)
    rhs = term_gg + term_gb + term_bg + term_bb
    return lhs, rhs
