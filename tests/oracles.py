"""Slow, obviously-correct references that the tests compare the package to.

Nothing under ``src/conformer`` calls these; each is the oracle for a fast
path there: ``index_time`` for the vectorized ``embeddings.time_indices``,
``reference_attention`` for ``numerics.attention``, ``reference_operator``
for ``graph.normalize_adjacency``, ``reference_forward`` for
``model.forward``, and ``finite_difference_gradient`` for every VJP that
``numerics.backward`` runs. ``composite_gln``, ``composite_gelu_affine`` and
``composite_dropout`` are the chains of autodiff nodes that ``numerics.gln``,
``numerics.gelu_affine`` and ``numerics.dropout`` replace, kept as the
references those nodes must match bitwise, in value and in every gradient.
``mean_std_last_axis`` is the taped mean and std that ``composite_gln`` builds
on, and the reference whose op order ``conditioning._normalize_rows`` keeps.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from conformer import numerics as nm
from conformer.embeddings import CalendarIndexer
from conformer.errors import ContractError, DimensionError
from conformer.graph import GraphSpec


def mean_std_last_axis(x, eps: float) -> tuple[nm.Tensor, nm.Tensor]:
    """Per-slice mean and std over the last axis, as autodiff nodes.

    Uses population (biased) variance; ``std = sqrt(var + eps)`` so it is
    strictly positive even on constant slices.
    """
    x = nm.as_tensor(x)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise DimensionError(f"mean_std_last_axis: empty last axis in {x.shape}")
    if eps <= 0:
        raise ContractError("mean_std_last_axis: eps must be > 0")
    inv_n = 1.0 / x.shape[-1]
    mean = nm.tsum(x, axis=-1, keepdims=True) * inv_n
    centered = x - mean
    var = nm.tsum(centered * centered, axis=-1, keepdims=True) * inv_n
    std = nm.sqrt(var + eps)
    return mean, std


def composite_gln(x, gamma, beta, eps: float) -> nm.Tensor:
    """Guided layer norm as ``mean_std_last_axis`` and four arithmetic nodes."""
    mean, std = mean_std_last_axis(x, eps)
    return nm.add(nm.mul(gamma, nm.div(nm.sub(x, mean), std)), beta)


def composite_gelu_affine(h, w, b) -> nm.Tensor:
    """A factor generator's head as a ``gelu`` node and an ``affine`` node."""
    return nm.affine(nm.gelu(h), w, b)


def composite_dropout(x, kept: np.ndarray, keep: float) -> nm.Tensor:
    """Dropout as a ``mul`` by the float mask ``kept / keep``."""
    return x * (kept / keep)


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


_erf = np.vectorize(math.erf, otypes=[np.float64])


def reference_forward(x, acc, reg, t0, graph: GraphSpec, params, cfg) -> np.ndarray:
    """ConFormer's forward pass without dropout, written from the model
    description in plain numpy: ``[T', N, 1]``, or ``[B, T', N, 1]`` for
    batched ``x``. Parameters are read by their ``param_spec`` names.

    Each layer propagates its input over K hops into the condition, from
    which two generators give (gamma, beta, alpha) for the two guided layer
    norms. The condition joins K and V but not Q, and alpha gates each
    residual branch. The readout flattens each node's window in (T, D) order.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        return reference_forward(x[None], np.asarray(acc)[None], np.asarray(reg)[None],
                                 [t0], graph, params, cfg)[0]
    p = {name: t.data for name, t in params.entries()}
    off, d = cfg.ablated, cfg.d_model
    n_win, t_len, n_nodes, _ = x.shape

    def dense(a, w, b):
        return np.einsum("...i,io->...o", a, p[w]) + p[b]

    def gelu(a):
        return 0.5 * a * (1.0 + _erf(a / math.sqrt(2.0)))

    def per_node(rows):  # [B, T, width] -> [B, T, N, width]
        return np.repeat(rows[:, :, None], n_nodes, axis=2)

    acc = np.zeros_like(acc) if off("no-accident") else np.asarray(acc)
    reg = np.zeros_like(reg) if off("no-regulation") else np.asarray(reg)
    cal = cfg.calendar()
    dow_tod = np.array([[index_time(int(s) + t, cal) for t in range(t_len)]
                        for s in np.reshape(t0, -1)])
    h = dense(np.concatenate([
        dense(x, "embed.data_proj.w", "embed.data_proj.b"),
        p["embed.acc_table"][acc], p["embed.reg_table"][reg],
        per_node(p["embed.dow_table"][dow_tod[..., 0]]),
        per_node(p["embed.tod_table"][dow_tod[..., 1]]),
        np.repeat(p["embed.adaptive"][None], n_win, axis=0)], axis=-1),
        "embed.fuse.w", "embed.fuse.b")

    def factors(x_c, gen: str, ln: str):
        raw = dense(gelu(dense(x_c, gen + ".hidden.w", gen + ".hidden.b")),
                    gen + ".out.w", gen + ".out.b")
        gamma, beta, alpha = raw[..., :d] + 1.0, raw[..., d:2 * d], raw[..., 2 * d:]
        if off("no-gamma"):
            gamma = np.ones_like(gamma)
        if off("no-beta"):
            beta = np.zeros_like(beta)
        if off("no-alpha"):
            alpha = np.ones_like(alpha)
        if off("plain-ln"):
            gamma, beta = p[ln + ".gamma"], p[ln + ".beta"]
        return gamma, beta, alpha

    def gln(a, gamma, beta, eps):
        mu = a.mean(axis=-1, keepdims=True)
        var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
        return gamma * (a - mu) / np.sqrt(var + eps) + beta

    op = reference_operator(graph)
    for i in range(cfg.n_layers):
        layer = f"layer{i}."
        hops = [h]
        for _ in range(cfg.k_hops):
            hops.append(np.einsum("uv,btvd->btud", op, hops[-1]))
        x_c = np.concatenate(hops, axis=-1)
        gamma_c, beta_c, alpha_c = factors(x_c, layer + "gen_c", layer + "ln1")
        gamma_f, beta_f, alpha_f = factors(x_c, layer + "gen_f", layer + "ln2")

        z = gln(h, gamma_c, beta_c, cfg.eps)
        cond = np.concatenate([z, x_c], axis=-1)
        q = dense(z, layer + "attn.wq", layer + "attn.bq")
        k = dense(cond, layer + "attn.wk", layer + "attn.bk")
        v = dense(cond, layer + "attn.wv", layer + "attn.bv")
        branches = [np.zeros_like(q) if off(flag) else
                    reference_attention(q, k, v, cfg.n_heads, axis)
                    for flag, axis in (("no-spatial", -2), ("no-temporal", -3))]
        att = dense(np.concatenate(branches, axis=-1),
                    layer + "attn.fuse.w", layer + "attn.fuse.b")
        h = h + alpha_c * att

        z = gln(h, gamma_f, beta_f, cfg.eps)
        ff = dense(gelu(dense(z, layer + "ff.w1", layer + "ff.b1")),
                   layer + "ff.w2", layer + "ff.b2")
        h = h + alpha_f * ff

    w = p["readout.w"].reshape(t_len, d, cfg.t_out)  # row t * D + j is w[t, j]
    pred = np.einsum("btnj,tjo->bon", h, w) + p["readout.b"][:, None]
    return pred[..., None]


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
