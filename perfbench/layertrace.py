"""Per-layer tracing of the conformer package, applied from outside.

``Tracer.install`` swaps each traced public function for a timing wrapper in
every ``conformer`` module namespace that holds it, because ``model``,
``trainer`` and ``cli`` import layer functions by name.  The autodiff
primitives are patched in the globals of ``conformer.numerics``, which is also
where ``Tensor.__add__`` and the other operator methods look them up.

Layer spans nest: a span's self time is its duration minus the durations of
the layer spans it directly contains.  Primitive calls are not spans; they
only accumulate counts, forward time and output bytes, so ``model.forward``
self time keeps the feed-forward block, dropout and glue.

Backward time is charged from outside as well: every node a wrapped primitive
returns gets its ``_vjp`` wrapped in a timer that charges the primitive and
each layer span that was open when the node was made.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

# Autodiff primitives: function name in conformer.numerics -> metric name.
PRIMITIVES = {
    "matmul": "matmul", "add": "add", "sub": "sub", "mul": "mul", "div": "div",
    "gelu": "gelu", "softmax_last_axis": "softmax_last_axis",
    "concat_last_axis": "concat_last_axis", "slice_last_axis": "slice_last_axis",
    "gather_rows": "gather_rows", "transpose": "transpose", "reshape": "reshape",
    "broadcast_to": "broadcast_to", "tsum": "sum", "sqrt": "sqrt",
    "absolute": "absolute",
}

# Layer spans that build autodiff nodes: (module, function) -> metric prefix.
DIFF_LAYERS = {
    ("attention", "conditional_qkv"): "attention.conditional_qkv",
    ("attention", "spatial_attention"): "attention.spatial_attention",
    ("attention", "temporal_attention"): "attention.temporal_attention",
    ("attention", "fuse"): "attention.fuse",
    ("conditioning", "generate_factors"): "conditioning.generate_factors",
    ("conditioning", "gln"): "conditioning.gln",
    ("conditioning", "modulated_residual"): "conditioning.modulated_residual",
    ("graph", "propagate"): "graph.propagate",
    ("embeddings", "embed_all"): "embeddings.embed_all",
    ("model", "readout"): "model.readout",
}

# Stages with a term in the FLOPs formula ``K|E|D + TN^2D + NT^2D + NTD^2``.
FLOP_STAGES = ("graph.propagate", "attention.spatial_attention",
               "attention.temporal_attention", "attention.conditional_qkv")

# The stage spans that ``model.forward`` directly contains.
FORWARD_STAGES = tuple(DIFF_LAYERS.values()) + ("graph.normalize_adjacency",)


def _count_tape(loss) -> int:
    """Nodes reachable from ``loss``: the tape ``backward`` walks."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _batch_of(x) -> int:
    """Windows in a ``[B, T, N, D]`` tensor, or 1 for an unbatched one."""
    return x.shape[0] if len(x.shape) == 4 else 1


class Tracer:
    """Collects spans and counters while installed; restores on ``remove``."""

    def __init__(self):
        self.open: list[list] = []          # [name, child seconds] per open span
        self.spans: list[tuple] = []        # (name, start, seconds, parent)
        self.seconds = defaultdict(float)   # inclusive span time per name
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)    # extra per-layer quantities
        self.bwd = defaultdict(float)       # backward seconds per prim or layer
        self.tape_nodes: list[int] = []
        self._patches: list[tuple] = []

    # -- installing ---------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if name == "conformer" or name.startswith("conformer.")]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import conformer.numerics as nm
        from conformer import attention, cli, conditioning, data, embeddings
        from conformer import graph, model, trainer
        mods = {"attention": attention, "conditioning": conditioning, "graph": graph,
                "embeddings": embeddings, "model": model}

        for fn_name, metric in PRIMITIVES.items():
            self._replace(getattr(nm, fn_name), self._primitive(metric, getattr(nm, fn_name)))
        for (mod, fn_name), metric in DIFF_LAYERS.items():
            original = getattr(mods[mod], fn_name)
            self._replace(original, self._span(metric, original, self._windows_hook(metric)))

        self._replace(nm.backward, self._span("numerics.backward", nm.backward,
                                              pre=self._record_tape))
        self._replace(model.forward, self._span("model.forward", model.forward))
        self._replace(graph.normalize_adjacency,
                      self._span("graph.normalize_adjacency", graph.normalize_adjacency))
        self._replace(trainer.masked_mae_loss,
                      self._span("trainer.masked_mae_loss", trainer.masked_mae_loss))
        self._replace(trainer.evaluate, self._span("trainer.evaluate", trainer.evaluate))
        self._replace(trainer.predict_windows,
                      self._span("trainer.predict_windows", trainer.predict_windows,
                                 post=self._count_batches(trainer.predict_windows)))
        step = trainer.AdamState.step
        self._patches.append((trainer.AdamState, "step", step))
        trainer.AdamState.step = self._span("trainer.AdamState.step", step)

        self._replace(data.synth_generate,
                      self._span("data.synth_generate", data.synth_generate))
        self._replace(data.save_dataset,
                      self._span("data.save_dataset", data.save_dataset,
                                 post=self._count_saved_bytes))
        self._replace(data.load_dataset,
                      self._span("data.load_dataset", data.load_dataset,
                                 post=self._count_rows))
        self._replace(data.make_windows,
                      self._span("data.make_windows", data.make_windows,
                                 post=self._count_windows))
        # One footprint per synthetic event: counts events, no timing.
        self._replace(data._incident_footprint,
                      self._counter("data.events", data._incident_footprint))
        self._replace(cli.main, self._span("cli.main", cli.main))

    def remove(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, post=None, pre=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            parent = self.open[-1][0] if self.open else None
            frame = [name, 0.0]
            self.open.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.open.pop()
                if self.open:
                    self.open[-1][1] += elapsed
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - frame[1]
                self.calls[name] += 1
                self.spans.append((name, start, elapsed, parent))
            if post is not None:
                post(out, args, kwargs)
            return out
        return wrapper

    def _primitive(self, metric, fn):
        key = "numerics." + metric

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.counts[key + ".fwd_s"] += time.perf_counter() - start
            self.counts[key + ".calls"] += 1
            self.counts[key + ".bytes_out"] += out.data.nbytes
            vjp = out._vjp
            charged = (key,) + tuple(frame[0] for frame in self.open)

            def timed_vjp(grad):
                t0 = time.perf_counter()
                result = vjp(grad)
                elapsed = time.perf_counter() - t0
                for name in charged:
                    self.bwd[name] += elapsed
                return result

            out._vjp = timed_vjp
            return out
        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- per-call quantities ------------------------------------------------

    def _record_tape(self, args, kwargs) -> None:
        self.tape_nodes.append(_count_tape(args[0] if args else kwargs["loss"]))

    def _windows_hook(self, metric):
        def post(out, args, kwargs):
            self.counts[metric + ".windows"] += _batch_of(args[0])
        return post

    def _count_batches(self, fn):
        signature = inspect.signature(fn)

        def post(out, args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            n = len(bound.arguments["windows"])
            self.counts["trainer.predict_windows.batches"] += math.ceil(
                n / bound.arguments["batch_size"])
        return post

    def _count_saved_bytes(self, out, args, kwargs) -> None:
        out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
        self.counts["data.save_dataset.bytes"] += sum(
            entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file())

    def _count_rows(self, bundle, args, kwargs) -> None:
        self.counts["data.load_dataset.rows"] += (
            bundle.values.size + int((bundle.acc_ids != 0).sum())
            + int((bundle.reg_ids != 0).sum()) + len(bundle.graph.edges))

    def _count_windows(self, windows, args, kwargs) -> None:
        self.counts["data.make_windows.windows"] += len(windows)

    # -- results ------------------------------------------------------------

    def metrics(self, n_ops: int, flop_terms: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics, each per operation of the workload's loop."""
        per = 1.0 / n_ops
        out: dict[str, float] = {}
        for metric in PRIMITIVES.values():
            key = "numerics." + metric
            for q in ("calls", "fwd_s", "bytes_out"):
                out[f"{key}.{q}"] = self.counts[f"{key}.{q}"] * per
            out[key + ".bwd_s"] = self.bwd[key] * per
        out["numerics.backward.s"] = self.seconds["numerics.backward"] * per
        out["numerics.tape_nodes"] = (sorted(self.tape_nodes)[len(self.tape_nodes) // 2]
                                      if self.tape_nodes else 0)
        for metric in DIFF_LAYERS.values():
            out[metric + ".fwd_s"] = self.seconds[metric] * per
            out[metric + ".bwd_s"] = self.bwd[metric] * per
        for metric in FLOP_STAGES:
            busy = self.seconds[metric]
            out[metric + ".formula_flops_per_s"] = (
                flop_terms[metric] * self.counts[metric + ".windows"] / busy
                if busy else 0.0)
        out["graph.normalize_adjacency.calls"] = self.calls["graph.normalize_adjacency"] * per
        out["graph.normalize_adjacency.s"] = self.seconds["graph.normalize_adjacency"] * per
        out["model.forward.s"] = self.seconds["model.forward"] * per
        out["model.forward.self_s"] = self.self_seconds["model.forward"] * per
        for name in ("trainer.AdamState.step", "trainer.masked_mae_loss",
                     "trainer.evaluate", "trainer.predict_windows",
                     "data.synth_generate", "data.save_dataset", "data.load_dataset",
                     "data.make_windows"):
            out[name + ".s"] = self.seconds[name] * per
        for name in ("trainer.predict_windows.batches", "data.save_dataset.bytes",
                     "data.load_dataset.rows", "data.make_windows.windows"):
            out[name] = self.counts[name] * per
        out["cli.main.self_s"] = self.self_seconds["cli.main"] * per
        return out

    def forward_children_calls(self) -> dict[str, int]:
        """Calls of each stage span opened directly inside ``model.forward``."""
        totals = defaultdict(int)
        for name, _, _, parent in self.spans:
            if parent == "model.forward":
                totals[name] += 1
        return dict(totals)
