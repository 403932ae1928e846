"""End-to-end and per-layer benchmark of the conformer reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload train-n30 --seed 1 --seconds 25 --trace 0

Each workload is one process with one client in a closed loop: the next call
starts when the previous one returns.  ``--seed`` makes every input; the
program only sees what is generated from it.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  ``layer_map.json`` beside this file
says what each workload measures and which end-to-end metric each layer
should move.  A JSON record of the run, with its metadata, goes to
``.perfbench-out/`` in the repository root.

``setup_s`` is the median of ``SETUP_REPS`` cold set-ups: this process's own,
timed from its first line through the warm-up call, and those of fresh
processes started with ``--setup-only`` after the timed loop.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ast  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, SRC)
# Evaluation must run single-client and unsharded; the variable is recorded.
THREADS_ENV = os.environ.pop("CONFORMER_THREADS", None)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import conformer  # noqa: E402
import conformer.numerics as nm  # noqa: E402
# Layer functions are called through their modules, so that the traced run's
# wrappers, installed on the module attributes, see the benchmark's calls.
from conformer import cli, data, trainer  # noqa: E402
from conformer.data import SplitSpec, SynthConfig  # noqa: E402
from conformer.model import ConFormerConfig, estimate_flops, init_params  # noqa: E402
from conformer.trainer import TrainConfig  # noqa: E402

from layertrace import DIFF_LAYERS, FORWARD_STAGES, Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _START
SETUP_REPS = 3
HORIZONS = [3, 6, 12]


if not os.path.abspath(conformer.__file__).startswith(SRC + os.sep):
    raise ImportError(f"conformer imported from {conformer.__file__}, not {SRC}")


class Tally:
    """Operations attempted and the indices of those whose checks failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[int] = set()

    def fail(self, index: int, reason: str) -> None:
        print(f"check failed on operation {index}: {reason}", file=sys.stderr)
        self.failed.add(index)

    def check(self, reason: str, ok: bool) -> None:
        """One extra checked operation beyond the timed loop."""
        self.attempted += 1
        if not ok:
            self.fail(self.attempted - 1, reason)


def _model_config(bundle, n_nodes: int) -> ConFormerConfig:
    """The acceptance criterion-8 model at the bundle's node count."""
    return ConFormerConfig(
        t_in=12, t_out=12, n_nodes=n_nodes, d_in=1, d_model=32, k_hops=2,
        n_heads=4, n_layers=1, dropout=0.1, steps_per_day=bundle.steps_per_day,
        start_weekday=bundle.start_weekday, start_slot=bundle.start_slot,
        n_acc_codes=len(bundle.acc_vocab), n_reg_codes=len(bundle.reg_vocab))


def flop_terms(cfg: ConFormerConfig, n_edges: int) -> dict[str, int]:
    """Each term of ``estimate_flops`` keyed by the stage it models."""
    t, n, d = cfg.t_in, cfg.n_nodes, cfg.d_model
    terms = {"graph.propagate": cfg.k_hops * n_edges * d,
             "attention.spatial_attention": t * n * n * d,
             "attention.temporal_attention": n * t * t * d,
             "attention.conditional_qkv": n * t * d * d}
    if sum(terms.values()) != estimate_flops(cfg, n_edges):
        raise RuntimeError("flop_terms no longer matches estimate_flops")
    return terms


def _finite_table(table) -> bool:
    return all(m.n_valid > 0 and np.isfinite([m.mae, m.rmse, m.mape]).all()
               for m in table.values())


class TrainN30:
    """One-epoch ``train`` then test ``evaluate`` at the criterion-8 config."""

    name = "train-n30"
    loop_share = 1.0
    min_ops, min_ops_traced = 2, 1
    synth = SynthConfig(n_nodes=30, days=1, interval_minutes=5, topology="ring",
                        incident_rate=0.3)
    # An epoch is one full batch of 64 training windows, then 32 validation
    # windows; the test split holds another 64.  Short epochs give enough
    # epochs per run for a steady median.
    split = SplitSpec(train=(0, 87), val=(87, 142), test=(142, 229))

    def __init__(self, seed: int):
        self.seed = seed
        self.digest = None

    def config(self) -> dict:
        return {"synth": vars(self.synth), "model": self.cfg.to_dict(),
                "train": self.tcfg.to_dict(), "split": vars(self.split),
                "eval_horizons": HORIZONS}

    def setup(self) -> None:
        self.bundle = data.synth_generate(self.synth, seed=self.seed)
        self.cfg = _model_config(self.bundle, self.synth.n_nodes)
        self.tcfg = TrainConfig(learning_rate=2e-3, batch_size=64, max_epochs=1,
                                patience=20, seed=self.seed)
        self.test_windows = len(data.make_windows(self.bundle, self.split.test, 12, 12))
        # Warm-up: the timed call itself, so first-call costs stay in set-up.
        trainer.train(self.bundle, self.cfg, self.tcfg, self.split)
        self.flops = flop_terms(self.cfg, len(self.bundle.graph.edges))

    def op(self, index: int, tally: Tally) -> dict:
        t0 = time.perf_counter()
        result = trainer.train(self.bundle, self.cfg, self.tcfg, self.split)
        t1 = time.perf_counter()
        table = trainer.evaluate(result.params, self.bundle, self.split, "test",
                                 HORIZONS, result.stats)
        t2 = time.perf_counter()
        losses = [v for rec in result.history for v in (rec.train_mae, rec.val_mae)]
        if len(result.history) != 1 or not np.isfinite(losses).all():
            tally.fail(index, f"non-finite or missing history {result.history}")
        if not _finite_table(table):
            tally.fail(index, "non-finite test metrics")
        h = hashlib.sha256()
        for name, tensor in result.params.entries():
            h.update(name.encode())
            h.update(tensor.data.tobytes())
        h.update(repr(sorted(table.items())).encode())
        if self.digest is None:
            self.digest = h.hexdigest()
        elif h.hexdigest() != self.digest:
            tally.fail(index, "same seed gave different parameter bytes or metrics")
        return {"op_s": t1 - t0, "read_s": t2 - t1}

    def finish(self, tally: Tally, samples: list[dict]) -> dict:
        return {"read_windows_per_s": _read_rate(self.test_windows, samples)}

    def named(self, e2e: dict) -> dict:
        return {"train_epoch_s": (e2e["op_p50_ms"] / 1000, "s"),
                "eval_windows_per_s": (e2e["read_windows_per_s"], "windows/s")}


class PredictN300:
    """Back-to-back single-window ``predict_windows`` on an N=300 graph."""

    name = "predict-n300"
    min_ops, min_ops_traced = 100, 20
    # The batched check calls in ``finish`` take about as long as the loop,
    # so the loop gets half of the run.
    loop_share = 0.5
    synth = SynthConfig(n_nodes=300, days=1, interval_minutes=5,
                        topology="random-geometric", incident_rate=0.3)
    # Windows per batched check call, one batch at the default batch size:
    # the largest chunk whose measured peak RSS stays under 1 GB at N=300
    # (see "read" in layer_map.json).
    check_chunk = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.used: list = []

    def config(self) -> dict:
        return {"synth": vars(self.synth), "model": self.cfg.to_dict(),
                "head_init": "normal(0, 0.05) on *.out.w and *.out.b",
                "check_windows_per_call": self.check_chunk}

    def setup(self) -> None:
        self.bundle = data.synth_generate(self.synth, seed=self.seed)
        self.cfg = _model_config(self.bundle, self.synth.n_nodes)
        self.params = init_params(self.cfg, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        # Nonzero generator heads make alpha != 0, so every branch counts.
        self.params.replace({
            name: rng.normal(0.0, 0.05, t.shape) for name, t in self.params.entries()
            if name.endswith((".out.w", ".out.b"))})
        split = data.chronological_split(self.bundle.n_steps)
        lo, hi = split.train
        self.stats = data.fit_normalization(self.bundle.values[lo:hi])
        self.windows = data.make_windows(self.bundle, (0, self.bundle.n_steps), 12, 12)
        self.order = rng.permutation(len(self.windows))
        self.max_ops = len(self.windows) - 1
        warm = [self.windows[self.order[-1]]]  # never one of the timed windows
        trainer.predict_windows(self.params, self.bundle, warm, self.stats)
        self.flops = flop_terms(self.cfg, len(self.bundle.graph.edges))

    def op(self, index: int, tally: Tally) -> dict:
        window = self.windows[self.order[index]]
        t0 = time.perf_counter()
        pred = trainer.predict_windows(self.params, self.bundle, [window], self.stats)
        elapsed = time.perf_counter() - t0
        if pred.shape != (1, 12, self.synth.n_nodes, 1) or not np.isfinite(pred).all():
            tally.fail(index, f"bad forecast of shape {pred.shape}")
        self.used.append((index, window, pred[0]))
        return {"op_s": elapsed}

    def finish(self, tally: Tally, samples: list[dict]) -> dict:
        # Each single-window forecast is checked against its row of one
        # batched call of ``check_chunk`` windows; those calls are the read.
        reads = []
        for lo in range(0, len(self.used), self.check_chunk):
            chunk = self.used[lo:lo + self.check_chunk]
            t0 = time.perf_counter()
            batched = trainer.predict_windows(
                self.params, self.bundle, [w for _, w, _ in chunk], self.stats)
            reads.append({"read_s": (time.perf_counter() - t0) / len(chunk)})
            for row, (index, _, single) in zip(batched, chunk):
                err = nm.relative_error(single, row)
                if not err <= 1e-12:
                    tally.fail(index, f"single-window forecast is {err:.3e} from batched")
        return {"read_windows_per_s": _read_rate(1, reads)}

    def named(self, e2e: dict) -> dict:
        return {"predict_p50_ms": (e2e["op_p50_ms"], "ms"),
                "predict_p90_ms": (e2e["op_p90_ms"], "ms")}


class DataN300:
    """In-process ``synth`` then ``hi`` CLI calls on an N=300 dataset."""

    name = "data-n300"
    loop_share = 1.0
    # A 4-day bundle makes one operation last about as long as a train-n30
    # epoch, long enough to average over the second-scale swings in machine
    # speed that split shorter operations into a fast and a slow group.
    synth = {"n_nodes": 300, "days": 4, "interval_minutes": 5,
             "topology": "random-geometric", "incident_rate": 0.3}
    # The incident count, and with it the synth cost, is Poisson in the seed
    # (348 to 403 events over ten seeds), so the loop cycles through this many
    # datasets drawn from ``--seed``; dataset 0 always runs twice.
    n_datasets = 4
    min_ops, min_ops_traced = n_datasets + 1, 1

    def __init__(self, seed: int):
        self.seed = seed
        self.seeds = [int(s) for s in
                      np.random.SeedSequence(seed).generate_state(self.n_datasets)]
        self.work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        self.outputs = {}  # dataset -> (synth file digests, hi output)

    def config(self) -> dict:
        return {"synth": self.synth, "synth_seeds": self.seeds,
                "hi": {"split": "test", "t_in": 12, "t_out": 12, "horizons": HORIZONS}}

    def _cli(self, *argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"conformer {' '.join(map(str, argv))} exited {code}")
        return out.getvalue()

    def _write_config(self, name: str, section: dict) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"synth": section}, fh)
        return path

    def _hi(self, data_dir: str) -> str:
        return self._cli("hi", "--data", data_dir, "--t-in", 12, "--t-out", 12,
                         "--horizons", ",".join(map(str, HORIZONS)))

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config_path = self._write_config("run.json", self.synth)
        # Warm-up: the timed calls on a timed input, into their own directory.
        warm_dir = os.path.join(self.work, "warm")
        self._cli("synth", "--config", self.config_path, "--seed", self.seeds[0],
                  "--out", warm_dir)
        self._hi(warm_dir)
        self.flops = {}

    def op(self, index: int, tally: Tally) -> dict:
        k = index % self.n_datasets
        data_dir = os.path.join(self.work, f"synth-{k}")
        t0 = time.perf_counter()
        self._cli("synth", "--config", self.config_path, "--seed", self.seeds[k],
                  "--out", data_dir)
        t1 = time.perf_counter()
        hi_text = self._hi(data_dir)
        t2 = time.perf_counter()
        out = (_digests(data_dir), hi_text)
        if self.outputs.setdefault(k, out) != out:
            tally.fail(index, "same seed gave different synth files or hi output")
        return {"op_s": t1 - t0, "read_s": t2 - t1}

    def finish(self, tally: Tally, samples: list[dict]) -> dict:
        files, hi_text = self.outputs[0]
        bundle = data.synth_generate(SynthConfig(**self.synth), seed=self.seeds[0])
        roundtrip = os.path.join(self.work, "roundtrip")
        data.save_dataset(bundle, roundtrip)
        loaded = data.load_dataset(roundtrip)
        tally.check("load_dataset(save_dataset(b)) is not bitwise b",
                    _bundle_bytes(loaded) == _bundle_bytes(bundle))
        written = {k: v for k, v in files.items() if k != "resolved_config.json"}
        tally.check("synth CLI files differ from save_dataset(synth_generate(...))",
                    written == _digests(roundtrip))
        split = data.chronological_split(loaded.n_steps)
        table = trainer.evaluate_historical_inertia(loaded, split, "test", 12, 12,
                                                    HORIZONS)
        tally.check("hi CLI output differs from evaluate_historical_inertia",
                    _parse_metrics(hi_text) == {
                        k: (m.mae, m.rmse, m.mape, m.n_valid) for k, m in table.items()}
                    and _finite_table(table))
        self.test_windows = len(data.make_windows(loaded, split.test, 12, 12))
        return {"read_windows_per_s": _read_rate(self.test_windows, samples)}

    def named(self, e2e: dict) -> dict:
        return {"synth_s": (e2e["op_p50_ms"] / 1000, "s"),
                "hi_s": (self.test_windows / e2e["read_windows_per_s"], "s")}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TrainN30, PredictN300, DataN300)}


def _read_rate(windows: int, samples: list[dict]) -> float:
    """Windows per second of the run's median read of ``windows`` windows."""
    return windows / statistics.median(s["read_s"] for s in samples)


def _digests(directory: str) -> dict[str, str]:
    out = {}
    for entry in sorted(os.scandir(directory), key=lambda e: e.name):
        with open(entry.path, "rb") as fh:
            out[entry.name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _bundle_bytes(b) -> tuple:
    edges = np.array(b.graph.edges, dtype=np.float64).tobytes()
    return (b.values.tobytes(), b.values.shape, b.acc_ids.tobytes(), b.reg_ids.tobytes(),
            b.graph.n_nodes, edges, b.interval_minutes, b.start_weekday,
            b.start_slot, b.acc_vocab, b.reg_vocab)


def _parse_metrics(text: str) -> dict:
    rows = text.strip().splitlines()
    if rows[0] != "horizon,mae,rmse,mape,n_valid":
        raise RuntimeError(f"unexpected hi header {rows[0]!r}")
    out = {}
    for row in rows[1:]:
        key, mae, rmse, mape, n_valid = row.split(",")
        out[key] = (float(mae), float(rmse), float(mape), int(n_valid))
    return out


# -- measurement ------------------------------------------------------------


def run_ops(workload, tally: Tally, seconds: float, min_ops: int) -> list[dict]:
    """Closed loop: call ``op`` until ``seconds`` pass and ``min_ops`` ran."""
    samples = []
    max_ops = getattr(workload, "max_ops", None)
    start = tally.attempted
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or tally.attempted - start < min_ops:
        if max_ops is not None and tally.attempted >= max_ops:
            break
        index = tally.attempted
        tally.attempted += 1
        try:
            samples.append(workload.op(index, tally))
        except Exception:  # a failed call is counted, the loop keeps running
            traceback.print_exc()
            tally.fail(index, "raised")
    return samples


def _cold_setup(args) -> float:
    """Set-up time of a fresh process running this workload and seed."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metadata ---------------------------------------------------------------


def _blas() -> dict:
    """BLAS library and thread count, capped at the CPUs this process may use."""
    info = {"library": None, "threads": None, "capped_to": None}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{config.get('name')} {config.get('version')}"
    except Exception:  # metadata only: an older numpy has no dict form
        pass
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            if "openblas" in line.lower() and ".so" in line:
                paths.add(line.split()[-1])
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is None:
                    continue
                get.restype = ctypes.c_int
                info["threads"] = get()
                nproc = len(os.sched_getaffinity(0))
                if put is not None and info["threads"] > nproc:
                    put.argtypes = [ctypes.c_int]
                    put(nproc)
                    info["capped_to"] = nproc
                    info["threads"] = get()
                return info
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_facts() -> dict:
    pkg = os.path.join(SRC, "conformer")
    lines, digest = 0, hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                text = fh.read()
            lines += text.count(b"\n")
            digest.update(name.encode() + text)
    tests = None
    test_dir = os.path.join(ROOT, "tests")
    if os.path.isdir(test_dir):
        tests = 0
        for name in os.listdir(test_dir):
            if name.startswith("test_") and name.endswith(".py"):
                with open(os.path.join(test_dir, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                tests += sum(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                             and n.name.startswith("test") for n in ast.walk(tree))
    return {"src_conformer_lines": lines, "src_conformer_sha256": digest.hexdigest(),
            "tier1_test_functions": tests}


def metadata(workload, args, blas: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": workload.config(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "python_threads": threading.active_count(),
        "CONFORMER_THREADS_was": THREADS_ENV, "git_commit": _git_commit(),
        **_source_facts(),
    }


# -- entry point --------------------------------------------------------------


def _declared_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


# The forward pass outside its stage spans is the feed-forward block, dropout
# and glue: 22% of ``model.forward.s`` on train-n30 and 11% on predict-n300
# when measured.  A larger share means stage time escaped the spans.
MAX_FORWARD_SELF_SHARE = 1 / 3


def _separation_checks(workload, layer: dict, tracer: Tracer) -> list[str]:
    """What each workload is meant to separate; any failure aborts the run."""
    errors = []
    forward = layer["model.forward.s"]
    if workload.name in ("train-n30", "predict-n300"):
        children = tracer.forward_children_calls()
        if not set(children) <= set(FORWARD_STAGES):
            errors.append(f"unexpected spans inside model.forward: {sorted(children)}")
        missing = [stage for stage in DIFF_LAYERS.values()
                   if children.get(stage, 0) < tracer.calls["model.forward"]]
        if missing:
            errors.append(f"stages not called from every model.forward: {missing}")
        self_share = layer["model.forward.self_s"] / forward
        if not 0 <= self_share < MAX_FORWARD_SELF_SHARE:
            errors.append(f"model.forward.self_s is {self_share:.0%} of model.forward.s, "
                          f"expected under {MAX_FORWARD_SELF_SHARE:.0%}")
        share = layer["attention.spatial_attention.fwd_s"] / forward
        if workload.name == "predict-n300" and not share > 0.5:
            errors.append(f"spatial attention is {share:.0%} of forward, expected > 50%")
        if workload.name == "train-n30" and not share < 0.25:
            errors.append(f"spatial attention is {share:.0%} of forward, expected < 25%")
    if workload.name == "predict-n300" and (tracer.calls["numerics.backward"]
                                            or tracer.tape_nodes):
        errors.append("backward ran during inference")
    if workload.name == "data-n300":
        events = tracer.counts["data.events"]
        calls = tracer.calls["graph.normalize_adjacency"]
        if not (events > 0 and calls == events):
            errors.append(f"normalize_adjacency ran {calls} times for {events:.0f} "
                          "incident events")
        if forward:
            errors.append("the data workload ran the model")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    e2e_units, layer_units = _declared_units()
    blas = _blas()
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        setup_reps = [time.perf_counter() - _START]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_reps[0]}))
            return 0
        tally = Tally()
        record = {"meta": metadata(workload, args, blas), "setup_reps_s": setup_reps,
                  "import_s": IMPORT_S}

        if args.trace:
            loop_s = args.seconds * workload.loop_share / 2
            untraced = run_ops(workload, tally, loop_s, workload.min_ops_traced)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_ops(workload, tally, loop_s, workload.min_ops_traced)
            finally:
                tracer.remove()
            samples = untraced + traced
        else:
            samples = run_ops(workload, tally, args.seconds * workload.loop_share,
                              workload.min_ops)
        peak_rss = _peak_rss_mb()
        op_s = [s["op_s"] for s in samples]
        e2e = {"peak_rss_mb": peak_rss,
               "op_p50_ms": 1000 * statistics.median(op_s),
               "op_p90_ms": 1000 * _p90(op_s)}
        e2e.update(workload.finish(tally, samples))
        if not args.trace:  # set-up time is only an end-to-end metric
            setup_reps += [_cold_setup(args) for _ in range(SETUP_REPS - 1)]
        e2e["setup_s"] = statistics.median(setup_reps)
        record["samples"] = samples

        if args.trace:
            layer = tracer.metrics(len(traced), workload.flops)
            untraced_ms = 1000 * statistics.median(s["op_s"] for s in untraced)
            traced_ms = 1000 * statistics.median(s["op_s"] for s in traced)
            layer["bench.untraced.op_p50_ms"] = untraced_ms
            layer["bench.traced.op_p50_ms"] = traced_ms
            layer["bench.trace_overhead.op_p50_ms"] = traced_ms - untraced_ms
            record["spans"] = tracer.spans
            errors = _separation_checks(workload, layer, tracer)
            if errors:
                raise RuntimeError("traced run does not separate the layers it should: "
                                   + "; ".join(errors))
            metrics, units = layer, layer_units
            print(f"trace {args.workload}: {len(traced)} traced and {len(untraced)} "
                  f"untraced operations; overhead {traced_ms - untraced_ms:+.1f} ms "
                  f"on op_p50_ms ({untraced_ms:.1f} -> {traced_ms:.1f})")
        else:
            metrics, units = e2e, e2e_units
            named = workload.named(e2e)
            named["ops_failed_ratio"] = (len(tally.failed) / tally.attempted,
                                         f"of {tally.attempted} ops")
            named["setup_s"] = (e2e["setup_s"], "s")
            named["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
            record["named"] = named
            print(f"report {args.workload} ({len(samples)} timed operations): " + ", ".join(
                f"{k}={v:.6g} {u}" for k, (v, u) in named.items()))
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                               f"{sorted(set(metrics) ^ set(units))}")
    finally:
        if hasattr(workload, "close"):
            workload.close()

    record["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print("meta " + json.dumps(record["meta"], default=str))
    print(json.dumps({
        "correct": not tally.failed, "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
