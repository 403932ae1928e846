"""The traced benchmark path (``perfbench/layertrace.py``) on a tiny model.

A layer that is renamed or changes its signature breaks ``--trace 1``; this
runs the same wrappers on one forward and backward pass and one
``predict_windows`` call, in well under a second.
"""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conformer import cli, model, trainer  # noqa: F401  (cli: install patches it)
from conformer import numerics as nm
from conformer.data import NormalizationStats, SynthConfig, synth_generate

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def load_layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def conformer_namespaces():
    """Every attribute of every loaded conformer module, plus AdamState.step."""
    state = {(name, attr): value
             for name, mod in sys.modules.items()
             if name == "conformer" or name.startswith("conformer.")
             for attr, value in vars(mod).items()}
    state[("trainer.AdamState", "step")] = trainer.AdamState.step
    return state


def test_traced_forward_backward_and_predict():
    lt = load_layertrace()
    bundle = synth_generate(SynthConfig(n_nodes=4, days=1, interval_minutes=60), seed=0)
    cfg = model.ConFormerConfig(t_in=3, t_out=2, n_nodes=4, d_data=4, d_acc=2,
                                d_reg=2, d_dow=2, d_tod=2, d_stae=2, d_model=4,
                                k_hops=1, n_heads=2, steps_per_day=24)
    params = model.init_params(cfg, seed=0)
    stats = NormalizationStats(mean=50.0, std=10.0)
    starts = np.array([0, 5])
    x, acc, reg = trainer._gather(bundle, starts, cfg.t_in, stats)
    target = bundle.values[starts[:, None] + cfg.t_in + np.arange(cfg.t_out)][..., None]

    nm.thread_count()  # the split workers start on first use, which rebinds nm._POOL
    before = conformer_namespaces()
    tracer = lt.Tracer()
    tracer.install()
    try:
        assert conformer_namespaces() != before
        pred = model.forward(x, acc, reg, starts, bundle.graph, params, cfg,
                             dropout_rng=np.random.default_rng(0))
        nm.backward(trainer.masked_mae_loss(pred, target, stats),
                    dict(params.entries()))
        trainer.predict_windows(params, bundle, [3], stats)
    finally:
        tracer.remove()
    after = conformer_namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    assert tracer.calls["model.forward"] == 2
    children = tracer.forward_children_calls()
    assert set(children) == set(lt.FORWARD_STAGES)
    assert children["graph.normalize_adjacency"] == tracer.calls["model.forward"]
    for stage in lt.DIFF_LAYERS.values():
        assert children[stage] >= tracer.calls["model.forward"], stage
    assert len(tracer.tape_nodes) == 1
    assert tracer.counts["trainer.predict_windows.batches"] == 1
    assert tracer.counts["embeddings.embed_all.windows"] == 3

    layer = tracer.metrics(1, {stage: 1 for stage in lt.FLOP_STAGES})
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(layer) == {name for name in declared if not name.startswith("bench.")}


def test_traced_synth_builds_one_operator_per_event():
    """The data workload's separation check: each synthetic incident event
    builds its operator through ``normalize_adjacency``, once."""
    lt = load_layertrace()
    tracer = lt.Tracer()
    tracer.install()
    try:
        synth_generate(SynthConfig(n_nodes=5, days=2, interval_minutes=60,
                                   incident_rate=2.0), seed=3)
    finally:
        tracer.remove()
    events = tracer.counts["data.events"]
    assert tracer.calls["graph.normalize_adjacency"] == events > 0


def run_benchmark(workload: str, *flags: str) -> dict:
    """The JSON line of ``perfbench/run.py`` on ``workload`` with seed 1 and
    no timed loop; ``.perfbench-out/`` is removed after unless it existed."""
    out_dir = ROOT / ".perfbench-out"
    existed = out_dir.exists()
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "0", *flags],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
    finally:
        if not existed:
            shutil.rmtree(out_dir, ignore_errors=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_setup_runs(workload):
    """``perfbench/run.py --setup-only`` builds each workload from ``src/``, so
    a change there that breaks the benchmark's imports or set-up fails here."""
    assert "setup_s" in run_benchmark(workload, "--setup-only")


def test_traced_train_run_keeps_its_tape():
    """``perfbench/run.py --trace 1`` on train-n30 walks ``_parents`` and wraps
    ``_vjp`` of every node of a real training step. Its tape stays at 95
    nodes: the same graph, so the same order of gradient accumulation (127
    while GLN was twelve nodes, each generator's GELU its own node and
    dropout a ``mul``)."""
    result = run_benchmark("train-n30", "--trace", "1")
    assert result["correct"], result
    assert result["metrics"]["numerics.tape_nodes"]["value"] == 95
