"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
report. The training criteria (8 and 9) dominate the runtime; everything is
seeded and deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from conformer import numerics as nm
from conformer.cli import main as cli_main
from conformer.conditioning import expanded_score_identity, gln, ConditionFactors
from conformer.data import (SynthConfig, chronological_split, make_windows,
                            masked_metrics, synth_generate, window_block,
                            windows_with_incidents)
from conformer.embeddings import embed_all
from conformer.graph import GraphSpec, normalize_adjacency, propagate
from conformer.model import (ConFormerConfig, estimate_flops, forward,
                             init_params, readout)
from conformer.trainer import (TrainConfig, evaluate, evaluate_forecasts,
                               evaluate_historical_inertia, masked_mae_loss,
                               predict_windows, train)
from conformer.data import NormalizationStats


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] acceptance {criterion}: {description}{suffix}")
    assert ok, f"acceptance {criterion} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def desk_bundle():
    gen = SynthConfig(n_nodes=30, days=14, interval_minutes=5, topology="ring",
                      incident_rate=0.3)
    return synth_generate(gen, seed=1)


def grad_check_config():
    return ConFormerConfig(
        t_in=4, t_out=4, n_nodes=5, d_in=1, d_data=4, d_acc=3, d_reg=3,
        d_dow=3, d_tod=3, d_stae=4, d_model=8, k_hops=1, n_heads=2,
        n_layers=1, dropout=0.0, steps_per_day=12, n_acc_codes=3, n_reg_codes=2)


def grad_check_inputs(cfg, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(cfg.t_in, cfg.n_nodes, cfg.d_in))
    acc = rng.integers(0, cfg.n_acc_codes, size=(cfg.t_in, cfg.n_nodes))
    reg = rng.integers(0, cfg.n_reg_codes, size=(cfg.t_in, cfg.n_nodes))
    graph = GraphSpec(cfg.n_nodes, tuple((i, (i + 1) % cfg.n_nodes, 1.0)
                                         for i in range(cfg.n_nodes)))
    y = rng.normal(3.0, 1.0, size=(cfg.t_out, cfg.n_nodes, 1))
    y[0, 0, 0] = 0.0
    return x, acc, reg, graph, y


def test_criterion_1_reformulation_identity():
    rng = np.random.default_rng(100)
    start = time.time()
    worst = 0.0
    for _ in range(120):
        m = int(rng.integers(1, 9))
        mk = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        q = rng.normal(size=(m, d))
        k = rng.normal(size=(mk, d))
        gamma = rng.normal(size=d)
        beta = rng.normal(size=d)
        lhs, rhs = expanded_score_identity(q, k, gamma, beta)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    elapsed = time.time() - start
    report(1, "reformulated-attention score identity",
           worst <= 1e-10 and elapsed < 1.0,
           f"120 cases, worst |lhs-rhs| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gln_reduction():
    rng = np.random.default_rng(101)
    worst_diff = worst_mean = 0.0
    for _ in range(30):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                 int(rng.integers(2, 9)))
        x = rng.normal(1.0, 3.0, size=shape)
        eps = 1e-5
        f = ConditionFactors(gamma=nm.Tensor(np.ones(shape[-1])),
                             beta=nm.Tensor(np.zeros(shape[-1])),
                             alpha=nm.Tensor(np.zeros(shape[:-1] + (1,))))
        out = gln(nm.Tensor(x), f, eps).data
        ln = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + eps)
        worst_diff = max(worst_diff, float(np.abs(out - ln).max()))
        out_tight = gln(nm.Tensor(x), f, 1e-12).data
        worst_mean = max(worst_mean, float(np.abs(out_tight.mean(-1)).max()))
    report(2, "GLN reduces to standard layer normalization",
           worst_diff <= 1e-12 and worst_mean <= 1e-10,
           f"worst |GLN-LN| {worst_diff:.2e}, worst token mean {worst_mean:.2e}")


def test_criterion_3_propagation_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    cases = 0
    for n in range(1, 11):
        for k in range(5):
            edges = tuple((i, j, float(rng.uniform(0.1, 2.0)))
                          for i in range(n) for j in range(n)
                          if i != j and rng.random() < 0.4)
            op = normalize_adjacency(GraphSpec(n, edges))
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(3, n, d))
            out = propagate(nm.Tensor(x), op, k).data
            for j in range(k + 1):
                power = np.linalg.matrix_power(op.matrix, j)
                expected = np.einsum("uv,tvd->tud", power, x)
                worst = max(worst, float(np.abs(out[..., j * d:(j + 1) * d]
                                                - expected).max()))
            cases += 1
    report(3, "K-hop propagation matches dense matrix-power oracle",
           worst <= 1e-12, f"{cases} graphs (N<=10, K<=4), worst {worst:.2e}")


def test_criterion_4_full_model_gradient():
    cfg = grad_check_config()
    params = init_params(cfg, seed=7)
    rng = np.random.default_rng(42)
    params.replace({n: rng.normal(0, 0.3, t.shape) for n, t in params.entries()})
    x, acc, reg, graph, y = grad_check_inputs(cfg)
    stats = NormalizationStats(0.0, 1.0)
    op = normalize_adjacency(graph)

    def loss_value():
        pred = forward(x, acc, reg, 3, op, params, cfg)
        return masked_mae_loss(pred, y, stats)

    start = time.time()
    analytic = nm.backward(loss_value(), dict(params.entries()))
    names = [n for n, _ in params.entries()]
    worst = 0.0
    n_checked = 0
    step = 1e-5
    while n_checked < 200:
        name = names[int(rng.integers(0, len(names)))]
        base = params[name].data.copy()
        idx = tuple(int(rng.integers(0, s)) for s in base.shape)
        for sign in (1.0, -1.0):
            bumped = base.copy()
            bumped[idx] += sign * step
            params.replace({name: bumped})
            value = loss_value().item()
            if sign > 0:
                hi = value
            else:
                lo = value
        params.replace({name: base})
        fd = (hi - lo) / (2.0 * step)
        an = analytic[name][idx]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1.0))
        n_checked += 1
    elapsed = time.time() - start
    report(4, "full-model loss gradient matches finite differences",
           worst <= 1e-4 and elapsed < 120.0,
           f"{n_checked} params, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_zero_init_identity():
    cfg = grad_check_config()
    params = init_params(cfg, seed=11)
    x, acc, reg, graph, y = grad_check_inputs(cfg, seed=2)
    out = forward(x, acc, reg, 5, graph, params, cfg)
    emb = embed_all(nm.Tensor(x), acc, reg, 5, params.tables())
    direct = readout(emb, params, cfg)
    bitwise = out.data.tobytes() == direct.data.tobytes()

    loss = masked_mae_loss(out, y, NormalizationStats(0.0, 1.0))
    record = nm.backward(loss, dict(params.entries()))
    attn_names = [n for n in record
                  if ".attn." in n or ".ff." in n or ".gen_c.hidden" in n
                  or ".gen_f.hidden" in n]
    max_attn_grad = max(float(np.abs(record[n]).max()) for n in attn_names)
    report(5, "fresh parameters give the exact identity path",
           bitwise and max_attn_grad == 0.0,
           f"bitwise={bitwise}, max attention-branch grad {max_attn_grad}")


def test_criterion_6_flops_estimator():
    # (k_hops, n_edges, d_model, n_nodes, t_in) -> K|E|D + TN^2D + NT^2D + NTD^2
    cases = [
        ((2, 10, 4, 3, 2), 296),
        ((0, 0, 1, 1, 1), 3),
        ((0, 5, 2, 1, 1), 8),
        ((1, 1, 1, 1, 1), 4),
        ((3, 7, 2, 2, 3), 126),
        ((2, 4, 8, 2, 2), 448),
        ((0, 9, 3, 4, 1), 96),
        ((1, 2, 2, 3, 4), 220),
        ((4, 6, 1, 5, 2), 104),
        ((2, 20, 4, 6, 2), 736),
    ]
    results = []
    for (k, e, d, n, t), expected in cases:
        cfg = ConFormerConfig(t_in=t, t_out=1, n_nodes=n, d_model=d, k_hops=k,
                              n_heads=1, steps_per_day=288)
        results.append(estimate_flops(cfg, e) == expected)
    report(6, "FLOPs estimator reproduces 10 hand-checked values",
           all(results), f"{sum(results)}/10 exact, includes 296")


def test_criterion_7_masked_metrics_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(25):
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        y = rng.normal(5.0, 2.0, size=shape)
        y[rng.random(shape) < 0.1] = 0.0
        y_hat = y + rng.normal(0.0, 1.0, size=shape)
        m = masked_metrics(y, y_hat)
        abs_sum = sq_sum = pct_sum = 0.0
        count = 0
        for i in range(shape[0]):
            for j in range(shape[1]):
                if y[i, j] != 0.0:
                    err = y_hat[i, j] - y[i, j]
                    abs_sum += abs(err)
                    sq_sum += err * err
                    pct_sum += abs(err) / abs(y[i, j])
                    count += 1
        if count:
            worst = max(worst,
                        abs(m.mae - abs_sum / count),
                        abs(m.rmse - math.sqrt(sq_sum / count)),
                        abs(m.mape - 100.0 * pct_sum / count))
    worked = masked_metrics(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
    worked_ok = (worked.mae == 1.5
                 and abs(worked.rmse - 1.5811388300841898) <= 1e-12
                 and worked.mape == 100.0)
    report(7, "masked metrics match brute-force oracle",
           worst <= 1e-12 and worked_ok,
           f"worst deviation {worst:.2e}; worked example ok={worked_ok}")


def desk_model_config(bundle, d_model, k_hops, n_heads, ablations=()):
    return ConFormerConfig(
        t_in=12, t_out=12, n_nodes=bundle.n_nodes, d_in=1, d_model=d_model,
        k_hops=k_hops, n_heads=n_heads, n_layers=1, dropout=0.1,
        steps_per_day=bundle.steps_per_day,
        start_weekday=bundle.start_weekday, start_slot=bundle.start_slot,
        n_acc_codes=len(bundle.acc_vocab), n_reg_codes=len(bundle.reg_vocab),
        ablations=ablations)


@pytest.mark.slow
def test_criterion_8_training_beats_historical_inertia(desk_bundle):
    start = time.time()
    split = chronological_split(desk_bundle.n_steps)
    hi = evaluate_historical_inertia(desk_bundle, split, "test", 12, 12, [])
    cfg = desk_model_config(desk_bundle, d_model=32, k_hops=2, n_heads=4)
    tcfg = TrainConfig(learning_rate=2e-3, batch_size=64, max_epochs=5,
                       patience=20, seed=0)
    result = train(desk_bundle, cfg, tcfg)
    model = evaluate(result.params, desk_bundle, split, "test", [], result.stats)
    elapsed = time.time() - start
    ratio = model["average"].mae / hi["average"].mae
    report(8, "trained model beats 0.8x historical inertia on the test split",
           ratio <= 0.8 and elapsed < 900.0,
           f"model MAE {model['average'].mae:.4f}, HI MAE "
           f"{hi['average'].mae:.4f}, ratio {ratio:.3f}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_9_ablation_direction(desk_bundle):
    split = chronological_split(desk_bundle.n_steps)
    test_windows = make_windows(desk_bundle, split.test, 12, 12)
    incident = windows_with_incidents(desk_bundle, test_windows, 12)
    y_true = window_block(desk_bundle.values, incident, 12, 12)[..., None]

    def incident_mae(seed, ablations):
        cfg = desk_model_config(desk_bundle, d_model=16, k_hops=1, n_heads=2,
                                ablations=ablations)
        tcfg = TrainConfig(learning_rate=2e-3, batch_size=64, max_epochs=3,
                           patience=20, seed=seed)
        result = train(desk_bundle, cfg, tcfg)
        preds = predict_windows(result.params, desk_bundle, incident, result.stats)
        return evaluate_forecasts(y_true, preds, [])["average"].mae

    start = time.time()
    wins = 0
    details = []
    for seed in (0, 1, 2):
        full = incident_mae(seed, ())
        ablated = incident_mae(seed, ("no-accident",))
        wins += int(full < ablated)
        details.append(f"seed {seed}: {full:.3f} vs {ablated:.3f}")
    elapsed = time.time() - start
    report(9, "full model beats no-accident ablation on incident windows",
           wins >= 2, f"{wins}/3 seeds ({'; '.join(details)}), {elapsed:.0f}s")


def test_criterion_10_cli_determinism(tmp_path):
    run_cfg = {
        "synth": {"n_nodes": 5, "days": 2, "interval_minutes": 30,
                  "topology": "ring", "incident_rate": 1.0,
                  "duration_steps": 4, "recovery_steps": 3},
        "model": {"t_in": 4, "t_out": 4, "d_data": 4, "d_acc": 3, "d_reg": 3,
                  "d_dow": 3, "d_tod": 3, "d_stae": 4, "d_model": 8,
                  "k_hops": 1, "n_heads": 2, "dropout": 0.1},
        "train": {"learning_rate": 0.002, "batch_size": 16, "max_epochs": 2,
                  "patience": 5},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(run_cfg))

    def file_bytes(path):
        with open(path, "rb") as fh:
            return fh.read()

    dataset_files = ("values.csv", "incidents.csv", "adjacency.csv", "meta.json")
    synth_ok = True
    for name in ("s1", "s2"):
        code = cli_main(["synth", "--config", str(cfg_path), "--seed", "9",
                         "--out", str(tmp_path / name)])
        synth_ok = synth_ok and code == 0
    for name in dataset_files:
        synth_ok = synth_ok and (file_bytes(tmp_path / "s1" / name)
                                 == file_bytes(tmp_path / "s2" / name))

    train_ok = True
    for name in ("t1", "t2"):
        code = cli_main(["train", "--data", str(tmp_path / "s1"),
                         "--config", str(cfg_path), "--seed", "4",
                         "--out", str(tmp_path / name)])
        train_ok = train_ok and code == 0
    train_ok = train_ok and (file_bytes(tmp_path / "t1" / "history.csv")
                             == file_bytes(tmp_path / "t2" / "history.csv"))
    train_ok = train_ok and (file_bytes(tmp_path / "t1" / "checkpoint.cfmr")
                             == file_bytes(tmp_path / "t2" / "checkpoint.cfmr"))
    report(10, "cmd_synth and cmd_train are byte-deterministic under a fixed seed",
           synth_ok and train_ok,
           f"dataset files identical={synth_ok}, history+checkpoint identical={train_ok}")
