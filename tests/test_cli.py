import contextlib
import gc
import json
import math
import os
import re
import resource
import struct

import numpy as np
import pytest

from conformer.cli import build_parser, main, resolve_model_config
from conformer.data import chronological_split, load_dataset, save_dataset
from conformer.errors import ConfigError, ConformerError, LoadError
from conformer.graph import GraphSpec, normalize_adjacency
from conformer.model import (ConFormerConfig, count_params, estimate_flops, load_checkpoint,
                             param_spec)
from conformer.trainer import evaluate_historical_inertia


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_checkpoint(path, header: dict, data: bytes = b"") -> None:
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"CFMR1\n" + struct.pack("<Q", len(blob)) + blob + data)


@contextlib.contextmanager
def address_space_cap(extra=1 << 30):
    """Cap this process's address space ``extra`` bytes above its current
    size, so that code listing 10^12 layers fails fast instead of filling
    the machine's memory."""
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    old = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra if old[1] == resource.RLIM_INFINITY else min(size + extra, old[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, old[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, old)


@pytest.fixture
def tiny_config(tmp_path):
    cfg = {
        "synth": {"n_nodes": 4, "days": 2, "interval_minutes": 60,
                  "topology": "ring", "incident_rate": 1.0,
                  "duration_steps": 3, "recovery_steps": 2},
        "model": {"t_in": 3, "t_out": 3, "d_data": 4, "d_acc": 3, "d_reg": 3,
                  "d_dow": 3, "d_tod": 3, "d_stae": 4, "d_model": 8,
                  "k_hops": 1, "n_heads": 2, "dropout": 0.1},
        "train": {"learning_rate": 0.002, "batch_size": 8, "max_epochs": 2,
                  "patience": 5},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def synth_dir(tmp_path, tiny_config, name="data", seed=1):
    out = str(tmp_path / name)
    assert main(["synth", "--config", tiny_config, "--seed", str(seed),
                 "--out", out]) == 0
    return out


# Node 0's degree 1 + 1e308 + 1e308 overflows float64.
OVERFLOW_ADJACENCY = "src,dst,weight\n0,1,1e308\n0,2,1e308\n1,2,1.0\n"
OVERFLOW_ERROR = "error: edge weights of node 0 sum past the float64 range"


class TestSynth:
    def test_writes_valid_dataset(self, tmp_path, tiny_config, capsys):
        out = synth_dir(tmp_path, tiny_config)
        for name in ("values.csv", "incidents.csv", "adjacency.csv", "meta.json",
                     "resolved_config.json"):
            assert os.path.exists(os.path.join(out, name)), name
        bundle = load_dataset(out)
        assert bundle.n_nodes == 4
        assert "N=4" in capsys.readouterr().out

    def test_seed_repetition_identical_bytes(self, tmp_path, tiny_config):
        a = synth_dir(tmp_path, tiny_config, "a", seed=7)
        b = synth_dir(tmp_path, tiny_config, "b", seed=7)
        for name in ("values.csv", "incidents.csv", "adjacency.csv", "meta.json"):
            assert read(os.path.join(a, name)) == read(os.path.join(b, name)), name

    def test_zero_incident_rate_header_only(self, tmp_path, tiny_config):
        with open(tiny_config) as fh:
            cfg = json.load(fh)
        cfg["synth"]["incident_rate"] = 0
        quiet = tmp_path / "quiet.json"
        quiet.write_text(json.dumps(cfg))
        out = str(tmp_path / "quiet")
        assert main(["synth", "--config", str(quiet), "--seed", "1", "--out", out]) == 0
        with open(os.path.join(out, "incidents.csv")) as fh:
            assert fh.read() == "t,node,kind,code\n"

    def test_calendar_its_loader_rejects_never_written(self, tmp_path, capsys):
        bad = tmp_path / "cal.json"
        bad.write_text(json.dumps({"synth": {"interval_minutes": 60,
                                             "start_weekday": 9, "start_slot": 30}}))
        out = tmp_path / "x"
        assert main(["synth", "--config", str(bad), "--out", str(out)]) == 1
        assert "start_weekday" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_exits_1(self, tmp_path, tiny_config, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        assert main(["synth", "--config", tiny_config, "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("io error: ")

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"models": {}}))
        assert main(["synth", "--config", str(bad), "--out",
                     str(tmp_path / "x")]) == 1


class TestTrain:
    def test_writes_artifacts(self, tmp_path, tiny_config):
        data = synth_dir(tmp_path, tiny_config)
        out = str(tmp_path / "run1")
        assert main(["train", "--data", data, "--config", tiny_config,
                     "--seed", "3", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "checkpoint.cfmr"))
        with open(os.path.join(out, "history.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "epoch,train_mae,val_mae"
        assert len(lines) >= 2
        with open(os.path.join(out, "resolved_config.json")) as fh:
            resolved = json.load(fh)
        assert resolved["model"]["n_nodes"] == 4
        assert resolved["train"]["seed"] == 3

    @pytest.mark.parametrize("width", ["d_acc", "d_reg", "d_dow", "d_tod"])
    def test_zero_width_embedding_trains(self, tmp_path, tiny_config, width):
        data = synth_dir(tmp_path, tiny_config)
        run = json.loads(read(tiny_config))
        run["model"][width] = 0
        config = tmp_path / "zero.json"
        config.write_text(json.dumps(run))
        out = tmp_path / "zero"
        assert main(["train", "--data", data, "--config", str(config),
                     "--seed", "3", "--out", str(out)]) == 0
        params, _ = load_checkpoint(str(out / "checkpoint.cfmr"))
        assert params[f"embed.{width[2:]}_table"].shape[1] == 0

    def test_rerun_identical_history(self, tmp_path, tiny_config):
        data = synth_dir(tmp_path, tiny_config)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        for out in (out1, out2):
            assert main(["train", "--data", data, "--config", tiny_config,
                         "--seed", "5", "--out", out]) == 0
        assert read(os.path.join(out1, "history.csv")) == \
               read(os.path.join(out2, "history.csv"))

    def test_ablate_flag_recorded(self, tmp_path, tiny_config):
        data = synth_dir(tmp_path, tiny_config)
        out = str(tmp_path / "abl")
        assert main(["train", "--data", data, "--config", tiny_config,
                     "--seed", "3", "--out", out, "--ablate", "no-accident"]) == 0
        with open(os.path.join(out, "resolved_config.json")) as fh:
            resolved = json.load(fh)
        assert resolved["model"]["ablations"] == ["no-accident"]
        params, _ = load_checkpoint(os.path.join(out, "checkpoint.cfmr"))
        assert params.cfg.ablations == ("no-accident",)

    def test_split_without_observed_target_fails(self, tmp_path, tiny_config, capsys):
        bundle = load_dataset(synth_dir(tmp_path, tiny_config))
        lo, hi = chronological_split(bundle.n_steps).val
        bundle.values[lo:hi] = 0.0
        data, out = str(tmp_path / "blank-val"), tmp_path / "o"
        save_dataset(bundle, data)
        assert main(["train", "--data", data, "--config", tiny_config,
                     "--out", str(out)]) == 1
        assert "split 'val' has no observed target" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_fails_before_training(self, tmp_path, tiny_config):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--config", tiny_config, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("calendar, message", [
        ({"steps_per_day": 288},
         "steps_per_day=24 differs from model config steps_per_day=288"),
        ({"start_weekday": 3}, "start_weekday=0 differs from model config start_weekday=3"),
        ({"start_slot": 5}, "start_slot=0 differs from model config start_slot=5"),
        ({"n_nodes": 5}, "n_nodes=4 differs from model config n_nodes=5"),
        ({"n_acc_codes": 2}, "n_acc_codes=3 differs from model config n_acc_codes=2"),
        ({"n_reg_codes": 9}, "n_reg_codes=2 differs from model config n_reg_codes=9"),
    ], ids=["steps", "weekday", "slot", "nodes", "acc-codes", "reg-codes"])
    def test_calendar_mismatch_fails_before_training(self, tmp_path, tiny_config,
                                                     capsys, calendar, message):
        # Every model field the dataset fixes, the calendar among them.
        data = synth_dir(tmp_path, tiny_config)
        with open(tiny_config) as fh:
            cfg = json.load(fh)
        cfg["model"].update(calendar)
        path = tmp_path / "calendar.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["train", "--data", data, "--config", str(path),
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_matching_calendar_accepted(self, tmp_path, tiny_config):
        data = synth_dir(tmp_path, tiny_config)
        with open(tiny_config) as fh:
            cfg = json.load(fh)
        cfg["model"].update(steps_per_day=24, start_weekday=0, start_slot=0)
        cfg["train"]["max_epochs"] = 1
        path = tmp_path / "calendar.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--data", data, "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0


class TestEvaluatePredictFlops:
    @pytest.fixture
    def trained(self, tmp_path, tiny_config):
        data = synth_dir(tmp_path, tiny_config)
        out = str(tmp_path / "trained")
        assert main(["train", "--data", data, "--config", tiny_config,
                     "--seed", "2", "--out", out]) == 0
        return data, os.path.join(out, "checkpoint.cfmr")

    def test_evaluate_writes_metrics(self, tmp_path, trained, capsys):
        data, ckpt = trained
        out = str(tmp_path / "eval")
        assert main(["evaluate", "--checkpoint", ckpt, "--data", data,
                     "--horizons", "1,3", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "h1," in printed and "average," in printed
        with open(os.path.join(out, "metrics.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "horizon,mae,rmse,mape,n_valid"
        assert len(lines) == 4  # h1, h3, average

    def test_evaluate_bad_horizon_nonzero_exit(self, trained):
        data, ckpt = trained
        assert main(["evaluate", "--checkpoint", ckpt, "--data", data,
                     "--horizons", "99"]) == 1

    def test_predict_output_shape(self, tmp_path, trained):
        data, ckpt = trained
        out = str(tmp_path / "pred")
        assert main(["predict", "--checkpoint", ckpt, "--data", data,
                     "--at", "0", "--out", out]) == 0
        with open(os.path.join(out, "forecast.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "step,node0,node1,node2,node3"
        assert len(lines) == 1 + 3  # header + t_out rows

    def test_predict_out_of_range(self, tmp_path, trained, capsys):
        data, ckpt = trained
        n_steps = 2 * 24  # the synth fixture: 2 days at 60 minutes
        # 2^63 reads as uint64 and 10^20 as an object array, so the starts
        # are range-checked before their int64 cast.
        for at in ("99999", "-1", "99999999999999999999", "9223372036854775808"):
            assert main(["predict", "--checkpoint", ckpt, "--data", data,
                         "--at", at, "--out", str(tmp_path / "p")]) == 1
            err = capsys.readouterr().err
            assert f"window start {at} " in err and f"[0, {n_steps - 3}]" in err, err
        assert not os.path.exists(tmp_path / "p")

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_overflowing_node_weights_refused(self, tmp_path, trained, capsys, command):
        data, ckpt = trained
        with open(os.path.join(data, "adjacency.csv"), "w") as fh:
            fh.write(OVERFLOW_ADJACENCY)
        capsys.readouterr()
        out = str(tmp_path / "o")
        argv = {"evaluate": [], "predict": ["--at", "0"]}[command]
        assert main([command, "--checkpoint", ckpt, "--data", data, "--out", out]
                    + argv) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and OVERFLOW_ERROR in err, err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("extra, message", [
        ({}, r"KeyError\('norm_mean'\)"),
        ({"norm_mean": 1.0}, r"KeyError\('norm_std'\)"),
        ({"norm_mean": "fast", "norm_std": 1.0}, "mean must be a finite number, got 'fast'"),
        ({"norm_mean": float("nan"), "norm_std": 1.0}, "mean must be a finite number, got nan"),
        ({"norm_mean": 1.0, "norm_std": float("inf")}, "std must be a finite number, got inf"),
        ({"norm_mean": 1.0, "norm_std": 0.0}, "std must be > 0, got 0.0"),
    ], ids=["no-stats", "no-std", "text-mean", "nan-mean", "inf-std", "zero-std"])
    def test_checkpoint_stats_checked(self, tmp_path, trained, capsys, command,
                                      extra, message):
        data, ckpt = trained
        raw = read(ckpt)
        (size,) = struct.unpack("<Q", raw[6:14])
        header = json.loads(raw[14:14 + size])
        bad = str(tmp_path / "bad.cfmr")
        write_checkpoint(bad, {**header, "extra": extra}, raw[14 + size:])
        argv = [command, "--checkpoint", bad, "--data", data]
        if command == "predict":
            argv += ["--at", "0", "--out", str(tmp_path / "p")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "bad.cfmr: corrupt checkpoint header" in err and re.search(message, err), err

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("synth, message", [
        ({"interval_minutes": 30, "start_weekday": 2},
         "steps_per_day=48 differs from checkpoint steps_per_day=24"),
        ({"start_weekday": 2}, "start_weekday=2 differs from checkpoint start_weekday=0"),
        ({"start_slot": 5}, "start_slot=5 differs from checkpoint start_slot=0"),
        ({"n_nodes": 5}, "n_nodes=5 differs from checkpoint n_nodes=4"),
    ], ids=["interval", "weekday", "slot", "nodes"])
    def test_calendar_mismatch_rejected(self, tmp_path, trained, capsys, command,
                                        synth, message):
        # Every model field the dataset fixes, the calendar among them.
        _, ckpt = trained
        cfg = {"synth": {"n_nodes": 4, "days": 2, "interval_minutes": 60, **synth}}
        path = tmp_path / "other.json"
        path.write_text(json.dumps(cfg))
        other = str(tmp_path / "other")
        assert main(["synth", "--config", str(path), "--out", other]) == 0
        argv = [command, "--checkpoint", ckpt, "--data", other]
        if command == "predict":
            argv += ["--at", "0", "--out", str(tmp_path / "p")]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_flops_worked_example(self, tmp_path, capsys):
        cfg = {"model": {"t_in": 2, "t_out": 2, "n_nodes": 3, "d_model": 4,
                         "k_hops": 2, "n_heads": 1, "steps_per_day": 288}}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(cfg))
        assert main(["flops", "--config", str(path), "--edges", "10"]) == 0
        out = capsys.readouterr().out
        assert "flops=296" in out
        assert "params=3332" in out

    def test_flops_width_beyond_int64(self, tmp_path, capsys):
        # Counting needs no array, so a width numpy cannot hold still counts.
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"model": {"d_data": 10 ** 20}}))
        assert main(["flops", "--config", str(path), "--edges", "10"]) == 0
        params = count_params(ConFormerConfig(d_data=10 ** 20))
        assert f"params={params}" in capsys.readouterr().out

    def test_flops_counts_dataset_edges(self, tmp_path, tiny_config, capsys):
        data = synth_dir(tmp_path, tiny_config)
        capsys.readouterr()
        assert main(["flops", "--config", tiny_config, "--data", data]) == 0
        bundle = load_dataset(data)
        with open(tiny_config) as fh:
            cfg = resolve_model_config(json.load(fh)["model"], bundle, [])
        n_edges = len(bundle.graph.edges)
        assert n_edges > 0 and capsys.readouterr().out == (
            f"flops={estimate_flops(cfg, n_edges)} params={count_params(cfg)}\n")

    def test_flops_takes_the_dataset_model_fields(self, tmp_path, capsys):
        # A 30-node ring of 48 steps a day: the default model at N=30, not N=1.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"synth": {"n_nodes": 30, "days": 2,
                                              "interval_minutes": 30, "topology": "ring"}}))
        data = str(tmp_path / "data")
        assert main(["synth", "--config", str(path), "--out", data]) == 0
        capsys.readouterr()
        assert main(["flops", "--data", data]) == 0
        assert capsys.readouterr().out == "flops=856320 params=43214\n"

    def test_flops_model_section_contradicting_dataset(self, tmp_path, tiny_config, capsys):
        data = synth_dir(tmp_path, tiny_config)
        path = tmp_path / "n5.json"
        path.write_text(json.dumps({"model": {"n_nodes": 5}}))
        capsys.readouterr()
        assert main(["flops", "--config", str(path), "--data", data]) == 1
        assert "dataset n_nodes=4 differs from model config n_nodes=5" in capsys.readouterr().err

    def test_flops_needs_edge_count(self):
        assert main(["flops"]) == 1

    def test_flops_negative_edge_count_rejected(self, capsys):
        assert main(["flops", "--edges", "-5"]) == 1
        assert "edge count must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--t-in", "2000"], "split 'test' too short"),
        (["--t-in", "0"], "t_in and t_out must be >= 1"),
        (["--t-in", "-3"], "t_in and t_out must be >= 1"),
        (["--t-out", "0"], "t_in and t_out must be >= 1"),
    ], ids=["t-in-2000", "t-in-0", "t-in-negative", "t-out-0"])
    def test_hi_split_too_short(self, tmp_path, tiny_config, capsys, argv, message):
        data = synth_dir(tmp_path, tiny_config)
        assert main(["hi", "--data", data] + argv) == 1
        assert message in capsys.readouterr().err

    def test_hi_prints_historical_inertia(self, tmp_path, tiny_config, capsys):
        data = synth_dir(tmp_path, tiny_config)
        capsys.readouterr()
        assert main(["hi", "--data", data, "--t-in", "3", "--t-out", "4",
                     "--horizons", "1,4"]) == 0
        bundle = load_dataset(data)
        table = evaluate_historical_inertia(bundle, chronological_split(bundle.n_steps),
                                            "test", 3, 4, [1, 4])
        assert capsys.readouterr().out.splitlines() == ["horizon,mae,rmse,mape,n_valid"] + [
            f"{key},{m.mae!r},{m.rmse!r},{m.mape!r},{m.n_valid}" for key, m in table.items()]


HUGE_LAYERS = 10 ** 12


@pytest.mark.parametrize("command", ["flops", "train", "evaluate"])
def test_any_n_layers_is_counted_or_refused(tmp_path, tiny_config, capsys, command):
    """``flops`` counts 10^12 layers, ``train`` refuses to allocate them and a
    checkpoint header claiming them is refused, none of them listing the layers."""
    with open(tiny_config) as fh:
        run = json.load(fh)
    run["model"]["n_layers"] = HUGE_LAYERS
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(run))
    data = synth_dir(tmp_path, tiny_config)
    cfg = resolve_model_config(run["model"], load_dataset(data), [])
    checkpoint = tmp_path / "huge.cfmr"
    write_checkpoint(checkpoint, {"config": cfg.to_dict(),
                                  "extra": {"norm_mean": 50.0, "norm_std": 10.0},
                                  "params": [["embed.data_proj.w", [1, 4]]]})
    argv = {"flops": ["flops", "--config", str(config), "--edges", "10"],
            "train": ["train", "--data", data, "--config", str(config),
                      "--out", str(tmp_path / "out")],
            "evaluate": ["evaluate", "--checkpoint", str(checkpoint), "--data", data]}
    capsys.readouterr()
    with address_space_cap():
        code = main(argv[command])
    out, err = capsys.readouterr()
    if command == "flops":
        # The count of one and of two layers, each summed over its full listing.
        one, two = (sum(math.prod(shape) for _, shape, _ in
                        param_spec(ConFormerConfig(**{**run["model"], "n_layers": n})))
                    for n in (1, 2))
        assert code == 0 and f"params={one + (HUGE_LAYERS - 1) * (two - one)}" in out, err
    elif command == "train":
        assert code == 1 and re.search(r"error: \d+ parameters cannot be allocated", err), err
        assert not (tmp_path / "out").exists()
    else:
        assert code == 1 and "huge.cfmr: parameter enumeration does not match config" in err


@pytest.mark.parametrize("synth", [{"days": 10 ** 9}, {"n_nodes": 10 ** 8, "days": 1}],
                         ids=["days", "n_nodes"])
def test_synth_grid_too_large_is_refused(tmp_path, tiny_config, capsys, synth):
    """A [steps, nodes] grid numpy cannot allocate is a ``ConfigError`` raised
    before the road graph is built."""
    with open(tiny_config) as fh:
        run = json.load(fh)
    run["synth"].update(synth)
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(run))
    with address_space_cap():
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
    steps = run["synth"]["days"] * 24  # the fixture's 60-minute interval
    err = capsys.readouterr().err
    assert code == 1 and re.search(
        rf"error: synth grid of {steps} steps by {run['synth']['n_nodes']} nodes cannot "
        "be allocated", err), err
    assert not (tmp_path / "out").exists()


def test_adjacency_too_large_is_refused(tmp_path, capsys):
    """An [N, N] operator numpy cannot allocate is a ``ConfigError`` naming
    the node count, raised before ``synth`` writes anything."""
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"synth": {"n_nodes": 60000, "days": 1,
                                            "interval_minutes": 1440, "incident_rate": 1.0}}))
    with address_space_cap():
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1 and "error: adjacency of 60000 nodes cannot be allocated" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_nodes", [4500, 7000])
def test_operator_is_built_in_the_guarded_adjacency(n_nodes):
    """The operator is formed in the one ``[N, N]`` array that the allocation
    guard covers: with 256 MiB to spare, 4500 nodes (154 MiB) build and 7000
    (374 MiB) are a ``ConfigError``, never an untyped ``MemoryError``."""
    g = GraphSpec(n_nodes, tuple((a, b, 1.0) for i in range(n_nodes)
                                 for a, b in ((i, (i + 1) % n_nodes), ((i + 1) % n_nodes, i))))
    # Garbage of earlier tests, collected under the cap, would widen it.
    gc.collect()
    with address_space_cap(256 << 20):
        if n_nodes == 4500:
            assert normalize_adjacency(g).shape == (4500, 4500)
        else:
            with pytest.raises(ConfigError, match="adjacency of 7000 nodes cannot be"):
                normalize_adjacency(g)


def test_train_refuses_overflowing_node_weights(tmp_path, tiny_config, capsys):
    data = synth_dir(tmp_path, tiny_config)
    with open(os.path.join(data, "adjacency.csv"), "w") as fh:
        fh.write(OVERFLOW_ADJACENCY)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["train", "--data", data, "--config", tiny_config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and OVERFLOW_ERROR in err, err
    assert not out.exists()


TRAIN = ["train", "--data", "{data}", "--config", "{config}", "--out", "{out}"]
SYNTH = ["synth", "--config", "{config}", "--out", "{out}"]

# id -> (run-config changes, argv, exit code, stderr pattern). Exit 2 is
# argparse's usage error.
BOUNDARY_PROBES = {
    "model-null": ({"model": None}, TRAIN, 1, "model section must be a JSON object, got None"),
    "train-list": ({"train": [1]}, TRAIN, 1, r"train section must be a JSON object, got \[1\]"),
    "t_in-float": ({"model": {"t_in": 4.0}}, TRAIN, 1,
                   "model config t_in must be an integer, got 4.0"),
    "d_model-string": ({"model": {"d_model": "32"}}, TRAIN, 1,
                       "model config d_model must be an integer, got '32'"),
    "ablations-string": ({"model": {"ablations": "no-alpha"}}, TRAIN, 1,
                         "model config ablations must be a list of strings, got 'no-alpha'"),
    "ablations-int-and-ablate": ({"model": {"ablations": 5}}, TRAIN + ["--ablate", "no-beta"],
                                 1, "model config ablations must be a list of strings, got 5"),
    "max_epochs-true": ({"train": {"max_epochs": True}}, TRAIN, 1,
                        "train config max_epochs must be an integer, got True"),
    "seed-float": ({"train": {"seed": 1.5}}, TRAIN, 1,
                   "train config seed must be an integer, got 1.5"),
    "clip_norm-1e200": ({"train": {"clip_norm": 1e200}}, TRAIN, 1,
                        r"clip_norm must be >= 0 with a finite square, got 1e\+200"),
    "train-seed-negative": ({}, TRAIN + ["--seed", "-1"], 1, "seed >= 0"),
    "days-true": ({"synth": {"days": True}}, SYNTH, 1,
                  "synth config days must be an integer, got True"),
    "incident_rate-1e20": ({"synth": {"incident_rate": 1e20}}, SYNTH, 1,
                           "synth incident_rate too large for 2 days: lam value too large"),
    "noise_scale-1e308": ({"synth": {"days": 1, "noise_scale": 1e308}}, SYNTH, 1,
                          r"values\[\d+, \d+\] = inf is not finite"),
    "k_hops-negative": ({"model": {"k_hops": -1}}, TRAIN, 1, "k_hops must be >= 0, got -1"),
    "flops-start_weekday-9": ({"model": {"start_weekday": 9}},
                              ["flops", "--config", "{config}", "--edges", "10"], 1,
                              "start_weekday must be in 0..6, got 9"),
    "synth-seed-negative": ({}, SYNTH + ["--seed", "-1"], 1, "seed must be >= 0, got -1"),
    "hi-t-in-huge": ({}, ["hi", "--data", "{data}", "--t-in", "99999999999999999999"], 1,
                     "split 'test' too short for T=99999999999999999999, T'=12"),
    # Widths numpy cannot allocate: no test may use one that it can.
    "d_data-1e20": ({"model": {"d_data": 10 ** 20}}, TRAIN, 1,
                    r"parameter 'embed.data_proj.w' of shape \(1, 100000000000000000000\) "
                    "cannot be allocated: Maximum allowed dimension exceeded"),
    "d_data-2^62": ({"model": {"d_data": 2 ** 62}}, TRAIN, 1,
                    r"parameter 'embed.data_proj.w' of shape \(1, 4611686018427387904\) "
                    "cannot be allocated: array is too big"),
    "checkpoint-d_model-float": (
        {}, ["evaluate", "--checkpoint", "{checkpoint}", "--data", "{data}"], 1,
        "bad.cfmr: corrupt checkpoint header: .*model config d_model must be an "
        "integer, got 8.0"),
    "evaluate-horizons-text": (
        {}, ["evaluate", "--checkpoint", "{checkpoint}", "--data", "{data}",
             "--horizons", "1,x"], 2,
        "argument --horizons: invalid horizon_list value: '1,x'"),
    "hi-horizons-text": ({}, ["hi", "--data", "{data}", "--horizons", "1,x"], 2,
                         "argument --horizons: invalid horizon_list value: '1,x'"),
    "hi-horizon-abbreviated": ({}, ["hi", "--data", "{data}", "--horizon", "1"], 2,
                               "unrecognized arguments: --horizon 1"),
    "synth-config-abbreviated": ({}, ["synth", "--conf", "{config}", "--out", "{out}"], 2,
                                 "unrecognized arguments: --conf"),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_PROBES))
def test_bad_input_is_a_typed_error(tmp_path, tiny_config, capsys, name):
    """Each bad config value or option exits 1 with a message naming what to
    fix, or 2 with argparse's usage error; none raises, none writes output."""
    changes, argv, code, message = BOUNDARY_PROBES[name]
    with open(tiny_config) as fh:
        cfg = json.load(fh)
    for section, value in changes.items():
        cfg[section] = {**cfg[section], **value} if isinstance(value, dict) else value
    config = tmp_path / "probe.json"
    config.write_text(json.dumps(cfg))
    blob = json.dumps({"config": {"d_model": 8.0}, "params": []}).encode()
    checkpoint = tmp_path / "bad.cfmr"
    checkpoint.write_bytes(b"CFMR1\n" + struct.pack("<Q", len(blob)) + blob)
    fill = {"config": str(config), "out": str(tmp_path / "out"),
            "checkpoint": str(checkpoint)}
    if "{data}" in argv:
        fill["data"] = synth_dir(tmp_path, tiny_config)
        capsys.readouterr()
    try:
        got = main([arg.format(**fill) for arg in argv])
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code and re.search(message, err), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config_text, argv, error", [
    ("{", ["flops", "--edges", "1"], LoadError),
    ("[1]", ["flops", "--edges", "1"], ConfigError),
    ('{"modle": {}}', ["flops", "--edges", "1"], ConfigError),
    (None, ["flops"], ConfigError),
    ("[" * 100_000, ["flops", "--edges", "1"], LoadError),
], ids=["invalid-json", "not-an-object", "unknown-section", "flops-no-edge-count",
        "nested-json"])
def test_cli_failure_types(tmp_path, config_text, argv, error):
    """Each CLI failure raises a ``ConformerError`` subclass, never the base."""
    if config_text is not None:
        path = tmp_path / "run.json"
        path.write_text(config_text)
        argv = argv + ["--config", str(path)]
    args = build_parser().parse_args(argv)
    with pytest.raises(ConformerError) as info:
        args.func(args)
    assert type(info.value) is error


@pytest.mark.parametrize("target", ["config", "meta", "checkpoint"])
def test_deeply_nested_json_is_one_error_line(tmp_path, tiny_config, capsys, target):
    """100,000 nested ``[`` exhaust the JSON decoder's recursion; each of the
    three JSON readers turns that into one ``error:`` line naming its file."""
    data = synth_dir(tmp_path, tiny_config)
    nested = b"[" * 100_000
    config, meta, checkpoint = (tmp_path / "nested.json", tmp_path / "data" / "meta.json",
                                tmp_path / "nested.cfmr")
    path, blob, argv = {
        "config": (config, nested, ["flops", "--config", str(config)]),
        "meta": (meta, nested, ["hi", "--data", data]),
        "checkpoint": (checkpoint, b"CFMR1\n" + struct.pack("<Q", len(nested)) + nested,
                       ["evaluate", "--data", data, "--checkpoint", str(checkpoint)]),
    }[target]
    path.write_bytes(blob)
    capsys.readouterr()
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), lines
    assert "maximum recursion depth exceeded" in lines[0]
