import json
import os
import re

import numpy as np
import pytest

from conformer.cli import main
from conformer.data import load_dataset
from conformer.model import load_checkpoint, save_checkpoint


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


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
        out = str(tmp_path / "quiet")
        assert main(["synth", "--config", tiny_config, "--seed", "1",
                     "--out", out, "--incident-rate", "0"]) == 0
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

    def test_missing_dataset_fails_before_training(self, tmp_path, tiny_config):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--config", tiny_config, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("calendar, message", [
        ({"steps_per_day": 288},
         "steps_per_day=24 differs from model config steps_per_day=288"),
        ({"start_weekday": 3}, "start_weekday=0 differs from model config start_weekday=3"),
        ({"start_slot": 5}, "start_slot=0 differs from model config start_slot=5"),
    ], ids=["steps", "weekday", "slot"])
    def test_calendar_mismatch_fails_before_training(self, tmp_path, tiny_config,
                                                     capsys, calendar, message):
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
        for at in ("99999", "-1"):
            assert main(["predict", "--checkpoint", ckpt, "--data", data,
                         "--at", at, "--out", str(tmp_path / "p")]) == 1
            err = capsys.readouterr().err
            assert f"window start {at} " in err and f"[0, {n_steps - 3}]" in err, err
        assert not os.path.exists(tmp_path / "p")

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("extra, message", [
        (None, "no 'norm_mean'"),
        ({"norm_mean": 1.0}, "no 'norm_std'"),
        ({"norm_mean": "fast", "norm_std": 1.0},
         "'norm_mean' must be a finite number.*'fast'"),
        ({"norm_mean": float("nan"), "norm_std": 1.0},
         "'norm_mean' must be a finite number.*nan"),
        ({"norm_mean": 1.0, "norm_std": float("inf")},
         "'norm_std' must be a finite number.*inf"),
        ({"norm_mean": 1.0, "norm_std": 0.0}, "'norm_std': std must be > 0, got 0.0"),
    ], ids=["no-stats", "no-std", "text-mean", "nan-mean", "inf-std", "zero-std"])
    def test_checkpoint_stats_checked(self, tmp_path, trained, capsys, command,
                                      extra, message):
        data, ckpt = trained
        params, _ = load_checkpoint(ckpt)
        bad = str(tmp_path / "bad.cfmr")
        save_checkpoint(bad, params, extra)
        argv = [command, "--checkpoint", bad, "--data", data]
        if command == "predict":
            argv += ["--at", "0", "--out", str(tmp_path / "p")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "bad.cfmr" in err and re.search(message, err), err

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("synth, message", [
        ({"interval_minutes": 30, "start_weekday": 2},
         "steps_per_day=48 differs from checkpoint steps_per_day=24"),
        ({"start_weekday": 2}, "start_weekday=2 differs from checkpoint start_weekday=0"),
        ({"start_slot": 5}, "start_slot=5 differs from checkpoint start_slot=0"),
    ], ids=["interval", "weekday", "slot"])
    def test_calendar_mismatch_rejected(self, tmp_path, trained, capsys, command,
                                        synth, message):
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

    def test_flops_needs_edge_count(self):
        assert main(["flops"]) == 1

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
