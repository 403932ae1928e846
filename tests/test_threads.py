"""Outputs are bitwise at any ``CONFORMER_THREADS``: the intra-op split of
``conformer.numerics`` changes no byte of what the model computes or the CLI
writes, with even slabs and uneven ones."""

import json

import pytest

import test_golden as golden
from conformer.cli import main

# One N=30 epoch in batches of 64 and 29 windows: its arrays pass the split floor.
N30_RUN = {
    "synth": {"n_nodes": 30, "days": 3, "interval_minutes": 30, "topology": "ring",
              "incident_rate": 0.5},
    "model": {"t_in": 4, "t_out": 4, "d_model": 16, "k_hops": 1, "n_heads": 2,
              "dropout": 0.1},
    "train": {"learning_rate": 0.002, "batch_size": 64, "max_epochs": 1},
}


@pytest.mark.parametrize("run", ["criterion-10", "n30-b64"])
def test_train_bytes_at_any_thread_count(tmp_path, threads, slabs, run):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(golden.CLI_RUN if run == "criterion-10" else N30_RUN))
    data = str(tmp_path / "data")
    assert main(["synth", "--config", str(config), "--seed", "9", "--out", data]) == 0
    written = {}
    for count in ("1", "2", "3"):
        threads(count)
        out = tmp_path / f"threads-{count}"
        assert main(["train", "--data", data, "--config", str(config), "--seed", "4",
                     "--out", str(out)]) == 0
        written[count] = [(out / name).read_bytes()
                            for name in ("checkpoint.cfmr", "history.csv")]
    assert written["2"] == written["1"] and written["3"] == written["1"]
    # The criterion-10 arrays are all under the floor; the N=30 ones split.
    assert {k for _, k in slabs} == (set() if run == "criterion-10" else {2, 3})


@pytest.mark.parametrize("workers", [2, 3])
def test_golden_digests_with_every_op_split(tmp_path, force_split, workers):
    """``test_golden.py`` with each op of two or more rows split, whatever its
    size: 3 windows over 2 workers, or rows unevenly over 3."""
    force_split(workers)
    for case in sorted(golden.FORWARD_CASES):
        golden.test_forward_digest(case)
    golden.test_backward_and_adam_digests()
    golden.test_cli_run_digests(tmp_path)
