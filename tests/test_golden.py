"""sha256 digests of what the model computes and what the CLI writes.

A change that claims to keep every output byte is checked here: the forward
pass of each ablation, one gradient record, one Adam step and the files of
the criterion-10 CLI run. Float64 GEMM bits can depend on the OpenBLAS kernel
chosen for the CPU, so the digests are recorded with the numpy version and
the OpenBLAS core named in ``RECORDED_WITH``, and a mismatch names both.
Re-recording a digest is a change to a check: say so, with the reason.
"""

import ctypes
import hashlib
import json
import os

import numpy as np
import pytest

from conformer import numerics as nm
from conformer.cli import main
from conformer.data import NormalizationStats
from conformer.graph import GraphSpec
from conformer.model import ABLATIONS, ConFormerConfig, forward, init_params
from conformer.trainer import AdamState, TrainConfig, masked_mae_loss

RECORDED_WITH = {"numpy": "2.4.6", "openblas_core": "SkylakeX"}


def openblas_core() -> str | None:
    """The kernel set OpenBLAS picked for this CPU, read from the library
    numpy loaded, or None where that cannot be read. ``np.show_config``
    names the build target instead."""
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


def check(name: str, digest: str, recorded: str) -> None:
    if digest != recorded:
        running = {"numpy": np.__version__, "openblas_core": openblas_core()}
        pytest.fail(f"{name}: sha256 {digest} differs from the recorded {recorded}. "
                    f"Recorded with {RECORDED_WITH}; running {running}")


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def model_config(**kw) -> ConFormerConfig:
    base = dict(t_in=4, t_out=3, n_nodes=5, d_data=4, d_acc=3, d_reg=3, d_dow=3,
                d_tod=3, d_stae=4, d_model=12, k_hops=2, n_heads=2, n_layers=1,
                dropout=0.1, steps_per_day=12, start_weekday=2, start_slot=3,
                n_acc_codes=3, n_reg_codes=2)
    return ConFormerConfig(**{**base, **kw})


def perturbed_params(cfg):
    """Initial parameters moved off their init, so the zero generator heads
    and unit norms take part in every digest."""
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(1)
    params.replace({name: t.data + 0.2 * rng.standard_normal(t.shape)
                    for name, t in params.entries()})
    return params


def model_inputs(cfg, batch=3):
    rng = np.random.default_rng(2)
    shape = (batch, cfg.t_in, cfg.n_nodes)
    x = rng.normal(size=shape + (1,))
    acc = rng.integers(0, cfg.n_acc_codes, size=shape)
    reg = rng.integers(0, cfg.n_reg_codes, size=shape)
    t0s = np.array([0, 7, 22][:batch])
    edges = [(i, (i + 1) % cfg.n_nodes, 1.0) for i in range(cfg.n_nodes)]
    graph = GraphSpec(cfg.n_nodes, tuple(edges) + ((0, 2, 0.5), (3, 1, 2.0)))
    return x, acc, reg, t0s, graph


FORWARD_CASES = {"base": {}, "n_layers-0": {"n_layers": 0}, "n_layers-2": {"n_layers": 2},
                 **{flag: {"ablations": (flag,)} for flag in ABLATIONS}}

FORWARD_DIGESTS = {
    "base": "9ef0bf12a5d924e7cfe1e890999c4ee4a605127b101da183e016a33048d4eeb0",
    "n_layers-0": "07979a16cd5af1534ce98d57d77da282e464b6379e9b77c320baba655622b29a",
    "n_layers-2": "8e983af905766b799d705152aadbbaf3134612e64698582a3fe1b18b62de20a0",
    "no-accident": "c16f32def7b7a90f137bd40b0e4894df71e1849429e5ea18dd7f9c891a89469a",
    "no-regulation": "d659cb140f12a6e358a59debf6e52244758ded991c7304f2d6031a17fa1eacae",
    "no-alpha": "821dcd8cef1a39ca02e758ffad61d2c93e188a45f4a7e8ebb7ddad21bd27dab8",
    "no-beta": "cf08d21d84a0f084da9655b5f5bf1a26c8ec4868862ab91f15e7e32a03d3ba03",
    "no-gamma": "c725d4f4054d8fc461efc2f355b556903ac4c748feae157e307b2f20a3772abf",
    "no-spatial": "ff3d6136bd0143f653dc7483f3ec4b58ac4ed405a796f714e9e3deed5f1e5a00",
    "no-temporal": "704da7ba3a84470a63789cf36306b325f396d2982a9db6f4b7ea519370e00d4a",
    "plain-ln": "24a20cefd6b1c8bbbea83cd49842f8ad3eb9addbe00448c319aa14899299927f",
}


@pytest.mark.parametrize("case", sorted(FORWARD_CASES))
def test_forward_digest(case):
    """The batched output, then each window's unbatched output."""
    cfg = model_config(**FORWARD_CASES[case])
    params = perturbed_params(cfg)
    x, acc, reg, t0s, graph = model_inputs(cfg)
    outputs = [forward(x, acc, reg, t0s, graph, params, cfg).data]
    outputs += [forward(x[b], acc[b], reg[b], int(t0s[b]), graph, params, cfg).data
                for b in range(len(t0s))]
    check(f"forward {case}", sha(*outputs), FORWARD_DIGESTS[case])


BACKWARD_DIGEST = "d1e38881dbcb240ec1f63b642ec174ee1467df83bd8ecc03d026cd97d70c1d25"
ADAM_DIGEST = "441048a4562503ec6198980f39150afa182af54dfded024e8bab0745729f0aa4"


def test_backward_and_adam_digests():
    """The gradient record of one masked-MAE loss under dropout, and the
    parameters after one Adam step with it."""
    cfg = model_config()
    params = perturbed_params(cfg)
    x, acc, reg, t0s, graph = model_inputs(cfg)
    stats = NormalizationStats(50.0, 10.0)
    rng = np.random.default_rng(3)
    target = 50.0 + 10.0 * rng.normal(size=(len(t0s), cfg.t_out, cfg.n_nodes, 1))
    target[0, 1, 2] = target[2, 0, 4] = 0.0  # missing readings, masked out
    pred = forward(x, acc, reg, t0s, graph, params, cfg,
                   dropout_rng=np.random.default_rng(4))
    grads = nm.backward(masked_mae_loss(pred, target, stats), dict(params.entries()))
    check("backward", sha(*grads.values()), BACKWARD_DIGEST)
    AdamState(params).step(params, grads, TrainConfig(clip_norm=1.0))
    check("adam step", sha(*(t.data for _, t in params.entries())), ADAM_DIGEST)


# The criterion-10 run: synth at seed 9, train at seed 4.
CLI_RUN = {
    "synth": {"n_nodes": 5, "days": 2, "interval_minutes": 30, "topology": "ring",
              "incident_rate": 1.0, "duration_steps": 4, "recovery_steps": 3},
    "model": {"t_in": 4, "t_out": 4, "d_data": 4, "d_acc": 3, "d_reg": 3, "d_dow": 3,
              "d_tod": 3, "d_stae": 4, "d_model": 8, "k_hops": 1, "n_heads": 2,
              "dropout": 0.1},
    "train": {"learning_rate": 0.002, "batch_size": 16, "max_epochs": 2, "patience": 5},
}

CLI_DIGESTS = {
    "checkpoint.cfmr": "562253e6f740f12dd56004d885272615ac7b784e9be9610a63ae2364309cdbd0",
    "history.csv": "1cb73341fab3f23f14537263b5480fb3b94a5b5e72e50634d655a0a71c9585c5",
    "metrics.csv": "90a10156f13a0cf3e98286bd49a33f4b81257e15863c660bba0c9c6439aefc81",
    "forecast.csv": "6472035b90ca180c4e9522438e63bc469056296fd5a2dc07abbbf4e7013122ed",
}


def test_cli_run_digests(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(CLI_RUN))
    data, out = str(tmp_path / "data"), tmp_path / "out"
    checkpoint = str(out / "checkpoint.cfmr")
    for argv in (["synth", "--config", str(config), "--seed", "9", "--out", data],
                 ["train", "--data", data, "--config", str(config), "--seed", "4",
                  "--out", str(out)],
                 ["evaluate", "--checkpoint", checkpoint, "--data", data,
                  "--horizons", "1,2,4", "--out", str(out)],
                 ["predict", "--checkpoint", checkpoint, "--data", data, "--at", "7",
                  "--out", str(out)]):
        assert main(argv) == 0, argv
    for name, recorded in CLI_DIGESTS.items():
        check(name, hashlib.sha256((out / name).read_bytes()).hexdigest(), recorded)
