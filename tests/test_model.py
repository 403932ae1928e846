import hashlib
import json
import struct
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conformer import numerics as nm
from conformer.data import NormalizationStats, SynthConfig
from conformer.embeddings import embed_all
from conformer.errors import ConfigError, DimensionError, LoadError, ValidationError
from conformer.graph import GraphSpec
from conformer.model import (ABLATIONS, ConFormerConfig, ConFormerParams, config_from_dict,
                             count_params, estimate_flops, forward, init_params,
                             load_checkpoint, param_spec, readout, save_checkpoint)
from conformer.trainer import TrainConfig, masked_mae_loss
import test_golden as golden
from oracles import (composite_dropout, composite_gelu_affine, composite_gln,
                     reference_forward)


def tiny_cfg(**kw):
    base = dict(t_in=4, t_out=4, n_nodes=5, d_in=1, d_data=4, d_acc=3, d_reg=3,
                d_dow=3, d_tod=3, d_stae=4, d_model=8, k_hops=1, n_heads=2,
                n_layers=1, dropout=0.0, steps_per_day=12, n_acc_codes=3,
                n_reg_codes=2)
    base.update(kw)
    return ConFormerConfig(**base)


def tiny_inputs(cfg, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(cfg.t_in, cfg.n_nodes, cfg.d_in))
    acc = rng.integers(0, cfg.n_acc_codes, size=(cfg.t_in, cfg.n_nodes))
    reg = rng.integers(0, cfg.n_reg_codes, size=(cfg.t_in, cfg.n_nodes))
    graph = GraphSpec(cfg.n_nodes, tuple((i, (i + 1) % cfg.n_nodes, 1.0)
                                         for i in range(cfg.n_nodes)))
    return x, acc, reg, graph


class TestConfig:
    def test_heads_must_divide(self):
        zero_widths = dict(d_data=0, d_acc=0, d_reg=0, d_dow=0, d_tod=0, d_stae=0)
        for bad in (dict(d_model=10, n_heads=4), dict(n_heads=0), dict(n_heads=-4),
                    dict(d_model=0), dict(n_layers=-1), dict(d_in=0),
                    dict(d_stae=-1), dict(d_acc=-3), zero_widths, dict(eps=0.0),
                    dict(eps=-1.0), dict(eps=float("nan")), dict(eps=float("inf")),
                    dict(n_acc_codes=0), dict(n_reg_codes=0), dict(steps_per_day=0),
                    dict(start_weekday=9), dict(start_weekday=-1), dict(start_slot=12)):
            with pytest.raises(ConfigError):
                tiny_cfg(**bad)

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(ablations=("no-such-thing",))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(ConFormerConfig, {"bogus": 1}, "model")

    def test_round_trip(self):
        cfg = tiny_cfg(ablations=("no-beta",))
        assert config_from_dict(ConFormerConfig, cfg.to_dict(), "model") == cfg


# Any JSON value: huge ints, non-finite floats, bools, strings, lists, null,
# and values a field may take, so that some drawn dicts build a config.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**30, 10**30),
    st.floats(), st.floats(0, 1), st.text(max_size=6),
    st.sampled_from(["ring", "grid", "random-geometric"]),
    st.lists(st.sampled_from(ABLATIONS + ("bogus",)), max_size=3),
    st.lists(st.one_of(st.integers(), st.floats(), st.none()), max_size=3))


@pytest.mark.parametrize("cls", [ConFormerConfig, TrainConfig, SynthConfig])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_from_dict_builds_or_raises_config_error(cls, data):
    """Only builds configs: a drawn days or n_layers of 10^9 would never finish
    a run."""
    keys = st.sampled_from(sorted(cls.__dataclass_fields__) + ["bogus", "Seed"])
    section = data.draw(st.dictionaries(keys, JSON_VALUES, max_size=6))
    try:
        cfg = config_from_dict(cls, section, "drawn")
    except ConfigError:
        return
    assert all(getattr(cfg, key) is value for key, value in section.items()
               if key != "ablations")  # each value as given; ablations are sorted


class TestForward:
    def test_output_shape(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=1)
        x, acc, reg, graph = tiny_inputs(cfg)
        out = forward(x, acc, reg, 0, graph, params, cfg)
        assert out.shape == (cfg.t_out, cfg.n_nodes, 1)

    def test_zero_init_identity_path(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=2)
        x, acc, reg, graph = tiny_inputs(cfg, seed=3)
        out = forward(x, acc, reg, 5, graph, params, cfg)
        emb = embed_all(nm.Tensor(x), acc, reg, 5, params, cfg.calendar())
        direct = readout(emb, params, cfg)
        assert out.data.tobytes() == direct.data.tobytes()

    def test_zero_init_identity_stacked_layers(self):
        cfg = tiny_cfg(n_layers=3)
        params = init_params(cfg, seed=2)
        x, acc, reg, graph = tiny_inputs(cfg, seed=3)
        out = forward(x, acc, reg, 5, graph, params, cfg)
        emb = embed_all(nm.Tensor(x), acc, reg, 5, params, cfg.calendar())
        direct = readout(emb, params, cfg)
        assert out.data.tobytes() == direct.data.tobytes()

    def test_determinism_same_seed(self):
        cfg = tiny_cfg()
        x, acc, reg, graph = tiny_inputs(cfg)
        a = forward(x, acc, reg, 0, graph, init_params(cfg, seed=9), cfg)
        b = forward(x, acc, reg, 0, graph, init_params(cfg, seed=9), cfg)
        assert a.data.tobytes() == b.data.tobytes()

    def test_batched_matches_loop(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(5)
        params.replace({n: rng.normal(0, 0.2, t.shape) for n, t in params.entries()})
        x, acc, reg, graph = tiny_inputs(cfg)
        xb = np.stack([x, x * 0.7, x + 0.1])
        accb = np.stack([acc, acc, acc])
        regb = np.stack([reg, reg, reg])
        t0s = np.array([0, 2, 4])
        out = forward(xb, accb, regb, t0s, graph, params, cfg).data
        for i in range(3):
            single = forward(xb[i], accb[i], regb[i], int(t0s[i]), graph,
                             params, cfg).data
            assert np.abs(out[i] - single).max() <= 1e-12

    def test_no_tape_forward_bitwise(self):
        cfg = tiny_cfg(n_layers=2)
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(6)
        params.replace({n: rng.normal(0, 0.2, t.shape) for n, t in params.entries()})
        x, acc, reg, graph = tiny_inputs(cfg)
        taped = forward(x, acc, reg, 3, graph, params, cfg)
        with nm.no_tape():
            untaped = forward(x, acc, reg, 3, graph, params, cfg)
        assert untaped.data.tobytes() == taped.data.tobytes()
        assert taped._parents and untaped._parents == ()

    def test_shape_mismatch_rejected(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=1)
        x, acc, reg, graph = tiny_inputs(cfg)
        with pytest.raises(DimensionError):
            forward(x[:2], acc[:2], reg[:2], 0, graph, params, cfg)
        # t0 must hold exactly one start per window
        xb, accb, regb = np.stack([x, x]), np.stack([acc, acc]), np.stack([reg, reg])
        for args in ((x, acc, reg, np.array([0, 5, 7])), (x, acc, reg, [0]),
                     (xb, accb, regb, 0), (xb, accb, regb, [0, 1, 2])):
            with pytest.raises(ValidationError, match="one start per window"):
                forward(*args, graph, params, cfg)

    def test_graph_size_mismatch_rejected(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=1)
        x, acc, reg, _ = tiny_inputs(cfg)
        wrong = GraphSpec(3, ())
        with pytest.raises(DimensionError):
            forward(x, acc, reg, 0, wrong, params, cfg)

    def test_graph_size_checked_before_operator_is_built(self):
        # A 3000-node operator would take 69 MiB; the refusal allocates none of it.
        cfg = tiny_cfg(n_nodes=3)
        params = init_params(cfg, seed=1)
        x, acc, reg, _ = tiny_inputs(cfg)
        wrong = GraphSpec(3000)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="graph has 3000 nodes, config expects 3"):
                forward(x, acc, reg, 0, wrong, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestAblations:
    def baseline(self, cfg, seed=6):
        params = init_params(cfg, seed=seed)
        rng = np.random.default_rng(seed + 1)
        values = {n: rng.normal(0, 0.2, t.shape) for n, t in params.entries()}
        return values

    def run(self, ablations, values):
        cfg = tiny_cfg(ablations=ablations)
        params = init_params(cfg, seed=0)
        overlaps = {n: v for n, v in values.items() if n in params.arrays}
        params.replace(overlaps)
        x, acc, reg, graph = tiny_inputs(cfg, seed=7)
        return forward(x, acc, reg, 0, graph, params, cfg).data

    def test_each_flag_changes_output(self):
        cfg = tiny_cfg()
        values = self.baseline(cfg)
        base = self.run((), values)
        for flag in ("no-accident", "no-alpha", "no-beta", "no-gamma",
                     "no-spatial", "no-temporal", "plain-ln"):
            assert not np.allclose(self.run((flag,), values), base), flag

    def test_no_accident_equals_zeroed_ids(self):
        cfg = tiny_cfg()
        values = self.baseline(cfg)
        params = init_params(cfg, seed=0)
        params.replace(values)
        x, acc, reg, graph = tiny_inputs(cfg, seed=7)
        ablated_cfg = tiny_cfg(ablations=("no-accident",))
        out_abl = forward(x, acc, reg, 0, graph, params, ablated_cfg).data
        out_zero = forward(x, np.zeros_like(acc), reg, 0, graph, params, cfg).data
        assert np.array_equal(out_abl, out_zero)

    def test_no_alpha_is_plain_residual(self):
        # with alpha frozen to 1, fresh params no longer collapse to identity
        cfg = tiny_cfg(ablations=("no-alpha",))
        params = init_params(cfg, seed=8)
        x, acc, reg, graph = tiny_inputs(cfg, seed=9)
        out = forward(x, acc, reg, 0, graph, params, cfg)
        emb = embed_all(nm.Tensor(x), acc, reg, 0, params, cfg.calendar())
        direct = readout(emb, params, cfg)
        assert not np.allclose(out.data, direct.data)

    def test_plain_ln_adds_parameters(self):
        with_ln = init_params(tiny_cfg(ablations=("plain-ln",)), seed=0)
        without = init_params(tiny_cfg(), seed=0)
        names = {n for n, _ in with_ln.entries()} - {n for n, _ in without.entries()}
        assert names == {"layer0.ln1.gamma", "layer0.ln1.beta",
                         "layer0.ln2.gamma", "layer0.ln2.beta"}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), t_in=st.integers(1, 6), n_nodes=st.integers(1, 6),
       d_model=st.sampled_from([4, 8]), n_heads=st.sampled_from([1, 2]),
       k_hops=st.integers(0, 2), n_layers=st.integers(0, 2),
       ablations=st.sets(st.sampled_from(ABLATIONS)), batch=st.integers(0, 2))
def test_forward_matches_reference_model(data, t_in, n_nodes, d_model, n_heads, k_hops,
                                         n_layers, ablations, batch):
    """``forward`` against the plain-numpy model of ``oracles.reference_forward``,
    with perturbed parameters so every generator head is live; ``batch`` 0
    is one unbatched window."""
    steps_per_day = data.draw(st.integers(1, 6))
    cfg = ConFormerConfig(
        t_in=t_in, t_out=data.draw(st.integers(1, 3)), n_nodes=n_nodes,
        d_in=data.draw(st.integers(1, 2)), d_data=data.draw(st.integers(1, 3)),
        d_acc=data.draw(st.integers(0, 2)), d_reg=data.draw(st.integers(0, 2)),
        d_dow=data.draw(st.integers(0, 2)), d_tod=data.draw(st.integers(0, 2)),
        d_stae=data.draw(st.integers(0, 2)), d_model=d_model, k_hops=k_hops,
        n_heads=n_heads, n_layers=n_layers, dropout=0.0, steps_per_day=steps_per_day,
        start_weekday=data.draw(st.integers(0, 6)),
        start_slot=data.draw(st.integers(0, steps_per_day - 1)),
        n_acc_codes=data.draw(st.integers(1, 3)), n_reg_codes=data.draw(st.integers(1, 3)),
        ablations=tuple(ablations))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    params = init_params(cfg, seed=0)
    params.replace({name: t.data + rng.normal(0, 0.2, t.shape) for name, t in params.entries()})
    lead = (batch,) if batch else ()
    x = rng.normal(size=lead + (t_in, n_nodes, cfg.d_in))
    acc = rng.integers(0, cfg.n_acc_codes, size=lead + (t_in, n_nodes))
    reg = rng.integers(0, cfg.n_reg_codes, size=lead + (t_in, n_nodes))
    t0 = rng.integers(0, 50, size=lead) if batch else int(rng.integers(0, 50))
    graph = GraphSpec(n_nodes, tuple((i, j, float(rng.uniform(0.1, 2.0)))
                                     for i in range(n_nodes) for j in range(n_nodes)
                                     if i != j and rng.random() < 0.4))
    out = forward(x, acc, reg, t0, graph, params, cfg).data
    assert nm.relative_error(out, reference_forward(x, acc, reg, t0, graph, params, cfg)) <= 1e-12


def _drawn_model(data, rng, batch: int, **fixed):
    """A config drawn over every accepted embedding width, zeros included,
    its parameters perturbed by N(0, 0.2) so every generator head is live, and
    a batch of random windows on a random graph."""
    widths = {name: data.draw(st.integers(0, 2), label=name)
              for name in ("d_data", "d_acc", "d_reg", "d_dow", "d_tod", "d_stae")}
    assume(sum(widths.values()) >= 1)
    t_in, n_nodes = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    steps_per_day = data.draw(st.integers(1, 6))
    cfg = ConFormerConfig(
        t_in=t_in, t_out=data.draw(st.integers(1, 3)), n_nodes=n_nodes,
        d_in=data.draw(st.integers(1, 2)), **widths,
        d_model=data.draw(st.sampled_from([4, 8])), k_hops=data.draw(st.integers(0, 2)),
        n_heads=data.draw(st.sampled_from([1, 2])), n_layers=data.draw(st.integers(0, 2)),
        steps_per_day=steps_per_day, start_weekday=data.draw(st.integers(0, 6)),
        start_slot=data.draw(st.integers(0, steps_per_day - 1)),
        n_acc_codes=data.draw(st.integers(1, 3)), n_reg_codes=data.draw(st.integers(1, 3)),
        ablations=tuple(data.draw(st.sets(st.sampled_from(ABLATIONS)))), **fixed)
    params = init_params(cfg, seed=0)
    params.replace({name: t.data + rng.normal(0, 0.2, t.shape) for name, t in params.entries()})
    lead = (batch,)
    x = rng.normal(size=lead + (t_in, n_nodes, cfg.d_in))
    acc = rng.integers(0, cfg.n_acc_codes, size=lead + (t_in, n_nodes))
    reg = rng.integers(0, cfg.n_reg_codes, size=lead + (t_in, n_nodes))
    t0 = rng.integers(0, 50, size=lead)
    graph = GraphSpec(n_nodes, tuple((i, j, float(rng.uniform(0.1, 2.0)))
                                     for i in range(n_nodes) for j in range(n_nodes)
                                     if i != j and rng.random() < 0.4))
    return cfg, params, (x, acc, reg, t0, graph)


@pytest.mark.parametrize("split", ["default", "every-op-over-2"])
@settings(max_examples=200, deadline=None,
          # the fixture forces the split once, for every example alike
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), batch=st.integers(1, 2))
def test_backward_matches_reference_gradient(force_split, split, data, batch):
    """The assembled backward pass against ``oracles.reference_forward``:
    ⟨gradient record, u⟩ for the smooth loss ⟨forward, c⟩ equals a 4-point
    central difference of the reference along a random direction u."""
    if split != "default":
        force_split(2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    cfg, params, inputs = _drawn_model(data, rng, batch, dropout=0.0)
    c = rng.normal(size=(batch, cfg.t_out, cfg.n_nodes, 1))
    u = {name: rng.normal(size=t.shape) for name, t in params.entries()}
    norm = np.sqrt(sum(float((a * a).sum()) for a in u.values()))
    u = {name: a / norm for name, a in u.items()}  # a unit step keeps the stencil exact
    record = nm.backward(nm.tsum(forward(*inputs, params, cfg) * c), dict(params.entries()))
    along_u = sum(float((record[name] * u[name]).sum()) for name in u)

    def loss_at(eps: float) -> float:
        moved = ConFormerParams(cfg, OrderedDict(
            (name, nm.Tensor(t.data + eps * u[name])) for name, t in params.entries()))
        return float((reference_forward(*inputs, moved, cfg) * c).sum())

    # The stencil's truncation error falls as h^4 and its rounding error grows
    # as 1/h: at h = 1e-3 one drawn config read 4.1e-8, at 2.5e-4 it reads
    # 1.5e-10, and no draw of 3000 read over 2.7e-11.
    h = 2.5e-4
    difference = (loss_at(-2 * h) - 8 * loss_at(-h) + 8 * loss_at(h) - loss_at(2 * h)) / (12 * h)
    assert nm.relative_error(along_u, difference) <= 1e-8


@pytest.mark.parametrize("split", ["1-thread", "every-op-over-3"])
@pytest.mark.parametrize("ablation", ["", "plain-ln", "no-gamma", "no-beta", "no-alpha"])
def test_fused_nodes_match_the_composites_they_replace(monkeypatch, threads, force_split,
                                                       split, ablation):
    """One masked-MAE step under dropout gives the same forward and gradient
    bytes with GLN, each generator head and dropout as one node
    (``nm.gln``, ``nm.gelu_affine``, ``nm.dropout``) as with the composites
    they replaced."""
    if split == "1-thread":
        threads(1)
    else:
        force_split(3)
    cfg = golden.model_config(ablations=(ablation,) if ablation else ())
    rng = np.random.default_rng(3)
    target = 50.0 + 10.0 * rng.normal(size=(3, cfg.t_out, cfg.n_nodes, 1))
    target[0, 1, 2] = 0.0

    def step():
        params = golden.perturbed_params(cfg)
        pred = forward(*golden.model_inputs(cfg), params, cfg,
                       dropout_rng=np.random.default_rng(4))
        loss = masked_mae_loss(pred, target, NormalizationStats(50.0, 10.0))
        grads = nm.backward(loss, dict(params.entries()))
        return pred.data.tobytes(), {name: g.tobytes() for name, g in grads.items()}

    fused = step()
    for name, composite in (("gln", composite_gln), ("gelu_affine", composite_gelu_affine),
                            ("dropout", composite_dropout)):
        monkeypatch.setattr(nm, name, composite)
    assert step() == fused


class TestCounting:
    def test_single_affine(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=0)
        w = params["embed.data_proj.w"]
        b = params["embed.data_proj.b"]
        assert w.size + b.size == cfg.d_in * cfg.d_data + cfg.d_data

    def test_affine_3x4_with_bias_is_16(self):
        assert 3 * 4 + 4 == 16  # the accounting rule count_params applies

    def test_embedding_table_7x8(self):
        cfg = tiny_cfg(d_dow=8)
        params = init_params(cfg, seed=0)
        assert params["embed.dow_table"].size == 56

    def test_total_is_sum_of_entries(self):
        for cfg in (tiny_cfg(n_layers=0), tiny_cfg(), tiny_cfg(n_layers=2, ablations=("plain-ln",)),
                    tiny_cfg(n_layers=3)):
            built = init_params(cfg, seed=0)
            assert count_params(cfg) == sum(t.size for _, t in built.entries())

    def test_default_config_count_stable(self):
        # recorded value for the default desk-scale configuration
        cfg = ConFormerConfig(t_in=12, t_out=12, n_nodes=30, steps_per_day=288,
                              n_acc_codes=3, n_reg_codes=2)
        assert count_params(cfg) == 45134


class TestParamSpec:
    def test_spec_matches_init_params(self):
        flags = ("no-accident", "no-regulation", "no-alpha", "no-beta", "no-gamma",
                 "no-spatial", "no-temporal", "plain-ln")
        for cfg in [tiny_cfg(n_layers=2)] + [tiny_cfg(ablations=(f,)) for f in flags]:
            spec = [(name, shape) for name, shape, _ in param_spec(cfg)]
            drawn = [(name, t.shape) for name, t in init_params(cfg, seed=0).entries()]
            assert spec == drawn, cfg.ablations

    def test_forward_reads_exactly_spec_names(self):
        # A name is written twice: in param_spec and in the layer that reads it.
        class Recording(dict):
            def __getitem__(self, name):
                self.read.add(name)
                return super().__getitem__(name)

        for cfg in [tiny_cfg(n_layers=2)] + [tiny_cfg(ablations=(f,)) for f in ABLATIONS]:
            params = Recording(init_params(cfg, seed=0).entries())
            params.read = set()
            x, acc, reg, graph = tiny_inputs(cfg)
            forward(x, acc, reg, 0, graph, params, cfg)
            assert params.read == {name for name, _, _ in param_spec(cfg)}, cfg.ablations

    def test_golden_init_digest(self):
        # pins init names, order, draws and values (recorded with numpy 2.4.6)
        cfg = ConFormerConfig(t_in=12, t_out=12, n_nodes=30, steps_per_day=288,
                              n_acc_codes=3, n_reg_codes=2)
        h = hashlib.sha256()
        for name, t in init_params(cfg, seed=0).entries():
            h.update(name.encode())
            h.update(t.data.tobytes())
        assert h.hexdigest() == (
            "84d9716cc3d6e21cbe12d81f9def9452266f7be99e3fa885818c3f4129a4e98d")


class TestFlops:
    def test_worked_example_296(self):
        cfg = tiny_cfg(t_in=2, n_nodes=3, d_model=4, k_hops=2, n_heads=1)
        assert estimate_flops(cfg, n_edges=10) == 296

    def test_degenerate_case(self):
        for d in (1, 4, 9):
            cfg = tiny_cfg(t_in=1, t_out=1, n_nodes=1, d_model=d, k_hops=0,
                           n_heads=1)
            assert estimate_flops(cfg, n_edges=0) == 2 * d + d * d

    def test_doubling_nodes_quadruples_spatial_term(self):
        base = tiny_cfg(t_in=3, n_nodes=4, d_model=8, k_hops=0, n_heads=2)
        doubled = tiny_cfg(t_in=3, n_nodes=8, d_model=8, k_hops=0, n_heads=2)
        t, d = 3, 8
        spatial = lambda cfg: cfg.t_in * cfg.n_nodes ** 2 * d
        other = lambda cfg, n: n * t * t * d + n * t * d * d
        assert estimate_flops(base, 0) == spatial(base) + other(base, 4)
        assert estimate_flops(doubled, 0) == spatial(doubled) + other(doubled, 8)
        assert spatial(doubled) == 4 * spatial(base)


STATS = NormalizationStats(1.5, 2.0)


def write_header(path, header: dict) -> None:
    """A checkpoint file holding ``header`` and no parameter data."""
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(b"CFMR1\n" + struct.pack("<Q", len(blob)) + blob)


class TestCheckpoint:
    def test_round_trip_and_byte_stability(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=11)
        p1, p2 = tmp_path / "a.cfmr", tmp_path / "b.cfmr"
        save_checkpoint(p1, params, STATS, 3)
        save_checkpoint(p2, params, STATS, 3)
        assert p1.read_bytes() == p2.read_bytes()
        (size,) = struct.unpack("<Q", p1.read_bytes()[6:14])
        header = json.loads(p1.read_bytes()[14:14 + size])
        assert header["extra"] == {"best_epoch": 3, "norm_mean": 1.5, "norm_std": 2.0}
        loaded, stats = load_checkpoint(p1)
        assert stats == STATS
        assert loaded.cfg == cfg
        for (n1, t1), (n2, t2) in zip(params.entries(), loaded.entries()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_truncated_file_rejected(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "c.cfmr"
        save_checkpoint(path, init_params(cfg, seed=0), STATS, 1)
        raw = path.read_bytes()
        # cut inside the parameter data, then twice inside the length field;
        # then one byte too many, a header length past int64 and a NaN weight
        for cut, message in ((raw[:-16], "truncated"), (raw[:8], "truncated"),
                             (raw[:12], "truncated"),
                             (raw + b"\0", "trailing bytes after parameter data"),
                             (raw[:13] + b"\x80" + raw[14:], "truncated header of"),
                             (raw[:-8] + np.float64(np.nan).tobytes(),
                              "non-finite value in parameter 'readout.b'")):
            path.write_bytes(cut)
            with pytest.raises(LoadError, match=f"{path.name}.*{message}"):
                load_checkpoint(path)
        for header in ({"params": []}, {"config": cfg.to_dict()}, {"config": [1, 2]},
                       {"config": cfg.to_dict(), "params": [], "extra": [1.5]},
                       {"config": {**cfg.to_dict(), "start_slot": 500}, "params": [],
                        "extra": {"norm_mean": 1.5, "norm_std": 2.0}}):
            write_header(path, header)
            with pytest.raises(LoadError, match=f"{path.name}.*corrupt"):
                load_checkpoint(path)

    @pytest.mark.parametrize("d_data", [10 ** 20, 2 ** 62])
    def test_huge_listed_parameter_is_truncated(self, tmp_path, d_data):
        # The header matches its config, but no file holds the listed bytes;
        # the size is compared before any read of it.
        cfg = tiny_cfg(d_data=d_data)
        header = {"config": cfg.to_dict(), "extra": {"norm_mean": 1.5, "norm_std": 2.0},
                  "params": [[name, list(shape)] for name, shape, _ in param_spec(cfg)]}
        path = tmp_path / "huge.cfmr"
        write_header(path, header)
        with pytest.raises(LoadError, match="huge.cfmr: truncated data for parameter "
                                            "'embed.data_proj.w'"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "d.cfmr"
        path.write_bytes(b"garbage")
        with pytest.raises(LoadError, match="magic"):
            load_checkpoint(path)
