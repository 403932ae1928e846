import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conformer import numerics as nm
from conformer.data import SynthConfig
from conformer.embeddings import embed_all
from conformer.errors import ConfigError, DimensionError, LoadError, ValidationError
from conformer.graph import GraphSpec
from conformer.model import (ABLATIONS, ConFormerConfig, config_from_dict, count_params,
                             estimate_flops, forward, init_params, load_checkpoint, param_spec,
                             readout, save_checkpoint)
from conformer.trainer import TrainConfig


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
                    dict(n_acc_codes=0), dict(n_reg_codes=0)):
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
        for cfg in (tiny_cfg(), tiny_cfg(n_layers=2, ablations=("plain-ln",))):
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


class TestCheckpoint:
    def test_round_trip_and_byte_stability(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=11)
        p1, p2 = tmp_path / "a.cfmr", tmp_path / "b.cfmr"
        save_checkpoint(p1, params, extra={"norm_mean": 1.5, "norm_std": 2.0})
        save_checkpoint(p2, params, extra={"norm_mean": 1.5, "norm_std": 2.0})
        assert p1.read_bytes() == p2.read_bytes()
        loaded, extra = load_checkpoint(p1)
        assert extra == {"norm_mean": 1.5, "norm_std": 2.0}
        assert loaded.cfg == cfg
        for (n1, t1), (n2, t2) in zip(params.entries(), loaded.entries()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_truncated_file_rejected(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "c.cfmr"
        save_checkpoint(path, init_params(cfg, seed=0))
        raw = path.read_bytes()
        # cut inside the parameter data, then twice inside the length field
        for cut in (raw[:-16], raw[:8], raw[:12]):
            path.write_bytes(cut)
            with pytest.raises(LoadError, match=f"{path.name}.*truncated"):
                load_checkpoint(path)
        for header in ({"params": []}, {"config": cfg.to_dict()},
                       {"config": cfg.to_dict(), "params": [], "extra": [1.5]}):
            blob = json.dumps(header).encode("utf-8")
            path.write_bytes(b"CFMR1\n" + struct.pack("<Q", len(blob)) + blob)
            with pytest.raises(LoadError, match=f"{path.name}.*corrupt"):
                load_checkpoint(path)

    @pytest.mark.parametrize("d_data", [10 ** 20, 2 ** 62])
    def test_huge_listed_parameter_is_truncated(self, tmp_path, d_data):
        # The header matches its config, but no file holds the listed bytes;
        # the size is compared before any read of it.
        cfg = tiny_cfg(d_data=d_data)
        header = {"config": cfg.to_dict(), "extra": {},
                  "params": [[name, list(shape)] for name, shape, _ in param_spec(cfg)]}
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "huge.cfmr"
        path.write_bytes(b"CFMR1\n" + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(LoadError, match="huge.cfmr: truncated data for parameter "
                                            "'embed.data_proj.w'"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "d.cfmr"
        path.write_bytes(b"garbage")
        with pytest.raises(LoadError, match="magic"):
            load_checkpoint(path)
