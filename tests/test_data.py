import json
import math

import numpy as np
import pytest

from conformer.data import (DatasetBundle, SynthConfig, chronological_split,
                            fit_normalization, load_dataset, make_windows,
                            masked_metrics, save_dataset, synth_generate,
                            window_block, windows_with_incidents)
from conformer.errors import ConfigError, DimensionError, LoadError
from conformer.graph import GraphSpec


def tiny_bundle():
    rng = np.random.default_rng(0)
    values = rng.uniform(20, 80, size=(48, 2))
    acc = np.zeros((48, 2), dtype=np.int64)
    reg = np.zeros((48, 2), dtype=np.int64)
    acc[5, 1] = 1
    reg[9, 0] = 1
    graph = GraphSpec(2, ((0, 1, 1.0), (1, 0, 0.5)))
    return DatasetBundle(values=values, acc_ids=acc, reg_ids=reg, graph=graph,
                         interval_minutes=60)


class TestRoundTrip:
    def test_save_load_bitwise(self, tmp_path):
        bundle = tiny_bundle()
        save_dataset(bundle, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.values.tobytes() == bundle.values.tobytes()
        assert np.array_equal(loaded.acc_ids, bundle.acc_ids)
        assert np.array_equal(loaded.reg_ids, bundle.reg_ids)
        assert loaded.graph.edges == bundle.graph.edges
        assert loaded.interval_minutes == bundle.interval_minutes
        assert loaded.acc_vocab == bundle.acc_vocab

    def test_incident_node_out_of_range_rejected(self, tmp_path):
        bundle = tiny_bundle()
        save_dataset(bundle, tmp_path)
        inc = tmp_path / "incidents.csv"
        inc.write_text(inc.read_text() + "3,5,acc,1\n")
        with pytest.raises(LoadError, match="out of range"):
            load_dataset(tmp_path)

    def test_bad_interval_rejected(self, tmp_path):
        bundle = tiny_bundle()
        save_dataset(bundle, tmp_path)
        meta = tmp_path / "meta.json"
        meta.write_text(meta.read_text().replace('"interval_minutes": 60',
                                                 '"interval_minutes": 7'))
        with pytest.raises(LoadError, match="1440"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("n_nodes", "abc"), ("n_nodes", 0), ("n_steps", [1]), ("n_steps", -5),
        ("interval_minutes", 60.0), ("start_weekday", 9), ("start_weekday", True),
        ("start_slot", 24), ("acc_vocab", "none,accident"), ("reg_vocab", []),
        ("reg_vocab", ["none", 3])])
    def test_bad_meta_value_rejected(self, tmp_path, key, value):
        bundle = tiny_bundle()
        save_dataset(bundle, tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(LoadError, match=f"meta.json: .*{key}"):
            load_dataset(tmp_path)

    def test_meta_must_be_object(self, tmp_path):
        save_dataset(tiny_bundle(), tmp_path)
        (tmp_path / "meta.json").write_text("5")
        with pytest.raises(LoadError, match="meta.json: expected a JSON object"):
            load_dataset(tmp_path)

    def test_missing_file_rejected(self, tmp_path):
        bundle = tiny_bundle()
        save_dataset(bundle, tmp_path)
        (tmp_path / "values.csv").unlink()
        with pytest.raises(LoadError, match="missing dataset file"):
            load_dataset(tmp_path)

    def test_malformed_row_names_line(self, tmp_path):
        bundle = tiny_bundle()
        save_dataset(bundle, tmp_path)
        vals = tmp_path / "values.csv"
        lines = vals.read_text().splitlines()
        lines[3] = "not,a,row"
        vals.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError, match=r"values\.csv:4"):
            load_dataset(tmp_path)

    def test_missing_grid_entry_rejected(self, tmp_path):
        bundle = tiny_bundle()
        save_dataset(bundle, tmp_path)
        vals = tmp_path / "values.csv"
        lines = vals.read_text().splitlines()
        vals.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(LoadError, match="missing value"):
            load_dataset(tmp_path)


class TestNormalization:
    def test_apply_invert_identity(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(10, 90, size=(40, 3))
        stats = fit_normalization(values)
        assert np.abs(stats.invert(stats.apply(values)) - values).max() <= 1e-10

    def test_fit_on_train_only(self):
        bundle = tiny_bundle()
        split = chronological_split(bundle.n_steps)
        lo, hi = split.train
        stats = fit_normalization(bundle.values[lo:hi])
        assert stats.mean == bundle.values[lo:hi].mean()


class TestSplits:
    def test_ratios_within_one_step(self):
        for n in (10, 48, 4032, 101):
            split = chronological_split(n)
            n_train = split.train[1] - split.train[0]
            n_val = split.val[1] - split.val[0]
            n_test = split.test[1] - split.test[0]
            assert n_train + n_val + n_test == n
            assert abs(n_train - 0.6 * n) <= 1
            assert abs(n_val - 0.2 * n) <= 1
            assert abs(n_test - 0.2 * n) <= 1

    def test_contiguous_and_ordered(self):
        split = chronological_split(100)
        assert split.train[1] == split.val[0]
        assert split.val[1] == split.test[0]
        assert split.train[0] == 0 and split.test[1] == 100


class TestMaskedMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        m = masked_metrics(y, y)
        assert (m.mae, m.rmse, m.mape) == (0.0, 0.0, 0.0)

    def test_zero_targets_excluded(self):
        m = masked_metrics(np.array([0.0, 2.0]), np.array([5.0, 2.0]))
        assert m.mae == 0.0
        assert m.n_valid == 1

    def test_hand_example(self):
        m = masked_metrics(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
        assert m.mae == 1.5
        assert abs(m.rmse - math.sqrt(2.5)) <= 1e-12
        assert m.mape == 100.0

    def test_empty_mask_signal(self):
        m = masked_metrics(np.zeros(4), np.ones(4))
        assert m.n_valid == 0
        assert math.isnan(m.mae) and math.isnan(m.rmse) and math.isnan(m.mape)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            masked_metrics(np.zeros(3), np.zeros(4))

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            y = rng.normal(5.0, 2.0, size=(4, 6))
            y[rng.random(y.shape) < 0.1] = 0.0
            y_hat = y + rng.normal(0, 1.0, size=y.shape)
            m = masked_metrics(y, y_hat)

            abs_sum = sq_sum = pct_sum = 0.0
            count = 0
            for i in range(y.shape[0]):
                for j in range(y.shape[1]):
                    if y[i, j] != 0:
                        err = y_hat[i, j] - y[i, j]
                        abs_sum += abs(err)
                        sq_sum += err * err
                        pct_sum += abs(err) / abs(y[i, j])
                        count += 1
            assert abs(m.mae - abs_sum / count) <= 1e-12
            assert abs(m.rmse - math.sqrt(sq_sum / count)) <= 1e-12
            assert abs(m.mape - 100.0 * pct_sum / count) <= 1e-12
            assert m.n_valid == count


class TestWindows:
    def test_exact_fit_gives_one_window(self):
        bundle = tiny_bundle()
        windows = make_windows(bundle, (0, 7), t_in=4, t_out=3)
        assert len(windows) == 1
        assert windows[0] == 0
        assert windows.dtype == np.int64

    def test_count_formula(self):
        bundle = tiny_bundle()
        for lo, hi, t_in, t_out in ((0, 20, 4, 3), (5, 30, 6, 6), (0, 48, 12, 12)):
            windows = make_windows(bundle, (lo, hi), t_in, t_out)
            assert len(windows) == max(0, (hi - lo) - t_in - t_out + 1)

    def test_too_short_range_is_empty(self):
        bundle = tiny_bundle()
        assert len(make_windows(bundle, (0, 5), 4, 3)) == 0

    def test_no_leakage_across_boundaries(self):
        bundle = tiny_bundle()
        split = chronological_split(bundle.n_steps)
        rng = np.random.default_rng(3)
        for _ in range(20):
            t_in = int(rng.integers(1, 6))
            t_out = int(rng.integers(1, 6))
            train = make_windows(bundle, split.train, t_in, t_out)
            if len(train):
                last = train[-1]
                assert last + t_in + t_out <= split.train[1]
                assert last + t_in + t_out - 1 < split.val[0]

    def test_window_contents(self):
        bundle = tiny_bundle()
        starts = make_windows(bundle, (3, 12), 4, 2)
        assert np.array_equal(window_block(bundle.values, starts, 0, 4)[0],
                              bundle.values[3:7])
        assert np.array_equal(window_block(bundle.values, starts, 4, 2)[0],
                              bundle.values[7:9])


class TestSynthGenerate:
    def test_determinism(self):
        gen = SynthConfig(n_nodes=6, days=2, interval_minutes=30,
                          incident_rate=0.5, regulation_rate=0.3)
        a = synth_generate(gen, seed=5)
        b = synth_generate(gen, seed=5)
        assert a.values.tobytes() == b.values.tobytes()
        assert np.array_equal(a.acc_ids, b.acc_ids)
        assert np.array_equal(a.reg_ids, b.reg_ids)
        assert a.graph.edges == b.graph.edges

    def test_zero_rate_purely_periodic(self):
        gen = SynthConfig(n_nodes=4, days=2, interval_minutes=30,
                          incident_rate=0.0, regulation_rate=0.0)
        bundle = synth_generate(gen, seed=6)
        assert (bundle.acc_ids == 0).all()
        assert (bundle.reg_ids == 0).all()

    def test_incident_depresses_source_speed(self):
        """Generator-definition oracle: during an accident the source node's
        mean speed sits strictly below its same-tod mean on clean days."""
        gen = SynthConfig(n_nodes=5, days=6, interval_minutes=30,
                          incident_rate=0.0, noise_scale=0.5)
        clean = synth_generate(gen, seed=7)
        spd = clean.steps_per_day

        gen_inc = SynthConfig(n_nodes=5, days=6, interval_minutes=30,
                              incident_rate=1.5, noise_scale=0.5)
        bundle = synth_generate(gen_inc, seed=7)
        assert (bundle.acc_ids > 0).any()

        # same seed -> the clean twin shares base curve and noise exactly, so
        # it is the incident-free reference for every (tod, node) pair
        node_steps = np.argwhere(bundle.acc_ids > 0)
        _, node = node_steps[0]
        window = bundle.acc_ids[:, node] > 0
        tods = np.arange(bundle.n_steps) % spd
        incident_mean = bundle.values[window, node].mean()
        clean_same_tod = [clean.values[tods == tod, node].mean()
                          for tod in np.unique(tods[window])]
        assert incident_mean < np.mean(clean_same_tod)

    def test_regulation_caps_speed(self):
        gen = SynthConfig(n_nodes=5, days=4, interval_minutes=30,
                          incident_rate=0.0, regulation_rate=2.0,
                          cap_fraction=0.5, noise_scale=0.2)
        bundle = synth_generate(gen, seed=8)
        assert (bundle.reg_ids > 0).any()
        clean = synth_generate(
            SynthConfig(n_nodes=5, days=4, interval_minutes=30,
                        incident_rate=0.0, regulation_rate=0.0,
                        noise_scale=0.2), seed=8)
        regulated = bundle.reg_ids > 0
        assert bundle.values[regulated].mean() < clean.values[regulated].mean()

    def test_topologies(self):
        for topo in ("ring", "grid", "random-geometric"):
            gen = SynthConfig(n_nodes=9, days=1, interval_minutes=60,
                              topology=topo, incident_rate=0.0)
            bundle = synth_generate(gen, seed=9)
            assert bundle.graph.n_nodes == 9

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigError, match="topology"):
            SynthConfig(topology="mobius-strip")

    def test_incident_window_filter(self):
        gen = SynthConfig(n_nodes=4, days=2, interval_minutes=30, incident_rate=2.0)
        bundle = synth_generate(gen, seed=10)
        windows = make_windows(bundle, (0, bundle.n_steps), 4, 2)
        inc = windows_with_incidents(bundle, windows, 4)
        inc_starts = set(inc.tolist())
        for t0 in windows:
            assert (t0 in inc_starts) == bool(bundle.acc_ids[t0:t0 + 4].any())
