import hashlib
import json
import math
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conformer import data
from conformer.data import (DatasetBundle, NormalizationStats, SynthConfig, chronological_split,
                            fit_normalization, load_dataset, make_windows,
                            masked_metrics, save_dataset, synth_generate,
                            window_block, windows_with_incidents)
from conformer.errors import ConfigError, DimensionError, LoadError, ValidationError
from conformer.graph import GraphSpec
from conformer.model import config_from_dict


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

    @pytest.mark.parametrize("weekday, slot, message", [
        (0, -1, "start_slot"), (0, 24, "start_slot"), (7, 0, "start_weekday"),
        (-1, 0, "start_weekday")])
    def test_calendar_outside_day_rejected(self, weekday, slot, message):
        # interval_minutes=60 gives 24 slots a day: 0..23 are valid.
        b = tiny_bundle()
        with pytest.raises(ValidationError, match=message):
            DatasetBundle(values=b.values, acc_ids=b.acc_ids, reg_ids=b.reg_ids,
                          graph=b.graph, interval_minutes=60, start_weekday=weekday,
                          start_slot=slot)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        # The rule load_dataset applies to values.csv holds in memory too.
        b = tiny_bundle()
        b.values[7, 1] = bad
        with pytest.raises(ValidationError, match=rf"values\[7, 1\] = {bad} is not finite"):
            DatasetBundle(values=b.values, acc_ids=b.acc_ids, reg_ids=b.reg_ids,
                          graph=b.graph, interval_minutes=60)

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

    @pytest.mark.parametrize("key", data.META_KEYS)
    def test_missing_meta_key_rejected(self, tmp_path, key):
        save_dataset(tiny_bundle(), tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert sorted(meta) == sorted(data.META_KEYS)
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(LoadError, match=rf"meta.json: missing keys \['{key}'\]"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("n_steps", [1, 2, 10 ** 12])
    def test_grid_values_file_cannot_hold_rejected(self, tmp_path, n_steps):
        # The shortest rows, 6 bytes and a last one of 5 without its newline,
        # hold one step of 2 nodes; 10^12 steps would ask numpy for TiBs.
        b = tiny_bundle()
        zeros = np.zeros((1, 2), dtype=np.int64)
        save_dataset(DatasetBundle(values=zeros, acc_ids=zeros, reg_ids=zeros,
                                   graph=b.graph, interval_minutes=60), tmp_path)
        (tmp_path / "values.csv").write_text("t,node,value\n0,0,0\n0,1,0")
        meta_path = tmp_path / "meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()),
                                         "n_steps": n_steps}))
        if n_steps == 1:
            assert load_dataset(tmp_path).values.tobytes() == bytes(16)
            return
        with pytest.raises(LoadError, match=rf"meta.json: n_steps \* n_nodes = {2 * n_steps} "
                                            r"rows do not fit in the 24 bytes of .*values.csv"):
            load_dataset(tmp_path)

    def test_meta_must_be_object(self, tmp_path):
        save_dataset(tiny_bundle(), tmp_path)
        (tmp_path / "meta.json").write_text("5")
        with pytest.raises(LoadError, match="meta.json: expected a JSON object"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("text, message", [
        (b'{"n_nodes": 2}\xff', "can't decode byte 0xff"),
        (b'{"n_nodes": ' + b"1" * 5000 + b"}", "Exceeds the limit"),
    ], ids=["not-utf8", "5000-digit-int"])
    def test_meta_unparsable_rejected(self, tmp_path, text, message):
        save_dataset(tiny_bundle(), tmp_path)
        (tmp_path / "meta.json").write_bytes(text)
        with pytest.raises(LoadError, match=f"meta.json: .*{message}"):
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

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("reader", ["default", "rows"])
    def test_non_finite_value_rejected(self, tmp_path, monkeypatch, text, reader):
        if reader == "rows":
            monkeypatch.setattr(data, "_read_values_fast", lambda *args: None)
        save_dataset(tiny_bundle(), tmp_path)
        vals = tmp_path / "values.csv"
        lines = vals.read_text().splitlines()
        lines[3] = f"1,0,{text}"
        vals.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError, match=r"values\.csv:4: non-finite value"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name, line_no, text, error", [
        ("values.csv", 4, b"1,0,\xff", "not valid UTF-8"),
        ("incidents.csv", 2, b"\xff", "not valid UTF-8"),
        ("values.csv", 4, b"1,0," + b"1" * 200_000, "malformed CSV: field larger"),
        ("values.csv", 4, b"1,0", "expected 3 fields, got 2"),
        ("incidents.csv", 2, b"5,1,acc,1,1", "expected 4 fields, got 5"),
        ("adjacency.csv", 3, b"", "expected 3 fields, got 0"),
        ("incidents.csv", 2, b"5,1,xyz,1", "kind must be acc or reg, got 'xyz'"),
        ("incidents.csv", 2, b"5,1,acc,7", "acc code 7 outside vocabulary of size 2"),
        ("meta.json", 2, b"  x", "invalid JSON: Expecting property name enclosed in double"),
    ], ids=["values-utf8", "incidents-utf8", "values-field-limit", "values-fields",
            "incidents-fields", "adjacency-fields", "incidents-kind", "incidents-code",
            "meta-json"])
    def test_bad_bytes_name_file_and_line(self, tmp_path, name, line_no, text, error):
        save_dataset(tiny_bundle(), tmp_path)
        path = tmp_path / name
        lines = path.read_bytes().splitlines()
        lines[line_no - 1] = text
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(LoadError, match=rf"{re.escape(name)}:{line_no}: {error}"):
            load_dataset(tmp_path)

    def test_non_finite_weight_rejected(self, tmp_path):
        save_dataset(tiny_bundle(), tmp_path)
        adj = tmp_path / "adjacency.csv"
        adj.write_text(adj.read_text().replace("1,0,0.5", "1,0,nan"))
        with pytest.raises(LoadError, match=r"adjacency\.csv: edge \(1, 0\) has non-finite"):
            load_dataset(tmp_path)


def bundle_bytes(b):
    return (b.values.tobytes(), b.values.shape, b.acc_ids.tobytes(), b.reg_ids.tobytes(),
            np.array(b.graph.edges, dtype=np.float64).tobytes(), b.graph.n_nodes,
            b.interval_minutes, b.start_weekday, b.start_slot, b.acc_vocab, b.reg_vocab)


def load_outcome(path):
    try:
        return bundle_bytes(load_dataset(path))
    except LoadError as exc:
        return f"LoadError: {exc}"


def _edit_lines(edit):
    def corrupt(text):
        lines = text.split("\n")[:-1]
        edit(lines)
        return "".join(line + "\n" for line in lines)
    return corrupt


# (corruption, whether the numpy reader takes the result). Line 0 is the
# header; tiny_bundle has 2 nodes, so line 21 is (t=10, node=0).
VALUES_CORRUPTIONS = {
    "none": (lambda text: text, True),
    "no-final-newline": (lambda text: text[:-1], True),
    "out-of-order": (_edit_lines(lambda ls: ls.insert(1, ls.pop(20))), True),
    "reversed": (_edit_lines(lambda ls: ls.__setitem__(slice(1, None), ls[:0:-1])), True),
    "blank-line": (_edit_lines(lambda ls: ls.insert(5, "")), False),
    "blank-last-line": (lambda text: text + "\n", False),
    "crlf": (lambda text: text.replace("\n", "\r\n"), False),
    "trailing-comma": (_edit_lines(lambda ls: ls.__setitem__(3, ls[3] + ",")), False),
    "underscore": (_edit_lines(lambda ls: ls.__setitem__(21, "1_0" + ls[21][2:])), False),
    "quoted-field": (_edit_lines(lambda ls: ls.__setitem__(21, '"10"' + ls[21][2:])), False),
    "space": (_edit_lines(lambda ls: ls.__setitem__(21, " 10" + ls[21][2:])), False),
    "nan": (_edit_lines(lambda ls: ls.__setitem__(3, "1,0,nan")), False),
    "overflow": (_edit_lines(lambda ls: ls.__setitem__(3, "1,0,1e999")), False),
    "float-step": (_edit_lines(lambda ls: ls.__setitem__(21, "10.0" + ls[21][2:])), False),
    "short-row": (_edit_lines(lambda ls: ls.__setitem__(3, "1,0")), False),
    "missing-row": (_edit_lines(lambda ls: ls.pop(7)), False),
    "duplicate-row": (_edit_lines(lambda ls: ls.__setitem__(7, ls[8])), False),
    "extra-row": (_edit_lines(lambda ls: ls.append(ls[8])), False),
    "out-of-range": (_edit_lines(lambda ls: ls.__setitem__(3, "1,2,5.0")), False),
    "negative-step": (_edit_lines(lambda ls: ls.__setitem__(3, "-1,0,5.0")), False),
    "bad-header": (lambda text: "t,node,val" + text[len("t,node,value"):], False),
    "header-only": (lambda text: text.split("\n")[0] + "\n", False),
}


FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
WEIGHTS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, width=64)
INTERVALS = [m for m in range(1, 1441) if 1440 % m == 0]


@st.composite
def bundles(draw):
    n_steps, n_nodes = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    cells = n_steps * n_nodes
    values = draw(st.lists(FLOATS, min_size=cells, max_size=cells))
    vocabs = [draw(st.lists(st.text(max_size=4), min_size=1, max_size=3)) for _ in range(2)]
    ids = [draw(st.lists(st.integers(0, len(v) - 1), min_size=cells, max_size=cells))
           for v in vocabs]
    pairs = draw(st.lists(st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1)),
                          unique=True, max_size=8))
    interval = draw(st.sampled_from(INTERVALS))
    return DatasetBundle(
        values=np.reshape(values, (n_steps, n_nodes)),
        acc_ids=np.reshape(ids[0], (n_steps, n_nodes)),
        reg_ids=np.reshape(ids[1], (n_steps, n_nodes)),
        graph=GraphSpec(n_nodes, tuple((s, d, draw(WEIGHTS)) for s, d in pairs)),
        interval_minutes=interval, start_weekday=draw(st.integers(0, 6)),
        start_slot=draw(st.integers(0, 1440 // interval - 1)),
        acc_vocab=vocabs[0], reg_vocab=vocabs[1])


@settings(max_examples=100, deadline=None)
@given(bundles())
def test_load_save_roundtrip_property(bundle):
    with tempfile.TemporaryDirectory() as out:
        save_dataset(bundle, out)
        assert load_outcome(out) == bundle_bytes(bundle)


class TestValuesReaders:
    """The numpy reader of values.csv against the row reader it shortcuts."""

    @pytest.mark.parametrize("name", sorted(VALUES_CORRUPTIONS))
    def test_same_bundle_or_same_error(self, tmp_path, monkeypatch, name):
        corrupt, fast = VALUES_CORRUPTIONS[name]
        save_dataset(tiny_bundle(), tmp_path)
        vals = tmp_path / "values.csv"
        vals.write_bytes(corrupt(vals.read_text()).encode())
        outcomes = set()
        # Small chunks put line and blank-line boundaries between loadtxt calls.
        for chunk in (1, 5, 64, 1 << 20):
            monkeypatch.setattr(data, "_VALUES_CHUNK", chunk)
            assert (data._read_values_fast(vals, 48, 2) is not None) == fast
            outcomes.add(load_outcome(tmp_path))
        monkeypatch.setattr(data, "_read_values_fast", lambda *args: None)
        (default,) = outcomes
        assert default == load_outcome(tmp_path)
        if name in ("none", "out-of-order", "reversed", "crlf", "underscore",
                    "quoted-field", "space", "no-final-newline"):
            assert default == bundle_bytes(tiny_bundle())

    @pytest.mark.parametrize("topology", ["ring", "random-geometric"])
    def test_synth_bundle_taken_by_numpy_reader(self, tmp_path, monkeypatch, topology):
        gen = SynthConfig(n_nodes=7, days=1, interval_minutes=30, topology=topology,
                          incident_rate=2.0, regulation_rate=1.0)
        bundle = synth_generate(gen, seed=3)
        save_dataset(bundle, tmp_path)
        fast = data._read_values_fast(tmp_path / "values.csv", 48, 7)
        assert fast.tobytes() == bundle.values.tobytes()
        assert load_outcome(tmp_path) == bundle_bytes(bundle)
        monkeypatch.setattr(data, "_read_values_fast", lambda *args: None)
        assert load_outcome(tmp_path) == bundle_bytes(bundle)


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

    def test_fit_counts_missing_zeros(self):
        # Every entry counts, a missing 0 included, as in DCRNN's scaler.
        stats = fit_normalization(np.array([[0.0, 2.0], [4.0, 6.0]]))
        assert (stats.mean, stats.std) == (3.0, math.sqrt(5.0))

    @pytest.mark.parametrize("name", ["mean", "std"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400, True,
                                       "1.0", None],
                             ids=["nan", "inf", "-inf", "int-1e400", "true", "text", "null"])
    def test_stats_must_be_finite_numbers(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be a finite number, "
                                                  f"got {re.escape(repr(value))}"):
            NormalizationStats(**{"mean": 0.0, "std": 1.0, name: value})

    @pytest.mark.parametrize("std", [0.0, -2, -1e-300])
    def test_std_must_be_positive(self, std):
        with pytest.raises(ValidationError, match=f"std must be > 0, got {std}"):
            NormalizationStats(0.0, std)
        assert NormalizationStats(-3, 2).apply([1.0]) == [2.0]


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

    def test_window_block_outside_data_rejected(self):
        bundle = tiny_bundle()
        last = bundle.n_steps - 6
        assert window_block(bundle.values, [-4, last], 4, 2).shape[:2] == (2, 2)
        for start in (-5, last + 1):
            with pytest.raises(ValidationError, match=rf"start {start} .*\[-4, {last}\]"):
                window_block(bundle.values, [0, start], 4, 2)
        assert window_block(bundle.values, [], 4, 2).shape[0] == 0


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
                          incident_rate=0.0, regulation_rate=2.0, noise_scale=0.2)
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

    def test_grid_of_prime_size_is_a_line(self):
        line = {(i, i + 1, 1.0) for i in range(6)} | {(i + 1, i, 1.0) for i in range(6)}
        gen = SynthConfig(n_nodes=7, days=1, topology="grid", incident_rate=0.0)
        assert set(synth_generate(gen, seed=0).graph.edges) == line

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigError, match="topology"):
            SynthConfig(topology="mobius-strip")

    # sha256 of the files save_dataset writes for these configs at seed 1,
    # pinned so that no speed-up of synth or save changes a byte.
    GOLDEN = {
        "ring": (dict(n_nodes=6, days=2, interval_minutes=60, incident_rate=1.0,
                      regulation_rate=0.5, duration_steps=3, recovery_steps=2), {
            "adjacency.csv": "5a9f0299f9fab9f094311680d9506251d7b762cae17f962a0caef175fe3d90ce",
            "incidents.csv": "da0bb342d7f84acd2c9e9d24f21af63700ddccd772baf125515fcedbd9816280",
            "meta.json": "a140e87a05383a0be266d7ba73ddf30e8d471b35059d95a902fafffd93b95e93",
            "values.csv": "aada2689011ddcabd2448e62e5c6335c3cf83aff3e8d7f166ccd192746b930d7"}),
        "grid": (dict(n_nodes=12, days=1, interval_minutes=30, incident_rate=1.5,
                      regulation_rate=1.0, duration_steps=4, recovery_steps=3), {
            "adjacency.csv": "0a89305d8c30b7437b3f2bbe567ee68d62dc597707171b0142b074899bc5da46",
            "incidents.csv": "ff7128b49a0b6fe6e962093bcf86d376be233ffd413c7ca5def5cf6954cef9dd",
            "meta.json": "6f07411644d31774709a7a5efeea6744401c1eb438d80e7bef40e9057a439d05",
            "values.csv": "c312f7461433c25f1f90cd12c1e570983dec96eec8268a1722bd17e658a26944"}),
        "random-geometric": (dict(n_nodes=10, days=1, interval_minutes=60,
                                  incident_rate=2.0, regulation_rate=1.0,
                                  duration_steps=4, recovery_steps=3), {
            "adjacency.csv": "c7b9e90a1c04765d5585f29523aeeb6a7936373501cfc3ad9e147106443aeebc",
            "incidents.csv": "3324e2a7a7812a705d478f86fcf99728b6afdd037c6fe88f5e9e61de8b069a5d",
            "meta.json": "a861ec610015d9845e994afd3951fc8e386e746099421820a633c1becf9ed115",
            "values.csv": "76a18ad122fc417bd8a3451ccfec5b6941dcf3fa314254f5002c6059bd47f2eb"}),
    }

    @pytest.mark.parametrize("topology", sorted(GOLDEN))
    def test_golden_file_digests(self, tmp_path, topology):
        config, digests = self.GOLDEN[topology]
        bundle = synth_generate(SynthConfig(topology=topology, **config), seed=1)
        assert (bundle.acc_ids == 2).any() and (bundle.reg_ids > 0).any()
        save_dataset(bundle, tmp_path)
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests

    def test_negative_durations_rejected(self):
        for kw in (dict(duration_steps=-1), dict(recovery_steps=-2)):
            with pytest.raises(ConfigError, match="duration_steps and recovery_steps"):
                SynthConfig(**kw)

    @pytest.mark.parametrize("field, value", [
        ("incident_rate", -0.1), ("incident_rate", float("nan")),
        ("incident_rate", float("inf")), ("regulation_rate", -1.0),
        ("regulation_rate", float("nan")), ("noise_scale", -1.0),
        ("node_offset_scale", -0.5), ("node_offset_scale", float("inf")),
        ("decay_hops", -1), ("attenuation", 3.0), ("attenuation", -0.1),
        ("attenuation", float("nan")), ("start_weekday", 7), ("start_slot", -1),
        ("start_slot", 288),
    ])
    def test_value_that_breaks_generation_rejected(self, field, value):
        # numpy would raise a bare ValueError, or the value would be ignored.
        # node_offset_scale, decay_hops and attenuation are module constants:
        # a config that sets one is refused as an unknown key.
        with pytest.raises(ConfigError, match=field):
            config_from_dict(SynthConfig, {field: value}, "synth")

    @pytest.mark.parametrize("key, value", [
        ("base_speed", 60.0), ("daily_amplitude", 18.0), ("node_offset_scale", 4.0),
        ("drop_factor", 0.45), ("cap_fraction", 0.6), ("decay_hops", 2),
        ("attenuation", 0.5),
    ])
    def test_fixed_shape_key_rejected(self, key, value):
        # The generator's shape is fixed in code: even its own values are refused.
        with pytest.raises(ConfigError, match=rf"unknown synth config keys: \['{key}'\]"):
            config_from_dict(SynthConfig, {key: value}, "synth")

    def test_incident_window_filter(self):
        gen = SynthConfig(n_nodes=4, days=2, interval_minutes=30, incident_rate=2.0)
        bundle = synth_generate(gen, seed=10)
        windows = make_windows(bundle, (0, bundle.n_steps), 4, 2)
        inc = windows_with_incidents(bundle, windows, 4)
        inc_starts = set(inc.tolist())
        for t0 in windows:
            assert (t0 in inc_starts) == bool(bundle.acc_ids[t0:t0 + 4].any())
