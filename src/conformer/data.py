"""Dataset schema and I/O, z-score normalization, chronological splits,
masked metrics, window extraction, and the synthetic incident generator."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .embeddings import CalendarIndexer, day_steps
from .errors import ConfigError, DimensionError, LoadError, ValidationError
from .graph import GraphSpec, normalize_adjacency
from .numerics import check_allocatable

VALUES_FILE = "values.csv"
INCIDENTS_FILE = "incidents.csv"
ADJACENCY_FILE = "adjacency.csv"
META_FILE = "meta.json"
# Each CSV file's header, and its row conversion: a per-field loop took 2.5x as long.
CSV_HEADERS = {VALUES_FILE: "t,node,value", INCIDENTS_FILE: "t,node,kind,code",
               ADJACENCY_FILE: "src,dst,weight"}
CSV_ROW_TYPES = {VALUES_FILE: lambda row: (int(row[0]), int(row[1]), float(row[2])),
                 INCIDENTS_FILE: lambda row: (int(row[0]), int(row[1]), row[2], int(row[3])),
                 ADJACENCY_FILE: lambda row: (int(row[0]), int(row[1]), float(row[2]))}
# The ``DatasetBundle`` attributes that ``meta.json`` holds, under these names.
META_KEYS = ("interval_minutes", "start_weekday", "start_slot", "n_nodes", "n_steps",
             "acc_vocab", "reg_vocab")


@dataclass
class DatasetBundle:
    """In-memory dataset: observed values, incident ids, graph, metadata.

    ``values`` is [T_total, N]; zeros are permitted and treated as missing by
    the metrics and the loss. ``acc_ids``/``reg_ids`` are integer category
    ids with 0 meaning "no incident".
    """

    values: np.ndarray
    acc_ids: np.ndarray
    reg_ids: np.ndarray
    graph: GraphSpec
    interval_minutes: int
    start_weekday: int = 0
    start_slot: int = 0
    acc_vocab: tuple[str, ...] = ("none", "accident")
    reg_vocab: tuple[str, ...] = ("none", "regulation")

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.acc_ids = np.asarray(self.acc_ids, dtype=np.int64)
        self.reg_ids = np.asarray(self.reg_ids, dtype=np.int64)
        self.acc_vocab = tuple(self.acc_vocab)
        self.reg_vocab = tuple(self.reg_vocab)
        if self.values.ndim != 2:
            raise ValidationError(f"values must be [T, N], got {self.values.shape}")
        if not np.isfinite(self.values).all():
            t, n = np.argwhere(~np.isfinite(self.values))[0]
            raise ValidationError(f"values[{t}, {n}] = {self.values[t, n]} is not finite")
        if self.acc_ids.shape != self.values.shape or self.reg_ids.shape != self.values.shape:
            raise ValidationError("values, acc_ids and reg_ids must share one shape")
        if self.values.shape[1] != self.graph.n_nodes:
            raise ValidationError(
                f"values have {self.values.shape[1]} nodes, graph has "
                f"{self.graph.n_nodes}")
        CalendarIndexer(self.steps_per_day, self.start_weekday, self.start_slot)
        for name, ids, vocab in (("acc", self.acc_ids, self.acc_vocab),
                                 ("reg", self.reg_ids, self.reg_vocab)):
            if ids.size and (ids.min() < 0 or ids.max() >= len(vocab)):
                raise ValidationError(f"{name}_ids outside vocabulary of size {len(vocab)}")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]

    @property
    def steps_per_day(self) -> int:
        return day_steps(self.interval_minutes)


@dataclass(frozen=True)
class NormalizationStats:
    """Z-score statistics fit on the training split only."""

    mean: float
    std: float

    def __post_init__(self):
        for name in ("mean", "std"):
            value = getattr(self, name)
            # type() rejects bools; abs() of a huge int compares without overflow.
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if not self.std > 0:
            raise ValidationError(f"std must be > 0, got {self.std}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def invert(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) * self.std + self.mean


def fit_normalization(values: np.ndarray) -> NormalizationStats:
    """Mean and std of every entry, missing zeros included, as DCRNN's scaler fits."""
    values = np.asarray(values, dtype=np.float64)
    std = float(values.std())
    return NormalizationStats(mean=float(values.mean()), std=std if std > 0 else 1.0)


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous chronological train/val/test ranges partitioning [0, T)."""

    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]

    def range_for(self, name: str) -> tuple[int, int]:
        try:
            return {"train": self.train, "val": self.val, "test": self.test}[name]
        except KeyError:
            raise ConfigError(f"unknown split '{name}'") from None


def chronological_split(n_steps: int) -> SplitSpec:
    """60% train, 20% validation and 20% test, in time order."""
    n_train = round(n_steps * 6 / 10)
    n_val = round(n_steps * 2 / 10)
    return SplitSpec(train=(0, n_train), val=(n_train, n_train + n_val),
                     test=(n_train + n_val, n_steps))


def observed(y: np.ndarray) -> np.ndarray:
    """Where ``y`` holds a reading: the loss and the metrics take a 0 as missing."""
    return y != 0


@dataclass(frozen=True)
class MaskedMetrics:
    """Masked MAE / RMSE / MAPE over the ``observed`` entries of the ground truth.

    ``n_valid == 0`` is the explicit empty-mask signal; the metric fields are
    NaN in that case. MAPE is reported in percent.
    """

    mae: float
    rmse: float
    mape: float
    n_valid: int


def masked_metrics(y, y_hat) -> MaskedMetrics:
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise DimensionError(f"metric shapes differ: {y.shape} vs {y_hat.shape}")
    mask = observed(y)
    n_valid = int(mask.sum())
    if n_valid == 0:
        return MaskedMetrics(math.nan, math.nan, math.nan, 0)
    # Two masked buffers, reused in place: |err| squares to err * err exactly.
    y_valid, err = y[mask], y_hat[mask]
    np.subtract(err, y_valid, out=err)
    np.abs(err, out=err)
    mae = float(err.mean())
    np.abs(y_valid, out=y_valid)
    mape = float(np.divide(err, y_valid, out=y_valid).mean() * 100.0)
    rmse = float(np.sqrt(np.multiply(err, err, out=y_valid).mean()))
    return MaskedMetrics(mae=mae, rmse=rmse, mape=mape, n_valid=n_valid)


def window_block(array: np.ndarray, starts, offset: int, length: int) -> np.ndarray:
    """``array`` at steps ``start + offset + arange(length)`` of each window
    start, ``[W, length, ...]``: inputs are offset 0, targets offset T.

    A block that leaves ``array`` raises ``ValidationError``; numpy would wrap
    a negative step round to the end of the series. The starts are checked
    before their ``int64`` cast, which a start beyond ``int64`` overflows.
    """
    starts = np.asarray(starts)
    lo, hi = -offset, len(array) - offset - length
    bad = starts[(starts < lo) | (starts > hi)]
    if bad.size:
        raise ValidationError(
            f"window start {bad[0]} leaves the {len(array)} steps of the data "
            f"(offset {offset}, length {length}): starts must lie in [{lo}, {hi}]")
    return array[starts[:, None].astype(np.int64) + offset + np.arange(length)]


def windows_with_incidents(bundle: DatasetBundle, windows, t_in: int) -> np.ndarray:
    """Starts of the windows whose input block contains an accident id."""
    windows = np.asarray(windows, dtype=np.int64)
    return windows[window_block(bundle.acc_ids, windows, 0, t_in).any(axis=(1, 2))]


def make_windows(bundle: DatasetBundle, split_range: tuple[int, int], t_in: int,
                 t_out: int) -> np.ndarray:
    """``int64`` start steps of the stride-1 sliding windows in the split range.

    Both the input block [t0, t0+T) and the target block [t0+T, t0+T+T')
    stay inside the range, so no window leaks across split boundaries.
    """
    if t_in < 1 or t_out < 1:
        raise ConfigError(f"t_in and t_out must be >= 1, got {t_in} and {t_out}")
    lo, hi = split_range
    if not (0 <= lo <= hi <= bundle.n_steps):
        raise ConfigError(f"split range {split_range} outside [0, {bundle.n_steps}]")
    return np.arange(lo, max(lo, hi - t_in - t_out + 1), dtype=np.int64)


# -- on-disk format -----------------------------------------------------------


def save_dataset(bundle: DatasetBundle, out_dir) -> None:
    """Write the four-file dataset layout (UTF-8, LF endings, 0-based ids).

    Floats are written as the ``repr`` of a Python float, the shortest string
    that round-trips exactly, so save -> load is bitwise lossless.
    """
    os.makedirs(out_dir, exist_ok=True)
    with _csv_writer(out_dir, VALUES_FILE) as fh:
        node_fields = [f",{n}," for n in range(bundle.n_nodes)]
        # One row at a time: ``tolist`` of the whole matrix would hold every
        # value as a Python float at once.
        for t in range(bundle.n_steps):
            fh.write("".join([f"{t}{node}{v!r}\n" for node, v in
                              zip(node_fields, bundle.values[t].tolist())]))
    with _csv_writer(out_dir, INCIDENTS_FILE) as fh:
        for kind, ids in (("acc", bundle.acc_ids), ("reg", bundle.reg_ids)):
            ts, ns = np.nonzero(ids)
            fh.writelines(f"{t},{n},{kind},{code}\n" for t, n, code in
                          zip(ts.tolist(), ns.tolist(), ids[ts, ns].tolist()))
    with _csv_writer(out_dir, ADJACENCY_FILE) as fh:
        fh.writelines(f"{src},{dst},{weight!r}\n" for src, dst, weight in bundle.graph.edges)
    meta = {key: getattr(bundle, key) for key in META_KEYS}  # tuples dump as lists
    with open(os.path.join(out_dir, META_FILE), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _csv_writer(out_dir, name: str):
    """CSV file ``name`` in ``out_dir``, open for writing after its header."""
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADERS[name] + "\n")
        yield fh


def _load_error(path, line_no, msg) -> LoadError:
    return LoadError(f"{path}:{line_no}: {msg}")


def _bad_utf8_line(path) -> int:
    """Line of the first byte of ``path`` that is not UTF-8. The text layer
    decodes in blocks, so its error does not locate the byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return raw.count(b"\n", 0, exc.start) + 1
    return 1


def _csv_rows(path, name: str):
    """Typed ``(line number, fields)`` of each row of CSV file ``path`` after
    the header of dataset file ``name``. Bad bytes, CSV syntax, field counts
    and field values raise a ``LoadError`` naming the file and line."""
    header, convert = CSV_HEADERS[name], CSV_ROW_TYPES[name]
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            fields = next(reader, None)
            if fields != header.split(","):
                raise _load_error(path, 1, f"expected header {header}, got {fields}")
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(fields):
                    raise _load_error(path, line_no,
                                      f"expected {len(fields)} fields, got {len(row)}")
                try:
                    row = convert(row)
                except ValueError as exc:
                    raise _load_error(path, line_no, f"malformed row: {exc}") from exc
                yield line_no, row
        except UnicodeDecodeError as exc:
            raise _load_error(path, _bad_utf8_line(path),
                              f"not valid UTF-8: {exc.reason}") from exc
        except csv.Error as exc:
            raise _load_error(path, reader.line_num, f"malformed CSV: {exc}") from exc


def _check_cell(path, line_no, t: int, n: int, shape) -> None:
    if not (0 <= t < shape[0] and 0 <= n < shape[1]):
        raise _load_error(path, line_no, f"(t={t}, node={n}) out of range")


def _read_values_rows(path, n_steps: int, n_nodes: int) -> np.ndarray:
    """The reference ``values.csv`` reader: one CSV row at a time, and the
    source of every ``values.csv`` error."""
    values = np.zeros((n_steps, n_nodes))
    seen = np.zeros((n_steps, n_nodes), dtype=bool)
    for line_no, (t, n, v) in _csv_rows(path, VALUES_FILE):
        if not math.isfinite(v):
            raise _load_error(path, line_no, f"non-finite value {v}")
        _check_cell(path, line_no, t, n, seen.shape)
        if seen[t, n]:
            raise _load_error(path, line_no, f"duplicate entry for (t={t}, node={n})")
        seen[t, n] = True
        values[t, n] = v
    if not seen.all():
        t, n = np.argwhere(~seen)[0]
        raise LoadError(f"{path}: missing value for (t={t}, node={n})")
    return values


_VALUES_HEADER = f"{CSV_HEADERS[VALUES_FILE]}\n".encode()
_VALUES_DTYPE = np.dtype([("t", np.int64), ("node", np.int64), ("value", np.float64)])
_VALUES_BYTES = b"0123456789+-.eE,\n"
_VALUES_CHUNK = 1 << 20  # bytes parsed per np.loadtxt call; bounds peak memory


def _line_chunks(fh, size: int):
    """The rest of binary file ``fh`` in pieces of whole lines, read
    ``size`` bytes at a time; a last line without a newline comes last."""
    rest = b""
    while block := fh.read(size):
        buf = rest + block
        cut = buf.rfind(b"\n") + 1
        if cut:
            yield buf[:cut]
        rest = buf[cut:]
    if rest:
        yield rest


def _read_values_fast(path, n_steps: int, n_nodes: int) -> np.ndarray | None:
    """``values.csv`` parsed by ``np.loadtxt``, or None unless the row reader
    would accept the file and give the same values.

    The file must be the header and then non-blank ``\\n``-terminated lines
    of digits, signs, points, exponents and commas. On those lines the CSV
    module splits like ``loadtxt``, ``loadtxt`` parses ``[+-]?digits`` as
    ``int`` does and floats with the same correctly rounded conversion as
    ``float``, and it rejects everything else. What remains is checked here:
    finiteness, ranges, and one row per (t, node).
    """
    values = np.empty(n_steps * n_nodes)
    seen = np.zeros(n_steps * n_nodes, dtype=bool)
    n_rows = 0
    with open(path, "rb") as fh:
        if fh.readline() != _VALUES_HEADER:
            return None
        for lines in _line_chunks(fh, _VALUES_CHUNK):
            if (lines.startswith(b"\n") or b"\n\n" in lines
                    or lines.translate(None, _VALUES_BYTES)):
                return None
            try:
                rows = np.loadtxt(io.BytesIO(lines), dtype=_VALUES_DTYPE, delimiter=",",
                                  comments=None, quotechar=None, ndmin=1, encoding="ascii")
            except ValueError:
                return None
            t, node, v = rows["t"], rows["node"], rows["value"]
            n_rows += len(rows)
            if (not np.isfinite(v).all() or t.min() < 0 or t.max() >= n_steps
                    or node.min() < 0 or node.max() >= n_nodes):
                return None
            flat = t * n_nodes + node
            seen[flat] = True
            values[flat] = v
    # As many rows as cells, every cell seen: no cell is missing or repeated.
    if n_rows != seen.size or not seen.all():
        return None
    return values.reshape(n_steps, n_nodes)


def load_dataset(data_dir) -> DatasetBundle:
    """Read and validate the four-file dataset layout."""
    paths = {name: os.path.join(data_dir, name)
             for name in (VALUES_FILE, INCIDENTS_FILE, ADJACENCY_FILE, META_FILE)}
    for name, path in paths.items():
        if not os.path.exists(path):
            raise LoadError(f"{path}: missing dataset file")

    meta_path = paths[META_FILE]
    with open(meta_path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _load_error(meta_path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, a long integer, deep nesting
            raise LoadError(f"{meta_path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise LoadError(f"{meta_path}: expected a JSON object")
    missing = set(META_KEYS) - set(meta)
    if missing:
        raise LoadError(f"{meta_path}: missing keys {sorted(missing)}")

    def meta_int(key, lo=0):
        # type(), not isinstance(), so that JSON true/false are rejected
        if type(meta[key]) is not int or meta[key] < lo:
            raise LoadError(f"{meta_path}: {key} must be an integer >= {lo}, "
                            f"got {meta[key]!r}")
        return meta[key]

    n_nodes, n_steps = meta_int("n_nodes", 1), meta_int("n_steps")
    try:
        CalendarIndexer(day_steps(meta_int("interval_minutes")), meta_int("start_weekday"),
                        meta_int("start_slot"))
    except ValidationError as exc:
        raise LoadError(f"{meta_path}: {exc}") from exc
    vocabs = {kind: meta[f"{kind}_vocab"] for kind in ("acc", "reg")}
    if not all(isinstance(v, list) and v and all(isinstance(s, str) for s in v)
               for v in vocabs.values()):
        raise LoadError(f"{meta_path}: acc_vocab and reg_vocab must be non-empty "
                        "lists of strings")
    # A values.csv row takes at least 6 bytes, "0,0,0\n", or 5 as a last line
    # without its newline: a grid the file cannot hold is never allocated.
    size = os.path.getsize(paths[VALUES_FILE])
    if n_steps * n_nodes > max(0, size - len(CSV_HEADERS[VALUES_FILE])) // 6:
        raise LoadError(f"{meta_path}: n_steps * n_nodes = {n_steps * n_nodes} rows do not "
                        f"fit in the {size} bytes of {paths[VALUES_FILE]}")

    values = _read_values_fast(paths[VALUES_FILE], n_steps, n_nodes)
    if values is None:
        values = _read_values_rows(paths[VALUES_FILE], n_steps, n_nodes)

    ids = {kind: np.zeros((n_steps, n_nodes), dtype=np.int64) for kind in vocabs}
    ipath = paths[INCIDENTS_FILE]
    for line_no, (t, n, kind, code) in _csv_rows(ipath, INCIDENTS_FILE):
        if kind not in ids:
            raise _load_error(ipath, line_no, f"kind must be acc or reg, got '{kind}'")
        _check_cell(ipath, line_no, t, n, values.shape)
        if not (1 <= code < len(vocabs[kind])):
            raise _load_error(
                ipath, line_no,
                f"{kind} code {code} outside vocabulary of size {len(vocabs[kind])}")
        ids[kind][t, n] = code

    apath = paths[ADJACENCY_FILE]
    edges = tuple(row for _, row in _csv_rows(apath, ADJACENCY_FILE))
    try:
        graph = GraphSpec(n_nodes=n_nodes, edges=edges)
    except ValidationError as exc:
        raise LoadError(f"{apath}: {exc}") from exc

    try:
        return DatasetBundle(
            values=values, acc_ids=ids["acc"], reg_ids=ids["reg"], graph=graph,
            interval_minutes=meta["interval_minutes"], start_weekday=meta["start_weekday"],
            start_slot=meta["start_slot"], acc_vocab=vocabs["acc"], reg_vocab=vocabs["reg"])
    except ValidationError as exc:
        raise LoadError(f"{data_dir}: {exc}") from exc


# -- synthetic generator ------------------------------------------------------


# Synthetic speeds: the mean, the daily swing and the std of a node's offset.
BASE_SPEED, DAILY_AMPLITUDE, NODE_OFFSET_SCALE = 60.0, 18.0, 4.0
DROP_FACTOR = 0.45  # speed multiplier at the accident source
CAP_FRACTION = 0.6  # speed ceiling fraction under regulation
FOOTPRINT_HOPS, ATTENUATION = 2, 0.5  # the hops an impact spreads, its falloff per hop


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic traffic generator; the constants above fix its shape."""

    n_nodes: int = 30
    days: int = 14
    interval_minutes: int = 5
    topology: str = "ring"
    incident_rate: float = 0.2      # expected accidents per node per day
    regulation_rate: float = 0.0    # expected regulations per node per day
    duration_steps: int = 12
    recovery_steps: int = 12
    noise_scale: float = 1.0
    start_weekday: int = 0
    start_slot: int = 0

    def __post_init__(self):
        if self.topology not in GRAPH_BUILDERS:
            raise ConfigError(f"unknown topology '{self.topology}', "
                              f"expected one of {tuple(GRAPH_BUILDERS)}")
        if self.n_nodes < 1 or self.days < 1:
            raise ConfigError("n_nodes and days must be >= 1")
        try:
            CalendarIndexer(day_steps(self.interval_minutes), self.start_weekday,
                            self.start_slot)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
        if self.duration_steps < 0 or self.recovery_steps < 0:
            raise ConfigError("duration_steps and recovery_steps must be >= 0")
        for name in ("incident_rate", "regulation_rate", "noise_scale"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


def _ring_roads(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    # Two nodes share one road; one node has none.
    return [(i, (i + 1) % n) for i in range(n if n > 2 else n - 1)]


def _grid_roads(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    rows = math.isqrt(n)
    while rows > 1 and n % rows != 0:
        rows -= 1
    cols = n // rows
    roads = []
    for i in range(n):
        if (i + 1) % cols:
            roads.append((i, i + 1))
        if i + cols < n:
            roads.append((i, i + cols))
    return roads


def _random_geometric_roads(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    pts = rng.random((n, 2))
    radius = 1.3 * math.sqrt(2.0 / max(n, 2))
    roads = []
    for i in range(n):
        # One row of distances at a time: an N x N pair array costs peak RSS.
        diff = pts[i] - pts[i + 1:]
        roads += [(i, i + 1 + j) for j in np.flatnonzero(np.hypot(*diff.T) <= radius).tolist()]
    return roads


# Topology name -> the roads of an N-node graph, each a node pair listed once, drawn
# from the graph's own generator. A road is a unit-weight edge in both directions.
GRAPH_BUILDERS = {"ring": _ring_roads, "grid": _grid_roads,
                  "random-geometric": _random_geometric_roads}


def _incident_footprint(graph: GraphSpec, source: int) -> np.ndarray:
    """Per-node impact weights: 1 at the source, ``ATTENUATION`` times less per
    hop outward, for ``FOOTPRINT_HOPS`` hops.

    Spread follows the propagation operator so the footprint matches what the
    model's graph propagation can see.
    """
    op = normalize_adjacency(graph)
    impact = np.zeros(graph.n_nodes)
    impact[source] = 1.0
    footprint = impact.copy()
    for _ in range(FOOTPRINT_HOPS):
        impact = ATTENUATION * (op.T @ impact)
        footprint = np.maximum(footprint, impact)
    return footprint


def _event_profile(length: int, duration: int, recovery: int) -> np.ndarray:
    """Temporal intensity over the ``length`` steps from the event's start:
    1 during the event, then linear recovery towards 0."""
    profile = np.zeros(length)
    profile[:duration] = 1.0
    for j in range(min(recovery, length - duration)):
        profile[duration + j] = 1.0 - (j + 1) / (recovery + 1)
    return profile


def synth_generate(gen: SynthConfig, seed: int) -> DatasetBundle:
    """Deterministic synthetic bundle: daily sinusoid plus injected incidents.

    Accidents multiply speeds by ``DROP_FACTOR`` at the source, attenuated
    per hop over the footprint, recovering linearly. Regulations cap speeds
    at ``CAP_FRACTION`` of the node's base curve over the same kind of footprint.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    graph_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    n = gen.n_nodes
    steps_per_day = day_steps(gen.interval_minutes)
    t_total = gen.days * steps_per_day
    check_allocatable(f"synth grid of {t_total} steps by {n} nodes", (t_total, n))
    roads = GRAPH_BUILDERS[gen.topology](n, graph_rng)
    graph = GraphSpec(n, tuple((a, b, 1.0) for i, j in roads for a, b in ((i, j), (j, i))))

    node_offset = rng.normal(0.0, NODE_OFFSET_SCALE, size=n)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
    tod = np.arange(t_total) % steps_per_day
    angle = 2.0 * np.pi * tod[:, None] / steps_per_day + phase[None, :]
    base = BASE_SPEED + node_offset[None, :] - DAILY_AMPLITUDE * np.sin(angle)
    values = base + rng.normal(0.0, gen.noise_scale, size=(t_total, n))

    acc_ids = np.zeros((t_total, n), dtype=np.int64)
    reg_ids = np.zeros((t_total, n), dtype=np.int64)
    acc_vocab = ("none", "minor", "major")
    reg_vocab = ("none", "lane-restriction")

    events = []
    for kind, name in (("acc", "incident_rate"), ("reg", "regulation_rate")):
        try:
            n_events = rng.poisson(getattr(gen, name) * gen.days, size=n)
        except ValueError as exc:  # numpy bounds the Poisson mean
            raise ConfigError(f"synth {name} too large for {gen.days} days: {exc}") from exc
        for node in range(n):
            for _ in range(n_events[node]):
                t0 = int(rng.integers(0, max(1, t_total - gen.duration_steps)))
                severity = int(rng.integers(1, 3)) if kind == "acc" else 1
                events.append((kind, node, t0, severity))
    # Fixed ordering keeps the bundle independent of dict/set iteration.
    events.sort()

    for kind, node, t0, severity in events:
        footprint = _incident_footprint(graph, node)
        # Major accidents (severity 2) hit harder and linger longer, so the
        # severity code carries information the speed values alone cannot.
        duration = gen.duration_steps if severity == 1 else gen.duration_steps * 2
        # Outside these rows the effect is 0: a factor of exactly 1, an
        # infinite cap and no mark, so touching only them changes no bit.
        rows = slice(t0, min(t0 + duration + gen.recovery_steps, t_total))
        profile = _event_profile(rows.stop - t0, duration, gen.recovery_steps)
        effect = profile[:, None] * footprint[None, :]
        marked = effect >= 0.05
        if kind == "acc":
            drop = DROP_FACTOR if severity == 1 else DROP_FACTOR * 0.7
            values[rows] *= 1.0 - (1.0 - drop) * effect
            ids = acc_ids[rows]
        else:
            cap = base[rows] * (CAP_FRACTION + (1.0 - CAP_FRACTION) * (1.0 - effect))
            values[rows] = np.minimum(values[rows], np.where(effect > 0, cap, np.inf))
            ids = reg_ids[rows]
        ids[marked] = np.maximum(ids[marked], severity)

    values = np.maximum(values, 0.5)

    return DatasetBundle(
        values=values, acc_ids=acc_ids, reg_ids=reg_ids, graph=graph,
        interval_minutes=gen.interval_minutes, start_weekday=gen.start_weekday,
        start_slot=gen.start_slot, acc_vocab=acc_vocab, reg_vocab=reg_vocab)
