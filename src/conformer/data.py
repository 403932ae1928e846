"""Dataset schema and I/O, z-score normalization, chronological splits,
masked metrics, window extraction, and the synthetic incident generator."""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .embeddings import CalendarIndexer
from .errors import ConfigError, DimensionError, LoadError, ValidationError
from .graph import GraphSpec, normalize_adjacency

VALUES_FILE = "values.csv"
INCIDENTS_FILE = "incidents.csv"
ADJACENCY_FILE = "adjacency.csv"
META_FILE = "meta.json"


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
        if self.interval_minutes < 1 or 1440 % self.interval_minutes != 0:
            raise ValidationError(
                f"interval_minutes must divide 1440, got {self.interval_minutes}")
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
        return 1440 // self.interval_minutes


@dataclass(frozen=True)
class NormalizationStats:
    """Z-score statistics fit on the training split only."""

    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise ValidationError(f"std must be > 0, got {self.std}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def invert(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) * self.std + self.mean


def fit_normalization(values: np.ndarray) -> NormalizationStats:
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


@dataclass(frozen=True)
class MaskedMetrics:
    """Masked MAE / RMSE / MAPE over entries with nonzero ground truth.

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
    mask = y != 0
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
    with open(os.path.join(out_dir, VALUES_FILE), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,node,value\n")
        node_fields = [f",{n}," for n in range(bundle.n_nodes)]
        # One row at a time: ``tolist`` of the whole matrix would hold every
        # value as a Python float at once.
        for t in range(bundle.n_steps):
            fh.write("".join([f"{t}{node}{v!r}\n" for node, v in
                              zip(node_fields, bundle.values[t].tolist())]))
    with open(os.path.join(out_dir, INCIDENTS_FILE), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,node,kind,code\n")
        for kind, ids in (("acc", bundle.acc_ids), ("reg", bundle.reg_ids)):
            ts, ns = np.nonzero(ids)
            fh.writelines(f"{t},{n},{kind},{code}\n" for t, n, code in
                          zip(ts.tolist(), ns.tolist(), ids[ts, ns].tolist()))
    with open(os.path.join(out_dir, ADJACENCY_FILE), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("src,dst,weight\n")
        fh.writelines(f"{src},{dst},{weight!r}\n" for src, dst, weight in bundle.graph.edges)
    meta = {
        "interval_minutes": bundle.interval_minutes,
        "start_weekday": bundle.start_weekday,
        "start_slot": bundle.start_slot,
        "n_nodes": bundle.n_nodes,
        "n_steps": bundle.n_steps,
        "acc_vocab": list(bundle.acc_vocab),
        "reg_vocab": list(bundle.reg_vocab),
    }
    with open(os.path.join(out_dir, META_FILE), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _csv_rows(path, header: list[str]):
    """``(line number, row)`` for each row of CSV file ``path`` after its
    ``header`` line; undecodable bytes and CSV syntax errors become a
    ``LoadError`` naming the file and line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got != header:
                raise _load_error(path, 1, f"expected header {','.join(header)}, got {got}")
            yield from enumerate(reader, start=2)
        except UnicodeDecodeError as exc:
            raise _load_error(path, _bad_utf8_line(path),
                              f"not valid UTF-8: {exc.reason}") from exc
        except csv.Error as exc:
            raise _load_error(path, reader.line_num, f"malformed CSV: {exc}") from exc


def _read_values_rows(path, n_steps: int, n_nodes: int) -> np.ndarray:
    """The reference ``values.csv`` reader: one CSV row at a time, and the
    source of every ``values.csv`` error."""
    values = np.zeros((n_steps, n_nodes))
    seen = np.zeros((n_steps, n_nodes), dtype=bool)
    for line_no, row in _csv_rows(path, ["t", "node", "value"]):
        if len(row) != 3:
            raise _load_error(path, line_no, f"expected 3 fields, got {len(row)}")
        try:
            t, n, v = int(row[0]), int(row[1]), float(row[2])
        except ValueError as exc:
            raise _load_error(path, line_no, f"malformed row: {exc}") from exc
        if not math.isfinite(v):
            raise _load_error(path, line_no, f"non-finite value {row[2]!r}")
        if not (0 <= t < n_steps and 0 <= n < n_nodes):
            raise _load_error(path, line_no, f"(t={t}, node={n}) out of range")
        if seen[t, n]:
            raise _load_error(path, line_no, f"duplicate entry for (t={t}, node={n})")
        seen[t, n] = True
        values[t, n] = v
    if not seen.all():
        t, n = np.argwhere(~seen)[0]
        raise LoadError(f"{path}: missing value for (t={t}, node={n})")
    return values


_VALUES_HEADER = b"t,node,value\n"
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
        except ValueError as exc:  # bytes that are not UTF-8, an over-long integer
            raise LoadError(f"{meta_path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise LoadError(f"{meta_path}: expected a JSON object")
    required = {"interval_minutes", "start_weekday", "start_slot", "n_nodes",
                "n_steps", "acc_vocab", "reg_vocab"}
    missing = required - set(meta)
    if missing:
        raise LoadError(f"{meta_path}: missing keys {sorted(missing)}")

    def meta_int(key, lo, hi=math.inf):
        # type(), not isinstance(), so that JSON true/false are rejected
        if type(meta[key]) is not int or not lo <= meta[key] <= hi:
            raise LoadError(f"{meta_path}: {key} must be an integer in [{lo}, {hi}], "
                            f"got {meta[key]!r}")
        return meta[key]

    n_nodes, n_steps = meta_int("n_nodes", 1), meta_int("n_steps", 0)
    interval = meta_int("interval_minutes", 1)
    if 1440 % interval != 0:
        raise LoadError(f"{meta_path}: interval_minutes {interval} does not divide 1440")
    start_weekday = meta_int("start_weekday", 0, 6)
    start_slot = meta_int("start_slot", 0, 1440 // interval - 1)
    vocabs = {kind: meta[f"{kind}_vocab"] for kind in ("acc", "reg")}
    if not all(isinstance(v, list) and v and all(isinstance(s, str) for s in v)
               for v in vocabs.values()):
        raise LoadError(f"{meta_path}: acc_vocab and reg_vocab must be non-empty "
                        "lists of strings")

    values = _read_values_fast(paths[VALUES_FILE], n_steps, n_nodes)
    if values is None:
        values = _read_values_rows(paths[VALUES_FILE], n_steps, n_nodes)

    acc_ids = np.zeros((n_steps, n_nodes), dtype=np.int64)
    reg_ids = np.zeros((n_steps, n_nodes), dtype=np.int64)
    ipath = paths[INCIDENTS_FILE]
    for line_no, row in _csv_rows(ipath, ["t", "node", "kind", "code"]):
        if len(row) != 4:
            raise _load_error(ipath, line_no, f"expected 4 fields, got {len(row)}")
        try:
            t, n, kind, code = int(row[0]), int(row[1]), row[2], int(row[3])
        except ValueError as exc:
            raise _load_error(ipath, line_no, f"malformed row: {exc}") from exc
        if kind not in ("acc", "reg"):
            raise _load_error(ipath, line_no, f"kind must be acc or reg, got '{kind}'")
        if not (0 <= t < n_steps and 0 <= n < n_nodes):
            raise _load_error(ipath, line_no, f"(t={t}, node={n}) out of range")
        if not (1 <= code < len(vocabs[kind])):
            raise _load_error(
                ipath, line_no,
                f"{kind} code {code} outside vocabulary of size {len(vocabs[kind])}")
        target = acc_ids if kind == "acc" else reg_ids
        target[t, n] = code

    edges = []
    apath = paths[ADJACENCY_FILE]
    for line_no, row in _csv_rows(apath, ["src", "dst", "weight"]):
        if len(row) != 3:
            raise _load_error(apath, line_no, f"expected 3 fields, got {len(row)}")
        try:
            edges.append((int(row[0]), int(row[1]), float(row[2])))
        except ValueError as exc:
            raise _load_error(apath, line_no, f"malformed row: {exc}") from exc
    try:
        graph = GraphSpec(n_nodes=n_nodes, edges=tuple(edges))
    except ValidationError as exc:
        raise LoadError(f"{apath}: {exc}") from exc

    try:
        return DatasetBundle(
            values=values, acc_ids=acc_ids, reg_ids=reg_ids, graph=graph,
            interval_minutes=interval, start_weekday=start_weekday,
            start_slot=start_slot, acc_vocab=vocabs["acc"], reg_vocab=vocabs["reg"])
    except ValidationError as exc:
        raise LoadError(f"{data_dir}: {exc}") from exc


# -- synthetic generator ------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic incident-aware traffic generator."""

    n_nodes: int = 30
    days: int = 14
    interval_minutes: int = 5
    topology: str = "ring"
    incident_rate: float = 0.2      # expected accidents per node per day
    regulation_rate: float = 0.0    # expected regulations per node per day
    drop_factor: float = 0.45       # speed multiplier at the accident source
    cap_fraction: float = 0.6       # speed ceiling fraction under regulation
    decay_hops: int = 2
    attenuation: float = 0.5        # per-hop impact falloff
    duration_steps: int = 12
    recovery_steps: int = 12
    base_speed: float = 60.0
    daily_amplitude: float = 18.0
    node_offset_scale: float = 4.0
    noise_scale: float = 1.0
    start_weekday: int = 0
    start_slot: int = 0

    def __post_init__(self):
        if self.topology not in GRAPH_BUILDERS:
            raise ConfigError(f"unknown topology '{self.topology}', "
                              f"expected one of {tuple(GRAPH_BUILDERS)}")
        if self.n_nodes < 1 or self.days < 1:
            raise ConfigError("n_nodes and days must be >= 1")
        if self.interval_minutes < 1 or 1440 % self.interval_minutes != 0:
            raise ConfigError(
                f"interval_minutes must divide 1440, got {self.interval_minutes}")
        if not 0.0 < self.drop_factor <= 1.0 or not 0.0 < self.cap_fraction <= 1.0:
            raise ConfigError("drop_factor and cap_fraction must be in (0, 1]")
        if self.duration_steps < 0 or self.recovery_steps < 0:
            raise ConfigError("duration_steps and recovery_steps must be >= 0")
        for name in ("incident_rate", "regulation_rate", "node_offset_scale", "noise_scale"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.decay_hops < 0:
            raise ConfigError(f"decay_hops must be >= 0, got {self.decay_hops}")
        if not 0.0 <= self.attenuation <= 1.0:
            raise ConfigError(f"attenuation must be in [0, 1], got {self.attenuation}")


def _ring_graph(n: int) -> GraphSpec:
    edges = []
    for i in range(n):
        j = (i + 1) % n
        if i != j:
            edges.append((i, j, 1.0))
            edges.append((j, i, 1.0))
    return GraphSpec(n_nodes=n, edges=tuple(dict.fromkeys(edges)))


def _grid_graph(n: int) -> GraphSpec:
    rows = int(math.isqrt(n))
    while rows > 1 and n % rows != 0:
        rows -= 1
    cols = n // rows
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges += [(i, i + 1, 1.0), (i + 1, i, 1.0)]
            if r + 1 < rows:
                edges += [(i, i + cols, 1.0), (i + cols, i, 1.0)]
    return GraphSpec(n_nodes=n, edges=tuple(edges))


def _random_geometric_graph(n: int, rng: np.random.Generator) -> GraphSpec:
    pts = rng.random((n, 2))
    radius = 1.3 * math.sqrt(2.0 / max(n, 2))
    edges = []
    for i in range(n):
        # One row of distances at a time: an N x N pair array costs peak RSS.
        diff = pts[i] - pts[i + 1:]
        for j in (i + 1 + np.flatnonzero(np.hypot(diff[:, 0], diff[:, 1]) <= radius)).tolist():
            edges += [(i, j, 1.0), (j, i, 1.0)]
    return GraphSpec(n_nodes=n, edges=tuple(edges))


# Topology name -> builder of an N-node graph from the graph's own generator.
GRAPH_BUILDERS = {
    "ring": lambda n, rng: _ring_graph(n),
    "grid": lambda n, rng: _grid_graph(n),
    "random-geometric": _random_geometric_graph,
}


def _incident_footprint(graph: GraphSpec, source: int, decay_hops: int,
                        attenuation: float) -> np.ndarray:
    """Per-node impact weights: 1 at the source, attenuated per hop outward.

    Spread follows the propagation operator so the footprint matches what the
    model's graph propagation can see.
    """
    op = normalize_adjacency(graph).matrix
    impact = np.zeros(graph.n_nodes)
    impact[source] = 1.0
    footprint = impact.copy()
    for _ in range(decay_hops):
        impact = attenuation * (op.T @ impact)
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

    Accidents multiply speeds by ``drop_factor`` at the source, attenuated
    per hop over the footprint, recovering linearly. Regulations cap speeds
    at a fraction of the node's base curve over the same kind of footprint.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    graph_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    n = gen.n_nodes
    steps_per_day = 1440 // gen.interval_minutes
    t_total = gen.days * steps_per_day
    graph = GRAPH_BUILDERS[gen.topology](n, graph_rng)

    node_offset = rng.normal(0.0, gen.node_offset_scale, size=n)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
    tod = np.arange(t_total) % steps_per_day
    angle = 2.0 * np.pi * tod[:, None] / steps_per_day + phase[None, :]
    base = gen.base_speed + node_offset[None, :] - gen.daily_amplitude * np.sin(angle)
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
        footprint = _incident_footprint(graph, node, gen.decay_hops, gen.attenuation)
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
            drop = gen.drop_factor if severity == 1 else gen.drop_factor * 0.7
            values[rows] *= 1.0 - (1.0 - drop) * effect
            ids = acc_ids[rows]
        else:
            cap = base[rows] * (gen.cap_fraction + (1.0 - gen.cap_fraction) * (1.0 - effect))
            values[rows] = np.minimum(values[rows], np.where(effect > 0, cap, np.inf))
            ids = reg_ids[rows]
        ids[marked] = np.maximum(ids[marked], severity)

    values = np.maximum(values, 0.5)

    return DatasetBundle(
        values=values, acc_ids=acc_ids, reg_ids=reg_ids, graph=graph,
        interval_minutes=gen.interval_minutes, start_weekday=gen.start_weekday,
        start_slot=gen.start_slot, acc_vocab=acc_vocab, reg_vocab=reg_vocab)
