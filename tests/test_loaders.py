"""Loader fuzz: a truncated or byte-flipped ``meta.json`` or checkpoint either
loads or raises ``LoadError`` naming the file, never another exception."""

import functools
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conformer.data import (NormalizationStats, SynthConfig, load_dataset, save_dataset,
                            synth_generate)
from conformer.errors import LoadError
from conformer.model import ConFormerConfig, init_params, load_checkpoint, save_checkpoint

NESTED = b"[" * 100_000


def bundle():
    return synth_generate(SynthConfig(n_nodes=3, days=1, interval_minutes=240,
                                      incident_rate=1.0), seed=0)


@functools.cache
def real_file(name: str) -> bytes:
    """The bytes of a real ``meta.json`` or checkpoint (``c.cfmr``)."""
    cfg = ConFormerConfig(t_in=2, t_out=2, n_nodes=3, d_data=2, d_acc=2, d_reg=2, d_dow=2,
                          d_tod=2, d_stae=2, d_model=4, n_heads=1, steps_per_day=6)
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(bundle(), tmp)
        save_checkpoint(Path(tmp) / "c.cfmr", init_params(cfg, seed=0),
                        NormalizationStats(1.5, 2.0), 1)
        return (Path(tmp) / name).read_bytes()


def _flip(original: bytes, flips) -> bytes:
    out = bytearray(original)
    for pos, mask in flips:
        out[pos] ^= mask
    return bytes(out)


def _mutations(original: bytes):
    n = len(original)
    cuts = st.integers(0, n - 1).map(lambda cut: original[:cut])
    flips = st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)),
                     min_size=1, max_size=8).map(functools.partial(_flip, original))
    return st.one_of(cuts, flips)


def mutations(name: str):
    """Truncations of ``real_file(name)`` and copies with up to 8 bytes
    XOR-flipped, built on first use."""
    return st.deferred(lambda: _mutations(real_file(name)))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("dataset")
    save_dataset(bundle(), path)
    return path


@settings(max_examples=300, deadline=None)
@given(blob=mutations("meta.json"))
@example(blob=NESTED)
def test_mutated_meta_loads_or_is_a_load_error(dataset_dir, blob):
    (dataset_dir / "meta.json").write_bytes(blob)
    try:
        load_dataset(dataset_dir)
    except LoadError as exc:
        assert str(dataset_dir) in str(exc)


@settings(max_examples=300, deadline=None)
@given(blob=mutations("c.cfmr"))
@example(blob=b"CFMR1\n" + struct.pack("<Q", len(NESTED)) + NESTED)
def test_mutated_checkpoint_loads_or_is_a_load_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "mutated.cfmr"
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except LoadError as exc:
        assert "mutated.cfmr" in str(exc)
