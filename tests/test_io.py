"""Dataset container persistence: round-trip, bit packing, error paths."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drdplan.io import (
    DatasetFormatError,
    _pack_bits,
    _unpack_bits,
    atomic_write_bytes,
    dataset_from_bytes,
    dataset_hash,
    dataset_to_bytes,
    load_dataset,
    save_dataset,
)
from drdplan.scenarios import ScenarioSpec, generate_dataset


def make_ds():
    spec = ScenarioSpec(kind="forest", rows=5, cols=5, seed=3, n_discs=3)
    return generate_dataset(spec, 20, 30, 8, test_fraction=0.2, seed=3)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_pack_unpack_roundtrip(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 40))
    mat = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
    assert np.array_equal(_unpack_bits(_pack_bits(mat), rows, cols), mat)


def test_pack_bit_order_contract():
    # Least-significant bit is column 0, rows padded to byte boundaries.
    mat = np.array([[1, 0, 0, 0, 0, 0, 0, 0, 1]], dtype=np.uint8)
    assert _pack_bits(mat) == bytes([0b00000001, 0b00000001])


def test_unpack_rejects_wrong_payload_size():
    with pytest.raises(DatasetFormatError):
        _unpack_bits(b"\x00", 2, 9)


def test_roundtrip_identity(tmp_path):
    ds = make_ds()
    path = str(tmp_path / "d.bin")
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.theta, ds.theta)
    assert np.array_equal(back.membership, ds.membership)
    assert np.array_equal(back.train, ds.train)
    assert np.array_equal(back.test, ds.test)
    assert [p.edge_ids for p in back.paths] == [p.edge_ids for p in ds.paths]
    assert np.array_equal(back.graph.endpoints, ds.graph.endpoints)
    assert np.allclose(back.graph.positions, ds.graph.positions)
    assert np.allclose(back.graph.length, ds.graph.length)
    assert back.graph.start == ds.graph.start and back.graph.goal == ds.graph.goal
    assert back.provenance == json.loads(json.dumps(ds.provenance))
    # Canonical bytes (and hence the hash) survive the round trip.
    assert dataset_to_bytes(back) == dataset_to_bytes(ds)


def test_truncated_file_rejected():
    data = dataset_to_bytes(make_ds())
    lines = data.decode().splitlines()
    with pytest.raises(DatasetFormatError):
        dataset_from_bytes("\n".join(lines[:2]).encode())


def test_bad_header_rejected():
    with pytest.raises(DatasetFormatError):
        dataset_from_bytes(b"not json\nAAAA\nAAAA\n")


def test_wrong_schema_version_rejected():
    data = dataset_to_bytes(make_ds()).decode()
    lines = data.splitlines()
    header = json.loads(lines[0])
    header["schema_version"] = 99
    lines[0] = json.dumps(header)
    with pytest.raises(DatasetFormatError, match="schema_version"):
        dataset_from_bytes("\n".join(lines).encode())


def test_bad_base64_rejected():
    data = dataset_to_bytes(make_ds()).decode()
    lines = data.splitlines()
    lines[1] = "!!!not-base64!!!"
    with pytest.raises(DatasetFormatError):
        dataset_from_bytes("\n".join(lines).encode())


def test_validation_on_load(tmp_path):
    ds = make_ds()
    ds.membership = ds.membership.copy()
    ds.membership[0, 0] ^= 1
    data = dataset_to_bytes(ds)
    with pytest.raises(DatasetFormatError, match="validation"):
        dataset_from_bytes(data)


def test_hash_is_stable_and_sensitive():
    ds = make_ds()
    h1 = dataset_hash(ds)
    assert h1 == dataset_hash(make_ds())
    ds.theta = ds.theta.copy()
    ds.theta[0, 0] ^= 1
    ds.membership = ds.membership  # membership may now be stale; hash only
    assert dataset_hash(ds) != h1


def test_atomic_write(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_bytes(path, b"first")
    atomic_write_bytes(path, b"second")
    with open(path, "rb") as f:
        assert f.read() == b"second"
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []
