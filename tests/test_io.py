"""Dataset container persistence: round-trip, bit packing, error paths."""

import base64
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import drdplan
from drdplan import model
from drdplan.cli import EXIT_DATA, main
from drdplan.io import (
    FormatError,
    _pack_bits,
    _unpack_bits,
    atomic_write_bytes,
    dataset_from_bytes,
    dataset_hash,
    dataset_to_bytes,
    load_dataset,
    read_json,
    save_dataset,
    to_json_bytes,
)
from drdplan.model import compute_membership
from drdplan.scenarios import ScenarioSpec, generate_dataset


def make_ds():
    spec = ScenarioSpec(kind="forest", rows=5, cols=5, seed=3, n_discs=3)
    return generate_dataset(spec, 20, 30, 8, test_fraction=0.2)


def test_load_leaves_numpy_ma_out(tmp_path):
    # The split overlap check needs no np.unique, whose first call imports
    # numpy.ma: loading a dataset does not pay for that import.
    path = str(tmp_path / "d.bin")
    save_dataset(make_ds(), path)
    src = os.path.dirname(os.path.dirname(drdplan.__file__))
    code = ("import sys; from drdplan.io import load_dataset; "
            "load_dataset(sys.argv[1]); print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, path], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
    with pytest.raises(FormatError):
        _unpack_bits(b"\x00", 2, 9)


def test_unpack_decodes_into_the_final_array():
    # The world matrix of 8,000 worlds on the 21x21 grid's 1,640 edges is
    # decoded with no full-width intermediate: the traced peak is the
    # result itself, not twice it.
    rows, cols = 8000, 1640
    mat = (np.random.default_rng(0).random((rows, cols)) < 0.5).astype(np.uint8)
    blob = _pack_bits(mat)
    tracemalloc.start()
    try:
        out = _unpack_bits(blob, rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, mat) and out.flags.c_contiguous and out.flags.writeable
    assert peak <= 1.1 * mat.nbytes


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
    with pytest.raises(FormatError):
        dataset_from_bytes("\n".join(lines[:1]).encode())


def test_bad_header_rejected():
    with pytest.raises(FormatError):
        dataset_from_bytes(b"not json\nAAAA\nAAAA\n")


def test_wrong_schema_version_rejected():
    data = dataset_to_bytes(make_ds()).decode()
    lines = data.splitlines()
    header = json.loads(lines[0])
    header["schema_version"] = 99
    lines[0] = json.dumps(header)
    with pytest.raises(FormatError, match="schema_version"):
        dataset_from_bytes("\n".join(lines).encode())


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_are_not_json(constant):
    # Python's json module writes a non-finite float as one of these
    # constants and reads it back; the artifact codec does neither.
    with pytest.raises(ValueError):
        to_json_bytes({"x": float(constant)})
    with pytest.raises(FormatError, match=constant):
        read_json('{"schema_version": 1, "x": [%s]}' % constant, "doc", 1)


def test_bad_base64_rejected():
    data = dataset_to_bytes(make_ds()).decode()
    lines = data.splitlines()
    lines[1] = "!!!not-base64!!!"
    with pytest.raises(FormatError):
        dataset_from_bytes("\n".join(lines).encode())


def test_membership_derived_on_load(monkeypatch):
    ds = make_ds()
    ds.membership = np.zeros_like(ds.membership)  # not written, so not read back
    # The loader looks compute_membership up on drdplan.model, where the
    # benchmark's traced run wraps it.
    calls = []
    monkeypatch.setattr(model, "compute_membership",
                        lambda *a: calls.append(a) or compute_membership(*a))
    back = dataset_from_bytes(dataset_to_bytes(ds))
    assert len(calls) == 1
    assert back.membership.dtype == np.uint8
    assert np.array_equal(back.membership, compute_membership(ds.theta, ds.paths))
    assert back.membership.any()


def test_schema_1_file_names_its_version(tmp_path, capsys):
    # A schema-1 file: the header with n_paths, then worlds and membership.
    ds = make_ds()
    header, worlds = dataset_to_bytes(ds).decode().splitlines()
    doc = json.loads(header)
    doc.update(schema_version=1, n_paths=ds.num_paths)
    membership = base64.b64encode(_pack_bits(ds.membership)).decode()
    path = tmp_path / "v1.bin"
    path.write_text("\n".join([json.dumps(doc), worlds, membership]) + "\n")
    with pytest.raises(FormatError, match="schema_version 1"):
        load_dataset(str(path))
    argv = ["compile-tree", "--dataset", str(path), "--out", str(tmp_path / "t.json")]
    assert main(argv) == EXIT_DATA
    assert "schema_version 1" in capsys.readouterr().err


def test_zero_path_dataset_loads():
    ds = make_ds()
    ds.paths, ds.membership = [], ds.membership[:, :0]
    back = dataset_from_bytes(dataset_to_bytes(ds))
    assert back.paths == [] and back.membership.shape == (ds.num_worlds, 0)


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
