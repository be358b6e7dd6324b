"""Dataset container persistence.

File layout (text, three lines):

  line 1: JSON header {schema_version, n_worlds, n_edges, n_paths, graph,
          paths, split, provenance}
  line 2: base64 of the bit-packed world-outcome matrix
  line 3: base64 of the bit-packed membership matrix

Bit packing is row-major with each row padded to a byte boundary;
within a byte the least-significant bit is the lowest column index.
The bit order is part of the format contract.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import tempfile

import numpy as np

from .model import Dataset, ExplicitGraph, Path, validate_dataset

SCHEMA_VERSION = 1


class DatasetFormatError(ValueError):
    """Malformed or wrong-version dataset file."""


def _pack_bits(mat: np.ndarray) -> bytes:
    mat = np.ascontiguousarray(mat, dtype=np.uint8)
    return np.packbits(mat, axis=1, bitorder="little").tobytes()


def _unpack_bits(blob: bytes, rows: int, cols: int) -> np.ndarray:
    stride = (cols + 7) // 8
    if len(blob) != rows * stride:
        raise DatasetFormatError(
            f"bit matrix payload is {len(blob)} bytes, expected {rows * stride}"
        )
    packed = np.frombuffer(blob, dtype=np.uint8).reshape(rows, stride)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :cols].copy()


def _graph_to_json(g: ExplicitGraph) -> dict:
    return {
        "positions": [[float(x), float(y)] for x, y in g.positions],
        "endpoints": [[int(u), int(v)] for u, v in g.endpoints],
        "eval_cost": [float(c) for c in g.eval_cost],
        "length": [float(w) for w in g.length],
        "start": int(g.start),
        "goal": int(g.goal),
    }


def _graph_from_json(d: dict) -> ExplicitGraph:
    return ExplicitGraph(
        positions=np.asarray(d["positions"], dtype=np.float64).reshape(-1, 2),
        endpoints=np.asarray(d["endpoints"], dtype=np.int64).reshape(-1, 2),
        eval_cost=np.asarray(d["eval_cost"], dtype=np.float64),
        length=np.asarray(d["length"], dtype=np.float64),
        start=int(d["start"]),
        goal=int(d["goal"]),
    )


def dataset_to_bytes(ds: Dataset) -> bytes:
    header = {
        "schema_version": SCHEMA_VERSION,
        "n_worlds": int(ds.num_worlds),
        "n_edges": int(ds.graph.num_edges),
        "n_paths": int(ds.num_paths),
        "graph": _graph_to_json(ds.graph),
        "paths": [list(map(int, p.edge_ids)) for p in ds.paths],
        "split": {
            "train": [int(i) for i in ds.train],
            "test": [int(i) for i in ds.test],
        },
        "provenance": ds.provenance,
    }
    lines = [
        json.dumps(header, sort_keys=True, separators=(",", ":")),
        base64.b64encode(_pack_bits(ds.theta)).decode("ascii"),
        base64.b64encode(_pack_bits(ds.membership)).decode("ascii"),
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def dataset_from_bytes(data: bytes) -> Dataset:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError("dataset file is not ascii text") from exc
    lines = text.splitlines()
    if len(lines) < 3:
        raise DatasetFormatError("truncated dataset file (expected 3 lines)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"bad JSON header: {exc}") from exc
    version = header.get("schema_version") if isinstance(header, dict) else None
    if version != SCHEMA_VERSION:
        raise DatasetFormatError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    try:
        theta_blob = base64.b64decode(lines[1], validate=True)
        memb_blob = base64.b64decode(lines[2], validate=True)
    except Exception as exc:
        raise DatasetFormatError(f"bad base64 payload: {exc}") from exc

    try:
        n, e, m = header["n_worlds"], header["n_edges"], header["n_paths"]
        ds = Dataset(
            graph=_graph_from_json(header["graph"]),
            theta=_unpack_bits(theta_blob, n, e),
            paths=[Path(tuple(ids)) for ids in header["paths"]],
            membership=_unpack_bits(memb_blob, n, m),
            train=np.asarray(header["split"]["train"], dtype=np.int64),
            test=np.asarray(header["split"]["test"], dtype=np.int64),
            provenance=header.get("provenance", {}),
        )
    except DatasetFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad dataset header: {exc!r}") from exc
    violations = validate_dataset(ds)
    if violations:
        raise DatasetFormatError(
            "dataset fails validation: " + "; ".join(violations[:5])
        )
    return ds


def dataset_hash(ds: Dataset) -> str:
    """sha256 of the canonical serialization; identifies a dataset exactly."""
    return hashlib.sha256(dataset_to_bytes(ds)).hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a sibling temp file + rename so readers never see partials."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(ds: Dataset, path: str) -> None:
    atomic_write_bytes(path, dataset_to_bytes(ds))


def load_dataset(path: str) -> Dataset:
    with open(path, "rb") as f:
        return dataset_from_bytes(f.read())
