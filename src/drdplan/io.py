"""Artifact codec and dataset container persistence.

Every artifact (dataset, tree, run file) is written by to_json_bytes and
read by read_json and reading.  FormatError is the one error for a
malformed or wrong-version artifact (exit 3); is_index is the one test of
an index field.

Dataset file layout (text, two lines):

  line 1: JSON header {schema_version, n_worlds, n_edges, graph, paths,
          split, provenance}
  line 2: base64 of the bit-packed world-outcome matrix

The membership matrix is not stored: the loader derives it from the
worlds and the library (model.compute_membership).

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
from contextlib import contextmanager

import numpy as np

from . import model
from .model import Dataset, ExplicitGraph, Path, validate_dataset

SCHEMA_VERSION = 2


class FormatError(ValueError):
    """Malformed or wrong-version artifact: a dataset, tree or run file."""


def is_index(x) -> bool:
    """A JSON integer >= 0; a JSON true is not one."""
    return type(x) is int and x >= 0


def to_json_bytes(doc) -> bytes:
    """The canonical serialization: sorted keys, no spaces, ASCII, one line
    ending in a newline.  ValueError on NaN or an infinity, which JSON
    does not have."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n").encode("ascii")


@contextmanager
def reading(what: str):
    """Raise what goes wrong while reading `what` as a FormatError that
    names it: a missing key, a value of the wrong type or out of range (an
    integer too large for a float too), or a FormatError from within."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{what}: {exc if isinstance(exc, FormatError) else repr(exc)}") from exc


_INF = float("inf")


def _finite_float(text: str) -> float:
    # float() of a constant (NaN, Infinity, -Infinity) or of a number too
    # large for a float (1e400) is not finite.
    if -_INF < (x := float(text)) < _INF:
        return x
    raise ValueError(f"{text} is not a finite number")


def read_json(data: bytes | str, what: str, version: int) -> dict:
    """A JSON object decoded from ASCII whose schema_version is the JSON
    integer version; FormatError naming what otherwise: for a number that
    Python's json module would read as no finite float (NaN, Infinity,
    1e400) and for nesting too deep for its recursion limit."""
    try:
        doc = json.loads(data.decode("ascii") if isinstance(data, bytes) else data,
                         parse_constant=_finite_float, parse_float=_finite_float)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError too
        raise FormatError(f"bad {what}: {exc}") from exc
    got = doc.get("schema_version") if isinstance(doc, dict) else None
    if type(got) is not int or got != version:
        raise FormatError(f"unsupported {what} schema_version {got!r} (expected {version})")
    return doc


def _pack_bits(mat: np.ndarray) -> bytes:
    mat = np.ascontiguousarray(mat, dtype=np.uint8)
    return np.packbits(mat, axis=1, bitorder="little").tobytes()


def _unpack_bits(blob: bytes, rows: int, cols: int) -> np.ndarray:
    stride = (cols + 7) // 8
    if len(blob) != rows * stride:
        raise FormatError(
            f"bit matrix payload is {len(blob)} bytes, expected {rows * stride}"
        )
    packed = np.frombuffer(blob, dtype=np.uint8).reshape(rows, stride)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


def _graph_to_json(g: ExplicitGraph) -> dict:
    return {  # tolist() makes Python ints and floats without numpy scalars
        "positions": np.asarray(g.positions, dtype=np.float64).tolist(),
        "endpoints": np.asarray(g.endpoints, dtype=np.int64).tolist(),
        "eval_cost": np.asarray(g.eval_cost, dtype=np.float64).tolist(),
        "length": np.asarray(g.length, dtype=np.float64).tolist(),
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
        "graph": _graph_to_json(ds.graph),
        "paths": [list(map(int, p.edge_ids)) for p in ds.paths],
        "split": {k: np.asarray(getattr(ds, k), dtype=np.int64).tolist() for k in ("train", "test")},
        "provenance": ds.provenance,
    }
    return to_json_bytes(header) + base64.b64encode(_pack_bits(ds.theta)) + b"\n"


def dataset_from_bytes(data: bytes) -> Dataset:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError("dataset file is not ascii text") from exc
    lines = text.splitlines()
    header = read_json(lines[0] if lines else "", "dataset header", SCHEMA_VERSION)
    if len(lines) != 2:
        raise FormatError(f"dataset file has {len(lines)} lines, expected 2")
    with reading("bad dataset file"):
        theta_blob = base64.b64decode(lines[1], validate=True)
        n, e = header["n_worlds"], header["n_edges"]
        graph, split = header["graph"], header["split"]
        # Exact types, so that a JSON true is neither an id nor a number.
        ids = [[n, e], *graph["endpoints"], *header["paths"], split["train"],
               split["test"], [graph["start"], graph["goal"]]]
        if not all(is_index(x) for row in ids for x in row):
            raise FormatError("counts and vertex, edge and world ids must be JSON integers >= 0")
        numbers = [*graph["positions"], graph["eval_cost"], graph["length"]]
        if not all(type(x) in (int, float) for row in numbers for x in row):
            raise FormatError("positions, eval_cost and length must be JSON numbers")
        if not isinstance(header.get("provenance", {}), dict):
            raise FormatError("provenance must be a JSON object")
        ds = Dataset(
            graph=_graph_from_json(graph),
            theta=_unpack_bits(theta_blob, n, e),
            paths=[Path(tuple(p)) for p in header["paths"]],
            membership=None,
            train=np.asarray(split["train"], dtype=np.int64),
            test=np.asarray(split["test"], dtype=np.int64),
            provenance=header.get("provenance", {}),
        )
    violations = validate_dataset(ds)
    if violations:
        raise FormatError(
            "dataset fails validation: " + "; ".join(violations[:5])
        )
    ds.membership = model.compute_membership(ds.theta, ds.paths)
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


def save_dataset(ds: Dataset, path: str) -> str:
    """Write the dataset and return its dataset_hash, from the bytes written."""
    atomic_write_bytes(path, data := dataset_to_bytes(ds))
    return hashlib.sha256(data).hexdigest()


def load_dataset(path: str) -> Dataset:
    with open(path, "rb") as f:
        ds = dataset_from_bytes(f.read())
    if not ds.paths:  # every command looks for a path of the library
        raise FormatError("dataset fails validation: dataset has no library paths")
    return ds
