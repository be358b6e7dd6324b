"""Domain model: explicit graphs, worlds, candidate paths and datasets.

A dataset bundles an explicit graph, an N x |E| binary world-outcome matrix
(one row per sampled world, one column per edge), a library of candidate
start-goal paths, and the N x m membership matrix saying which paths are
fully valid in which worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class ExplicitGraph:
    """Undirected graph with dense integer vertex and edge ids.

    positions: (V, 2) float array of 2D coordinates (grid units).
    endpoints: (E, 2) int array; row e holds the two vertex ids of edge e.
    eval_cost: (E,) positive reals, cost of evaluating each edge.
    length:    (E,) nonnegative reals, traversal length of each edge.
    """

    positions: np.ndarray
    endpoints: np.ndarray
    eval_cost: np.ndarray
    length: np.ndarray
    start: int
    goal: int

    @property
    def num_vertices(self) -> int:
        return self.positions.shape[0]

    @property
    def num_edges(self) -> int:
        return self.endpoints.shape[0]

    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbor vertex id, edge id), each in
        ascending edge-id order.  Built on the first call and cached; the
        graph's arrays are treated as immutable from then on."""
        adj = self.__dict__.get("_adjacency")
        if adj is None:
            lists: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
            for e, (u, v) in enumerate(self.endpoints.tolist()):
                lists[u].append((v, e))
                lists[v].append((u, e))
            adj = tuple(map(tuple, lists))
            object.__setattr__(self, "_adjacency", adj)
        return adj

    def exact_length(self) -> tuple[tuple[int, int], ...]:
        """Each edge's length as an exact integer pair (a, b), value
        a + b*sqrt(2); built on the first call and cached like adjacency().
        ValueError if some length is neither an integer nor an integer
        multiple of sqrt(2)."""
        pairs = self.__dict__.get("_exact_length")
        if pairs is None:
            pairs = exact_lengths(self.length)
            if pairs is None:
                raise ValueError("edge lengths must be integers or integer multiples of sqrt(2)")
            pairs = tuple(pairs)
            object.__setattr__(self, "_exact_length", pairs)
        return pairs


@dataclass(frozen=True)
class Path:
    """A connected start-goal sequence of distinct edge ids."""

    edge_ids: tuple[int, ...]


@dataclass
class Dataset:
    """Graph + sampled worlds + path library + membership + split.

    theta:      (N, E) uint8 world-outcome matrix, 1 = edge valid.
    membership: (N, m) uint8, 1 = path fully valid in that world.
    train / test: disjoint world-index arrays covering 0..N-1.
    provenance: generator name, seed and parameters (free-form JSON dict).
    """

    graph: ExplicitGraph
    theta: np.ndarray
    paths: list[Path]
    membership: np.ndarray
    train: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    test: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    provenance: dict = field(default_factory=dict)

    @property
    def num_worlds(self) -> int:
        return self.theta.shape[0]

    @property
    def num_paths(self) -> int:
        return len(self.paths)


def compute_membership(theta: np.ndarray, paths: list[Path]) -> np.ndarray:
    """Membership matrix: M[h, r] = 1 iff every edge of path r is valid in
    world h (bitwise AND over the path's columns of theta)."""
    theta = np.asarray(theta)
    n_edges = theta.shape[1]
    for r, p in enumerate(paths):
        ids = np.asarray(p.edge_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= n_edges):
            raise ValueError(f"path {r} references edge id outside 0..{n_edges - 1}")
    cols = [theta[:, list(p.edge_ids)].all(axis=1) for p in paths]
    return np.stack(cols, axis=1).astype(np.uint8)


def regions_matrix(regions: list[tuple[int, ...]], n_edges: int) -> np.ndarray:
    """(m, E) boolean incidence matrix of path edge sets."""
    sizes = [len(edges) for edges in regions]
    if 0 in sizes:
        raise ValueError(f"region {sizes.index(0)} has no edges")
    mat = np.zeros((len(regions), n_edges), dtype=bool)
    mat[np.repeat(np.arange(len(regions)), sizes), [e for edges in regions for e in edges]] = True
    return mat


@dataclass(frozen=True)
class Library:
    """A path library in the forms its policies read, built once per run.

    paths:   each path's edge ids, in path order.
    inR:     (m, E) boolean incidence matrix (see regions_matrix).
    index:   (m, Lmax) each path's distinct edge ids in ascending order,
             padded with E: a gather from a length-(E+1) vector whose last
             entry is 1.0 then multiplies each row in the same order as a
             product over the path's own edges.
    lengths: each path's exact length as an integer pair (a, b), value
             a + b*sqrt(2), or None when built without edge lengths.
    """

    paths: tuple[tuple[int, ...], ...]
    inR: np.ndarray
    index: np.ndarray
    lengths: tuple[tuple[int, int], ...] | None

    @classmethod
    def build(cls, paths, n_edges: int, edge_lengths=None) -> Library:
        """The library of the given edge-id sequences over n_edges edges;
        edge_lengths, when given, holds each edge's exact (a, b) length
        (ExplicitGraph.exact_length)."""
        paths = tuple(tuple(int(e) for e in p) for p in paths)
        inR = regions_matrix(paths, n_edges)
        rows, cols = np.nonzero(inR)  # row-major: ascending edge id per path
        sizes = inR.sum(axis=1)
        starts = np.cumsum(sizes) - sizes
        index = np.full((len(paths), int(sizes.max(initial=0))), n_edges, dtype=np.intp)
        index[rows, np.arange(rows.size) - starts[rows]] = cols
        lengths = None
        if edge_lengths is not None:
            lengths = tuple(
                (sum(edge_lengths[e][0] for e in p), sum(edge_lengths[e][1] for e in p))
                for p in paths
            )
        inR.setflags(write=False)
        index.setflags(write=False)
        return cls(paths, inR, index, lengths)

    @property
    def num_edges(self) -> int:
        return self.inR.shape[1]


def library_status(
    inR: np.ndarray, valid: np.ndarray, invalid: np.ndarray
) -> tuple[int | None, np.ndarray, np.ndarray]:
    """Where a path library stands, given (E,) masks of the edges known
    valid and known invalid: (solved, live, open_edges).

    solved is the lowest path whose edges are all known valid, or None;
    live masks the paths with no known-invalid edge; open_edges masks the
    unknown edges of live paths.  A live unsolved path always has an open
    edge, so open_edges is empty only when the library is solved or dead.
    """
    proven = np.flatnonzero(~(inR & ~valid).any(axis=1))
    live = ~(inR & invalid).any(axis=1)
    open_edges = inR[live].any(axis=0) & ~(valid | invalid)
    return (int(proven[0]) if proven.size else None), live, open_edges


def path_is_connected(graph: ExplicitGraph, path: Path) -> bool:
    """True iff the edge sequence chains start -> goal without edge reuse."""
    if len(path.edge_ids) != len(set(path.edge_ids)):
        return False
    if not path.edge_ids:
        return False
    cur = graph.start
    for e in path.edge_ids:
        u, v = (int(x) for x in graph.endpoints[e])
        if cur == u:
            cur = v
        elif cur == v:
            cur = u
        else:
            return False
    return cur == graph.goal


def exact_lengths(lengths) -> list[tuple[int, int]] | None:
    """Each length as an integer pair (a, b) with value a + b*sqrt(2), or
    None if some length is neither an integer nor an integer multiple of
    sqrt(2)."""
    if not np.all(np.isfinite(lengths)):
        return None
    out: list[tuple[int, int]] = []
    for w in lengths:
        a = round(float(w))
        if abs(w - a) < 1e-12:
            out.append((a, 0))
            continue
        b = round(float(w) / SQRT2)
        if abs(w - b * SQRT2) < 1e-12:
            out.append((0, b))
            continue
        return None
    return out


def validate_dataset(ds: Dataset) -> list[str]:
    """All invariant violations as human-readable strings; [] when clean.

    Edge lengths must be integers or integer multiples of sqrt(2), as on
    the 8-connected grid: path lengths are then exact pairs a + b*sqrt(2),
    so every comparison between them, and every tie, is decided exactly.
    """
    out: list[str] = []
    g = ds.graph
    E, V = g.num_edges, g.num_vertices

    if g.endpoints.size and (g.endpoints.min() < 0 or g.endpoints.max() >= V):
        out.append("edge endpoints reference nonexistent vertices")
    if not (0 <= g.start < V and 0 <= g.goal < V):
        out.append("start/goal vertex id out of range")
    if g.start == g.goal:
        out.append("start equals goal")
    if np.any(g.eval_cost <= 0):
        out.append("nonpositive eval_cost")
    if np.any(g.length < 0):
        out.append("negative edge length")
    if exact_lengths(g.length) is None:
        out.append("edge length not an integer or an integer multiple of sqrt(2)")
    seen = set()
    for u, v in map(tuple, np.sort(g.endpoints, axis=1)):
        if (u, v) in seen:
            out.append(f"duplicate edge between vertices {u} and {v}")
        seen.add((u, v))

    if ds.theta.shape[1] != E:
        out.append(f"world matrix has {ds.theta.shape[1]} columns, expected {E}")
    if ds.membership.shape != (ds.num_worlds, ds.num_paths):
        out.append("membership matrix shape mismatch")

    for r, p in enumerate(ds.paths):
        if p.edge_ids and (min(p.edge_ids) < 0 or max(p.edge_ids) >= E):
            out.append(f"path {r} references edge id out of range")
        elif not path_is_connected(g, p):
            out.append(f"path {r} is not a connected start-goal edge sequence")

    if ds.membership.shape == (ds.num_worlds, ds.num_paths) and ds.theta.shape[1] == E:
        ok = all(
            not p.edge_ids or (0 <= min(p.edge_ids) and max(p.edge_ids) < E) for p in ds.paths
        )
        if ok and ds.paths:
            recomputed = compute_membership(ds.theta, ds.paths)
            bad = np.argwhere(recomputed != ds.membership)
            for h, r in bad[:20]:
                out.append(f"membership[{h}][{r}] inconsistent with world outcomes")
            if len(bad) > 20:
                out.append(f"... and {len(bad) - 20} more membership inconsistencies")

    split = np.concatenate([ds.train, ds.test])
    if len(np.intersect1d(ds.train, ds.test)):
        out.append("train and test splits overlap")
    if not np.array_equal(np.sort(split), np.arange(ds.num_worlds)):
        out.append("train/test split does not partition the worlds")
    return out


def split_dataset(ds: Dataset, test_fraction: float, seed: int) -> Dataset:
    """Assign a deterministic train/test partition in place and return ds.

    |test| = round(N * test_fraction); the permutation comes from the
    split substream of the given seed.
    """
    from . import rng as _rng

    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = ds.num_worlds
    if n < 2:
        raise ValueError("cannot split a dataset with fewer than 2 worlds")
    n_test = int(round(n * test_fraction))
    n_test = min(max(n_test, 1), n - 1)
    perm = _rng.substream(seed, _rng.STREAM_SPLIT).permutation(n)
    ds.test = np.sort(perm[:n_test]).astype(np.int64)
    ds.train = np.sort(perm[n_test:]).astype(np.int64)
    return ds
