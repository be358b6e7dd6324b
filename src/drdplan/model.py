"""Domain model: explicit graphs, worlds, candidate paths and datasets.

A dataset bundles an explicit graph, an N x |E| binary world-outcome matrix
(one row per sampled world, one column per edge), a library of candidate
start-goal paths, and the N x m membership matrix saying which paths are
fully valid in which worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import exact_distances, exact_lengths, path_is_connected


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

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbor vertex id, edge id), each in
        ascending edge-id order.  Built on first use and cached; the
        graph's arrays are treated as immutable from then on."""
        lists: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for e, (u, v) in enumerate(self.endpoints.tolist()):
            lists[u].append((v, e))
            lists[v].append((u, e))
        return tuple(map(tuple, lists))

    @cached_property
    def exact_length(self) -> tuple[tuple[int, int], ...]:
        """Each edge's exact length (graph.exact_lengths), cached."""
        return exact_lengths(self.length)

    @cached_property
    def start_distance(self) -> list:
        """Each vertex's exact distance from the start over all edges
        (graph.exact_distances), None where out of reach, cached: the
        heuristic of every LazySP re-plan on this graph."""
        return exact_distances(self, self.start, [True] * self.num_edges)


@dataclass(frozen=True)
class Path:
    """A connected start-goal sequence of distinct edge ids."""

    edge_ids: tuple[int, ...]


@dataclass
class Dataset:
    """Graph + sampled worlds + path library + membership + split.

    theta:      (N, E) uint8 world-outcome matrix, 1 = edge valid.
    membership: (N, m) uint8, 1 = path fully valid in that world; always
                compute_membership(theta, paths), so the file omits it.
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
    n_edges = theta.shape[1]
    out = np.empty((len(theta), len(paths)), dtype=np.uint8)
    for r, p in enumerate(paths):
        if not all(0 <= e < n_edges for e in p.edge_ids):
            raise ValueError(f"path {r} references edge id outside 0..{n_edges - 1}")
        out[:, r] = theta[:, list(p.edge_ids)].all(axis=1)
    return out


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
    num_edges: E, the number of edges the paths are drawn from.
    index:   (m, Lmax) each path's distinct edge ids in ascending order,
             padded with E: a gather from a length-(E+1) vector whose last
             entry is 1.0 then multiplies each row in the same order as a
             product over the path's own edges.
    through: for each edge, the ascending ids of the paths that use it.
    """

    paths: tuple[tuple[int, ...], ...]
    num_edges: int
    index: np.ndarray
    through: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, paths, n_edges: int) -> Library:
        """The library of the given edge-id sequences over n_edges edges."""
        paths = tuple(tuple(int(e) for e in p) for p in paths)
        inR = regions_matrix(paths, n_edges)
        rows, cols = np.nonzero(inR)  # row-major: ascending edge id per path
        sizes = inR.sum(axis=1)
        starts = np.cumsum(sizes) - sizes
        index = np.full((len(paths), int(sizes.max(initial=0))), n_edges, dtype=np.intp)
        index[rows, np.arange(rows.size) - starts[rows]] = cols
        users = np.nonzero(inR.T)[1]  # edge-major: ascending path id per edge
        users.setflags(write=False)
        ends = np.cumsum(inR.sum(axis=0)).tolist()
        through = tuple(users[a:b] for a, b in zip([0] + ends[:-1], ends))
        index.setflags(write=False)
        return cls(paths, int(n_edges), index, through)

    @classmethod
    def of(cls, dataset: Dataset) -> Library:
        """The library of a dataset's paths."""
        return cls.build([p.edge_ids for p in dataset.paths], dataset.graph.num_edges)


class LibraryStatus:
    """Where a path library stands in one episode, built from the
    episode's (E,) edge status (drdplan.traces) and kept current by
    observe() as the episode evaluates edges.

    remaining: (m,) per path, the count of its edges not yet known valid.
    live:      (m,) bool, the paths with no known-invalid edge.
    cover:     (E+1,) per edge, the count of live paths that use it; the
               last entry counts the pads of Library.index.
    open:      (E,) bool, the unknown edges that some live path uses.  A
               live unsolved path always has an open edge, so open is empty
               only when the library is solved or dead.

    Every field is an integer count or a mask, so the state observe()
    reaches equals, bit for bit, the state built from scratch on the same
    status.  A (B, E) block of statuses gives each field a leading axis of
    B rows, each the row's own status's (solved and observe read one
    episode's).
    """

    def __init__(self, library: Library, status: np.ndarray) -> None:
        self.library = library
        lead, width = status.shape[:-1], library.num_edges + 1
        rows = status.reshape(-1, width - 1)
        pads = np.ones((len(rows), 1), np.int8)  # pads read valid
        known = np.concatenate((rows, pads), axis=1)[:, library.index]
        m = library.index.shape[0]
        self.remaining = (known != 1).sum(axis=2).reshape(lead + (m,))
        self.live = ~(known == -1).any(axis=2).reshape(lead + (m,))
        # Each row's edge ids offset into its own span of one bincount.
        row, path = np.nonzero(self.live.reshape(len(rows), -1))
        keys = library.index[path] + width * row[:, None]
        cover = np.bincount(keys.ravel(), minlength=width * len(rows))
        self.cover = cover.reshape(lead + (width,))
        self.open = (self.cover[..., :-1] > 0) & (status == 0)

    @property
    def solved(self) -> int | None:
        """The lowest path whose edges are all known valid, or None."""
        if self.remaining.size:
            r = int(self.remaining.argmin())  # the first of the lowest counts
            if self.remaining[r] == 0:
                return r
        return None

    def observe(self, edge: int, outcome: int) -> None:
        """Account for one evaluation of an edge that was unknown until
        now.  Touches only the paths through the edge: a valid outcome
        lowers their remaining counts; an invalid one kills the live ones
        and lowers the cover of their edges."""
        through = self.library.through[edge]
        self.open[edge] = False
        if outcome:
            self.remaining[through] -= 1
            return
        dying = through[self.live[through]]
        if dying.size:
            self.live[dying] = False
            self.cover -= np.bincount(self.library.index[dying].ravel(), minlength=self.cover.size)
            self.open &= self.cover[:-1] > 0


def validate_dataset(ds: Dataset) -> list[str]:
    """All invariant violations as human-readable strings; [] when clean.
    Edge lengths must be exact (see drdplan.graph)."""
    out: list[str] = []
    g = ds.graph
    E, V = g.num_edges, g.num_vertices

    if g.endpoints.size and (g.endpoints.min() < 0 or g.endpoints.max() >= V):
        out.append("edge endpoints reference nonexistent vertices")
    if not (0 <= g.start < V and 0 <= g.goal < V):
        out.append("start/goal vertex id out of range")
    if g.start == g.goal:
        out.append("start equals goal")
    if g.eval_cost.shape != (E,):
        out.append(f"eval_cost has shape {g.eval_cost.shape}, expected ({E},)")
    elif not np.all(np.isfinite(g.eval_cost) & (g.eval_cost > 0)):
        out.append("eval_cost not finite and positive")
    if g.length.shape != (E,):
        out.append(f"edge length has shape {g.length.shape}, expected ({E},)")
    elif np.any(g.length < 0):
        out.append("negative edge length")
    else:
        try:
            exact_lengths(g.length)
        except ValueError:
            out.append("edge length not an integer or an integer multiple of sqrt(2)")
    seen = set()
    for u, v in np.sort(g.endpoints, axis=1).tolist():
        if (u, v) in seen:
            out.append(f"duplicate edge between vertices {u} and {v}")
        seen.add((u, v))

    if ds.theta.shape[1] != E:
        out.append(f"world matrix has {ds.theta.shape[1]} columns, expected {E}")

    for r, p in enumerate(ds.paths):
        if p.edge_ids and (min(p.edge_ids) < 0 or max(p.edge_ids) >= E):
            out.append(f"path {r} references edge id out of range")
        elif not path_is_connected(g, p):
            out.append(f"path {r} is not a connected start-goal edge sequence")

    split = np.concatenate([ds.train, ds.test])
    train = np.sort(ds.train)  # not np.intersect1d, whose np.unique imports numpy.ma
    at = np.searchsorted(train, ds.test).clip(max=len(train) - 1)
    if len(train) and (train[at] == ds.test).any():
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
