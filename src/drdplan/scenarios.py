"""Desk-scale 2D grid scenarios: graph construction, parametric obstacle
worlds, and a k-shortest-path candidate library.

Four obstacle kinds span the weakly-correlated (forest) to strongly
correlated (twowall, baffle) spectrum:

  forest  - n discs with uniform centers (quantized to 1/64 grid units);
  onewall - one full-width horizontal wall, one cell thick, with a gap;
  twowall - two such walls at distinct rows with independent gaps;
  baffle  - a wall attached to the left boundary and one to the right,
            at distinct rows, each leaving a gap at its free end.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, asdict

import numpy as np

from . import rng as _rng
from .geometry import (SCALE, cell_boxes, disc_cell, disc_cells, edge_segments,
                       segments_hit_disc, segments_hit_wall)
from .graph import SQRT2, shortest_simple_paths
from .model import Dataset, ExplicitGraph, Path, compute_membership, split_dataset

KINDS = ("forest", "onewall", "twowall", "baffle")

# Neighbor offsets (drow, dcol) covering each undirected edge once.
_OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1))

# sample_world tests a block of worlds at once.  Its temporaries, int64
# (worlds x discs, C) for C candidate edges per disc (geometry.disc_cells;
# the gathered segments take four such) or boolean (worlds x walls, E),
# hold at most about this many elements (64 KB as int64; at least one
# world): a test keeps about a dozen alive, which then stay near 1 MB and
# in cache.  A world
# has at most _MAX_WALLS walls (twowall: two walls of two pieces).
_BLOCK_ELEMENTS = 1 << 13
_MAX_WALLS = 4
_EMPTY_WALL = (0, 2, 0)  # first > last + 1: meets no lattice step


@dataclass
class ScenarioSpec:
    """Parametric generative model for one scenario family."""

    kind: str
    rows: int
    cols: int
    seed: int = 0
    # forest
    n_discs: int = 6
    disc_radius: float = 0.7
    # wall kinds (onewall / twowall / baffle).  Defaults keep walls and gaps
    # in the central band of the grid so that the k-shortest library (which
    # hugs the start-goal diagonal) retains coverage of most worlds.
    gap_width: int | None = None  # default 3 for walls, cols // 2 for baffle
    wall_row_lo: int | None = None  # default rows // 3
    wall_row_hi: int | None = None  # default rows - 1 - rows // 3
    gap_col_lo: int | None = None  # default cols // 4
    gap_col_hi: int | None = None  # default cols - gap - cols // 4

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.rows < 5 or self.cols < 5:
            raise ValueError("grid must be at least 5x5")
        if self.kind == "forest":
            # A disc wider than rows + cols already blocks every edge.
            if self.n_discs < 0 or not 0 < self.disc_radius <= self.rows + self.cols:
                raise ValueError(
                    "forest needs n_discs >= 0 and a finite disc_radius in (0, rows + cols]"
                )
            return
        gw = self.gap_width_eff()
        if gw < 1:
            raise ValueError("gap width must be at least 1 cell")
        lo, hi = self.row_range()
        if not (1 <= lo <= hi <= self.rows - 2):
            raise ValueError("wall row range outside grid interior")
        if self.kind in ("twowall", "baffle") and hi - lo < 1:
            raise ValueError(f"{self.kind} needs at least two candidate rows")
        if self.kind == "baffle":
            if gw >= self.cols:
                raise ValueError("baffle gap width must leave room for the wall")
            return
        glo, ghi = self.gap_range()
        if not (0 <= glo <= ghi <= self.cols - gw):
            raise ValueError("gap column range leaves the grid")

    def gap_width_eff(self) -> int:
        if self.gap_width is not None:
            return self.gap_width
        if self.kind == "baffle":
            return self.cols // 2
        return 2 if self.kind == "twowall" else 3

    def row_range(self) -> tuple[int, int]:
        # twowall keeps both walls within one row of the center so the
        # discrete configuration space stays small enough for a sampled
        # database to resolve, while the walls still straddle the diagonal.
        if self.kind == "twowall":
            mid = (self.rows - 1) // 2
            lo, hi = mid - 1, mid + 1
        else:
            lo, hi = self.rows // 3, self.rows - 1 - self.rows // 3
        if self.wall_row_lo is not None:
            lo = self.wall_row_lo
        if self.wall_row_hi is not None:
            hi = self.wall_row_hi
        return lo, hi

    def gap_range(self) -> tuple[int, int]:
        gw = self.gap_width_eff()
        if self.kind == "twowall":
            # gap band sits left of the center column: the start-goal
            # diagonal crosses the walls right of it, so an optimistic
            # shortest-path baseline pays for wall pokes before detouring
            lo = max((self.cols - gw) // 2 - 2, 0)
            hi = lo + 2
        else:
            lo = self.cols // 4
            hi = self.cols - gw - self.cols // 4
        if self.gap_col_lo is not None:
            lo = self.gap_col_lo
        if self.gap_col_hi is not None:
            hi = self.gap_col_hi
        return lo, hi


def build_grid_graph(rows: int, cols: int) -> ExplicitGraph:
    """8-connected integer lattice; unit evaluation cost, Euclidean lengths.

    Vertex (r, c) has id r * cols + c and position (x=c, y=r).  Start is the
    bottom-left corner (0, 0), goal the top-right corner.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid must be at least 2x2")
    positions = np.array(
        [(c, r) for r in range(rows) for c in range(cols)], dtype=np.float64
    )
    endpoints = []
    lengths = []
    for r in range(rows):
        for c in range(cols):
            for dr, dc in _OFFSETS:
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < rows and 0 <= c2 < cols:
                    endpoints.append((r * cols + c, r2 * cols + c2))
                    lengths.append(1.0 if dr == 0 or dc == 0 else SQRT2)
    endpoints = np.asarray(endpoints, dtype=np.int64)
    return ExplicitGraph(
        positions=positions,
        endpoints=endpoints,
        eval_cost=np.ones(len(endpoints), dtype=np.float64),
        length=np.asarray(lengths, dtype=np.float64),
        start=0,
        goal=rows * cols - 1,
    )


def _sample_obstacles(spec: ScenarioSpec, rng: np.random.Generator) -> dict:
    """Draw one world's obstacles: discs as scaled-integer (cx, cy, r),
    walls as the cells they cover, (row, first column, last column)."""
    rows, cols, gw = spec.rows, spec.cols, spec.gap_width_eff()

    def wall(row: int, gap_col: int) -> list[tuple[int, int, int]]:
        """The full-width wall at row, less the gap of gw cells from gap_col."""
        pieces = [(row, 0, gap_col - 1), (row, gap_col + gw, cols - 1)]
        return [p for p in pieces if p[1] <= p[2]]

    if spec.kind == "forest":
        r = int(round(spec.disc_radius * SCALE))
        discs = [
            (
                int(rng.integers(0, (cols - 1) * SCALE + 1)),
                int(rng.integers(0, (rows - 1) * SCALE + 1)),
                r,
            )
            for _ in range(spec.n_discs)
        ]
        return {"discs": discs, "walls": []}

    rlo, rhi = spec.row_range()
    if spec.kind == "onewall":
        w = int(rng.integers(rlo, rhi + 1))
        glo, ghi = spec.gap_range()
        g = int(rng.integers(glo, ghi + 1))
        return {"discs": [], "walls": wall(w, g)}

    # Two distinct rows for twowall / baffle.
    choices = np.arange(rlo, rhi + 1)
    pair = rng.choice(choices, size=2, replace=False)
    if spec.kind == "twowall":
        glo, ghi = spec.gap_range()
        walls = []
        for w in sorted(int(x) for x in pair):
            walls += wall(w, int(rng.integers(glo, ghi + 1)))
        return {"discs": [], "walls": walls}

    # baffle: the left-attached wall (gap on the right end) sits at the
    # higher row, the right-attached wall (gap on the left end) at the
    # lower row, so the free corridor bends the start-goal diagonal rather
    # than blocking it outright.
    r_left, r_right = int(pair.max()), int(pair.min())
    return {"discs": [], "walls": [(r_left, 0, cols - 1 - gw), (r_right, gw, cols - 1)]}


def sample_world(spec: ScenarioSpec, rngs: list[np.random.Generator], segments: np.ndarray,
                 boxes: np.ndarray, cells: np.ndarray | None) -> np.ndarray:
    """Validity bits of a block of worlds, one row per generator: an edge is
    invalid iff its segment meets any obstacle region sampled from that
    world's generator.  Exact integer tests for the whole block, from
    tables computed once per dataset: boxes is cell_boxes(segments), which
    every wall is tested against, and cells is a forest's disc_cells table
    (None for walls).  A disc is tested only against its centre cell's row,
    which holds every edge it can hit.  Wall lists are padded to the
    block's longest with the empty wall, which hits nothing; every world of
    a spec has the same number of discs."""
    worlds = [_sample_obstacles(spec, g) for g in rngs]
    blocked = np.zeros((len(worlds), segments.shape[0]), dtype=bool)
    if cells is not None:  # one (worlds * discs, 1) column per parameter
        discs = np.array([w["discs"] for w in worlds], dtype=np.int64).reshape(-1, 3)
        cx, cy, r = discs.T[:, :, None]
        ids = cells[disc_cell(cx, cy, spec.cols, r)[:, 0]]
        disc, hit = np.nonzero(segments_hit_disc(segments[ids], cx, cy, r))
        blocked[disc // spec.n_discs, ids[disc, hit]] = True
    width = max(len(w["walls"]) for w in worlds)
    if width:  # one (worlds * walls, 1) column per wall parameter
        walls = [w["walls"] + [_EMPTY_WALL] * (width - len(w["walls"])) for w in worlds]
        columns = np.array(walls, dtype=np.int64).reshape(-1, 3).T[:, :, None]
        hits = segments_hit_wall(boxes, *columns)
        blocked |= hits.reshape(len(worlds), width, -1).any(axis=1)
    return (~blocked).astype(np.uint8)


class LibraryTruncated(UserWarning):
    """Fewer distinct simple paths exist than the requested library size."""


def build_path_library(
    graph: ExplicitGraph, k: int, m: int, seed: int
) -> tuple[list[Path], bool]:
    """k shortest loopless start-goal paths on the obstacle-free graph,
    subsampled uniformly to m (shortest always kept), re-sorted by float
    length (see drdplan.graph).

    Returns (paths, truncated) where truncated flags that fewer than m
    distinct paths exist.
    """
    if not k >= m >= 1:
        raise ValueError("need k >= m >= 1")
    edge_id = {(u, v): e for u, nbrs in enumerate(graph.adjacency) for v, e in nbrs}
    distinct = dict.fromkeys(  # the enumeration can repeat a path
        tuple(edge_id[u, v] for u, v in zip(vp, vp[1:]))
        for vp in shortest_simple_paths(graph, edge_id, k)
    )
    candidates = [Path(ids) for ids in distinct]

    truncated = len(candidates) < m
    if truncated:
        warnings.warn(
            f"only {len(candidates)} distinct simple paths found (wanted {m})",
            LibraryTruncated,
        )
    if len(candidates) <= m:
        chosen = list(range(len(candidates)))
    else:
        gen = _rng.substream(seed, _rng.STREAM_SUBSAMPLE)
        rest = gen.choice(np.arange(1, len(candidates)), size=m - 1, replace=False)
        chosen = [0] + sorted(int(i) for i in rest)
    chosen.sort(key=lambda i: (float(graph.length[list(candidates[i].edge_ids)].sum()), i))
    return [candidates[i] for i in chosen], truncated


def generate_dataset(
    spec: ScenarioSpec,
    n_worlds: int,
    k: int,
    m: int,
    test_fraction: float = 0.1,
) -> Dataset:
    """Full dataset: graph, library, split, sampled worlds and membership.

    Worlds draw from per-index substreams (stream id = world index) so the
    output is identical however sampling is parallelized.  The split and
    the library each draw from their own substream, so they come first: a
    bad test_fraction, k or m fails before any world is sampled.  Every
    substream descends from spec.seed.  Sampling's tables are built once
    here; a forest's disc_cells rows keep every edge each disc can hit.
    """
    spec.validate()
    if n_worlds < 10:
        raise ValueError("need at least 10 worlds")

    graph = build_grid_graph(spec.rows, spec.cols)
    theta = np.empty((n_worlds, graph.num_edges), dtype=np.uint8)
    ds = split_dataset(Dataset(graph, theta, [], membership=None), test_fraction, spec.seed)
    ds.paths, truncated = build_path_library(graph, k, m, spec.seed)
    segments = edge_segments(graph.positions, graph.endpoints)
    boxes = cell_boxes(segments)
    r = round(spec.disc_radius * SCALE)
    cells = disc_cells(segments, spec.rows, spec.cols, r) if spec.kind == "forest" else None
    per_world = _MAX_WALLS * graph.num_edges if cells is None else spec.n_discs * cells.shape[1]
    block = max(1, _BLOCK_ELEMENTS // max(1, per_world))
    for lo in range(0, n_worlds, block):
        rngs = [_rng.substream(spec.seed, _rng.STREAM_WORLDS, i)
                for i in range(lo, min(lo + block, n_worlds))]
        theta[lo : lo + block] = sample_world(spec, rngs, segments, boxes, cells)
    ds.membership = compute_membership(theta, ds.paths)
    coverage = float(ds.membership[ds.train].any(axis=1).mean())
    ds.provenance = {
        "generator": "drdplan.scenarios",
        "scenario": {k_: v for k_, v in asdict(spec).items() if v is not None},
        "n_worlds": int(n_worlds),
        "k_shortest": int(k),
        "library_size": ds.num_paths,
        "library_truncated": bool(truncated),
        "test_fraction": float(test_fraction),
        "seed": int(spec.seed),
        "train_coverage": coverage,
        "streams": dict(_rng.STREAM_NAMES),
    }
    return ds
