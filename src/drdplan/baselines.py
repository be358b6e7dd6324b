"""Reference lazy policies: LazySP on the full graph, LazySP restricted to
the path library, and a seeded random-edge sanity floor.  Each extends the
caller's trace and edge status (the episode state of drdplan.traces) and
returns the trace with its terminal set.  Path lengths, and every
comparison between them, are exact (see drdplan.graph).
"""

from __future__ import annotations

from functools import cmp_to_key

import numpy as np

from . import rng as _rng
from .graph import _lt, shortest_path_edges
from .model import ExplicitGraph, Library, LibraryStatus
from .traces import AllRegionsDead, Infeasible, RunTrace, Solved


def check_path(edges, status, oracle, eval_cost, trace: RunTrace) -> bool:
    """Lazily check one path against the world, given the episode's edge
    status (see drdplan.traces).  False at once if an edge of the path is
    known invalid; otherwise evaluate its unknown edges in path order,
    extending the trace and status, until one fails.  True when every edge
    of the path is valid."""
    if (status[list(edges)] == -1).any():
        return False
    for e in edges:
        if status[e] == 0 and not trace.evaluate(e, oracle, eval_cost, status):
            return False
    return True


def lazysp_graph(
    graph: ExplicitGraph, oracle, trace: RunTrace, status: np.ndarray, memo: dict | None = None
) -> RunTrace:
    """LazySP on the full graph: evaluate the optimistic shortest path's
    unknown edges start-to-goal, restart on the first invalid edge.  memo
    maps invalid edge ids to the optimistic shortest path, a pure function
    of them and the graph, so episodes on one graph may share it."""
    memo = {} if memo is None else memo
    while True:
        invalid = tuple(np.flatnonzero(status < 0).tolist())
        if invalid not in memo:
            memo[invalid] = shortest_path_edges(graph, status >= 0)
        path = memo[invalid]
        if path is None:
            trace.terminal = Infeasible()
            return trace
        if check_path(path, status, oracle, graph.eval_cost, trace):
            trace.terminal = Solved(None)
            trace.path_edges = tuple(path)
            return trace


def shortest_first(library: Library, graph: ExplicitGraph) -> list[int]:
    """The library's path indices by exact length, shortest first, ties to
    the lowest index (sorted is stable): lazysp_set's candidate order."""
    w = graph.exact_length
    length = [(sum(w[e][0] for e in p), sum(w[e][1] for e in p)) for p in library.paths]
    by_length = cmp_to_key(lambda r, s: _lt(length[s], length[r]) - _lt(length[r], length[s]))
    return sorted(range(len(length)), key=by_length)


def lazysp_set(
    library: Library, order, graph: ExplicitGraph, oracle, trace: RunTrace, status: np.ndarray
) -> RunTrace:
    """LazySP restricted to the library: candidate is the shortest surviving
    library path (ties to the lowest index).  order is the library's
    shortest_first, computed once per run.

    It reads only the live paths (no known-invalid edge), so it keeps only
    the live mask of the model.LibraryStatus built at the start of the
    episode.  A live candidate has no edge known invalid, so its check is
    refuted only by evaluating one, its last record; that outcome kills
    the paths through its edge, and valid outcomes never change the mask.
    So it is the mask a status built from scratch gives.  A refuted
    candidate is dead, so the walk down the order never turns back: the
    next candidate is the next live path in the order."""
    if not library.paths:
        raise ValueError("library must be nonempty")
    live = LibraryStatus(library, status).live
    for r in order:
        if not live[r]:
            continue
        if check_path(library.paths[r], status, oracle, graph.eval_cost, trace):
            trace.terminal = Solved(r)
            trace.path_edges = library.paths[r]
            return trace
        live[library.through[trace.records[-1][0]]] = False
    trace.terminal = AllRegionsDead()
    return trace


def random_policy(
    library: Library,
    graph: ExplicitGraph,
    seed: int,
    oracle,
    trace: RunTrace,
    status: np.ndarray,
) -> RunTrace:
    """Evaluate uniformly random unknown edges on still-plausible paths,
    drawn from the substream of the trace's world.

    One model.LibraryStatus per episode holds each path's count of edges
    not yet known valid, the live paths and the open edges; each evaluation
    updates only the paths through its edge.  The counts are integers, so
    the pool of each draw, the open edges in ascending id order, is the
    one a status built from scratch gives, and so is every draw."""
    if not library.paths:
        raise ValueError("library must be nonempty")
    gen = _rng.substream(seed, _rng.STREAM_RANDOM_POLICY, max(trace.world_index, 0))
    paths = LibraryStatus(library, status)
    while True:
        if not paths.live.any():
            trace.terminal = AllRegionsDead()
            return trace
        solved = paths.solved
        if solved is not None:
            trace.terminal = Solved(solved)
            trace.path_edges = library.paths[solved]
            return trace
        pool = paths.open.nonzero()[0]
        edge = int(pool[gen.integers(len(pool))])
        paths.observe(edge, trace.evaluate(edge, oracle, graph.eval_cost, status))
