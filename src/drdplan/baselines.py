"""Reference lazy policies: LazySP on the full graph, LazySP restricted to
the path library, and a seeded random-edge sanity floor.  Each extends the
caller's trace and edge status (the episode state of drdplan.traces) and
returns the trace with its terminal set.  Path lengths, and every
comparison between them, are exact (see drdplan.graph); lazysp_set
walks the library in its checked shortest-first order.
"""

from __future__ import annotations

import numpy as np

from . import rng as _rng
from .graph import shortest_path_edges
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
            return trace.end(Infeasible())
        if check_path(path, status, oracle, graph.eval_cost, trace):
            return trace.end(Solved(None), path)


def lazysp_set(
    library: Library, graph: ExplicitGraph, oracle, trace: RunTrace, status: np.ndarray
) -> RunTrace:
    """LazySP restricted to the library: candidate is the lowest-index
    surviving library path.  A dataset's library comes shortest first by
    exact length (model.validate_dataset checks it at load), so that is
    the shortest, ties to the lowest index.

    It reads only the live paths (no known-invalid edge), so it keeps only
    the live mask of the model.LibraryStatus built at the start of the
    episode.  A live candidate has no edge known invalid, so its check is
    refuted only by evaluating one, its last record; that outcome kills
    the paths through its edge, and valid outcomes never change the mask.
    So it is the mask a status built from scratch gives.  A refuted
    candidate is dead, so the walk down the library never turns back: the
    next candidate is the next live path."""
    if not library.paths:
        raise ValueError("library must be nonempty")
    live = LibraryStatus(library, status).live
    for r, path in enumerate(library.paths):
        if not live[r]:
            continue
        if check_path(path, status, oracle, graph.eval_cost, trace):
            return trace.end(Solved(r), path)
        live[library.through[trace.records[-1][0]]] = False
    return trace.end(AllRegionsDead())


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
            return trace.end(AllRegionsDead())
        solved = paths.solved
        if solved is not None:
            return trace.end(Solved(solved), library.paths[solved])
        pool = paths.open.nonzero()[0]
        edge = int(pool[gen.integers(len(pool))])
        paths.observe(edge, trace.evaluate(edge, oracle, graph.eval_cost, status))
