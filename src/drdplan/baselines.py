"""Reference lazy policies: LazySP on the full graph, LazySP restricted to
the path library, and a seeded random-edge sanity floor.

Edge lengths are integers or integer multiples of sqrt(2) (dataset
validation enforces it), so path lengths are represented exactly as integer
pairs (a, b) meaning a + b*sqrt(2); comparisons and the lexicographic
shortest-path tie-break are then exact.
"""

from __future__ import annotations

import heapq

import numpy as np

from . import rng as _rng
from .model import SQRT2, ExplicitGraph, Library, library_status
from .traces import AllRegionsDead, Infeasible, RunTrace, Solved


def _lt(x: tuple[int, int], y: tuple[int, int]) -> bool:
    """Exact a1 + b1*sqrt2 < a2 + b2*sqrt2 for integer pairs."""
    da, db = x[0] - y[0], x[1] - y[1]
    if da == 0 and db == 0:
        return False
    if da <= 0 and db <= 0:
        return True
    if da >= 0 and db >= 0:
        return False
    if da > 0:  # db < 0: da vs -db*sqrt2
        return da * da < 2 * db * db
    return da * da > 2 * db * db  # da < 0, db > 0


def shortest_path_edges(graph: ExplicitGraph, usable: np.ndarray) -> list[int] | None:
    """Lexicographically-smallest-edge-id shortest start-goal path over the
    usable edges, or None when disconnected.

    One exact Dijkstra from the goal gives every vertex's distance to it;
    the walk from the start then takes, at each vertex, the lowest-id
    usable edge that stays on a shortest path."""
    w = graph.exact_length()
    adj = graph.adjacency()
    usable = np.asarray(usable, dtype=bool).tolist()
    dist: list = [None] * graph.num_vertices  # exact distance to the goal
    dist[graph.goal] = (0, 0)
    counter = 0
    heap = [(0.0, counter, graph.goal)]
    done = [False] * graph.num_vertices
    while heap:
        _, _, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, e in adj[u]:
            if not usable[e] or done[v]:
                continue
            nd = (dist[u][0] + w[e][0], dist[u][1] + w[e][1])
            if dist[v] is None or _lt(nd, dist[v]):
                dist[v] = nd
                counter += 1
                heapq.heappush(heap, (nd[0] + nd[1] * SQRT2, counter, v))
    if dist[graph.start] is None:
        return None

    path: list[int] = []
    u = graph.start
    while u != graph.goal:
        for v, e in adj[u]:  # ascending edge id
            if usable[e] and dist[v] is not None and (
                dist[v][0] + w[e][0], dist[v][1] + w[e][1]
            ) == dist[u]:
                break
        else:  # cannot happen: exact distances always continue
            return None
        path.append(e)
        u = v
    return path


def check_path(edges, status, oracle, eval_cost, trace: RunTrace) -> bool:
    """Lazily check one path against the world.  status holds one int8 per
    edge (0 unknown, 1 valid, -1 invalid).  False at once if an edge of the
    path is known invalid; otherwise evaluate its unknown edges in path
    order, recording each in the trace and in status, until one fails.
    True when every edge of the path is valid."""
    if (status[list(edges)] == -1).any():
        return False
    for e in edges:
        if status[e] == 0:
            outcome = int(oracle(e))
            trace.record(e, outcome, float(eval_cost[e]))
            status[e] = 1 if outcome else -1
            if not outcome:
                return False
    return True


def lazysp_graph(
    graph: ExplicitGraph, oracle, policy_name: str = "lazysp-graph", world_index: int = -1
) -> RunTrace:
    """LazySP on the full graph: evaluate the optimistic shortest path's
    unknown edges start-to-goal, restart on the first invalid edge."""
    status = np.zeros(graph.num_edges, dtype=np.int8)  # 0 unknown, 1 valid, -1 invalid
    trace = RunTrace(policy=policy_name, world_index=world_index)
    while True:
        path = shortest_path_edges(graph, status >= 0)
        if path is None:
            trace.terminal = Infeasible()
            return trace
        if check_path(path, status, oracle, graph.eval_cost, trace):
            trace.terminal = Solved(None)
            trace.path_edges = tuple(path)
            return trace


def lazysp_set(
    library: Library,
    graph: ExplicitGraph,
    oracle,
    policy_name: str = "lazysp-set",
    world_index: int = -1,
) -> RunTrace:
    """LazySP restricted to the library: candidate is the shortest surviving
    library path (ties to the lowest index).  The library must carry its
    exact path lengths."""
    if not library.paths:
        raise ValueError("library must be nonempty")
    if library.lengths is None:
        raise ValueError("library was built without edge lengths")
    lengths = library.lengths
    status = np.zeros(graph.num_edges, dtype=np.int8)
    trace = RunTrace(policy=policy_name, world_index=world_index)
    while True:
        _, live, _ = library_status(library.inR, status == 1, status == -1)
        best = None
        for r in np.flatnonzero(live).tolist():
            if best is None or _lt(lengths[r], lengths[best]):
                best = r
        if best is None:
            trace.terminal = AllRegionsDead()
            return trace
        if check_path(library.paths[best], status, oracle, graph.eval_cost, trace):
            trace.terminal = Solved(best)
            trace.path_edges = library.paths[best]
            return trace


def random_policy(
    library: Library,
    graph: ExplicitGraph,
    oracle,
    seed: int,
    policy_name: str = "random",
    world_index: int = -1,
) -> RunTrace:
    """Evaluate uniformly random unknown edges on still-plausible paths."""
    if not library.paths:
        raise ValueError("library must be nonempty")
    gen = _rng.substream(seed, _rng.STREAM_RANDOM_POLICY, max(world_index, 0))
    status = np.zeros(graph.num_edges, dtype=np.int8)
    trace = RunTrace(policy=policy_name, world_index=world_index)
    while True:
        solved, live, open_edges = library_status(library.inR, status == 1, status == -1)
        if not live.any():
            trace.terminal = AllRegionsDead()
            return trace
        if solved is not None:
            trace.terminal = Solved(solved)
            trace.path_edges = library.paths[solved]
            return trace
        pool = np.flatnonzero(open_edges)
        edge = int(pool[gen.integers(len(pool))])
        outcome = int(oracle(edge))
        trace.record(edge, outcome, float(graph.eval_cost[edge]))
        status[edge] = 1 if outcome else -1
