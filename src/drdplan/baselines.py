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
from .model import SQRT2, ExplicitGraph, Path, exact_lengths
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


class _Metric:
    """Edge lengths as exact integer pairs; sums of pairs stay exact."""

    zero = (0, 0)

    def __init__(self, lengths: np.ndarray):
        self.w = exact_lengths(lengths)
        if self.w is None:
            raise ValueError("edge lengths must be integers or integer multiples of sqrt(2)")

    def add(self, x, e: int):
        return (x[0] + self.w[e][0], x[1] + self.w[e][1])

    def path_length(self, edge_ids) -> tuple[int, int]:
        total = self.zero
        for e in edge_ids:
            total = self.add(total, e)
        return total


def _dijkstra(graph: ExplicitGraph, metric: _Metric, source: int, usable: np.ndarray):
    """Exact-weight Dijkstra over edges where usable[e]; returns dist list
    (None = unreachable)."""
    adj = graph.adjacency()
    dist: list = [None] * graph.num_vertices
    dist[source] = metric.zero
    counter = 0
    heap = [(0.0, counter, source)]
    done = [False] * graph.num_vertices
    while heap:
        _, _, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, e in adj[u]:
            if not usable[e] or done[v]:
                continue
            nd = metric.add(dist[u], e)
            if dist[v] is None or _lt(nd, dist[v]):
                dist[v] = nd
                counter += 1
                heapq.heappush(heap, (nd[0] + nd[1] * SQRT2, counter, v))
    return dist


def shortest_path_edges(
    graph: ExplicitGraph, usable: np.ndarray, metric: _Metric | None = None
) -> list[int] | None:
    """Lexicographically-smallest-edge-id shortest start-goal path over the
    usable edges, or None when disconnected."""
    metric = metric or _Metric(graph.length)
    dist_s = _dijkstra(graph, metric, graph.start, usable)
    if dist_s[graph.goal] is None:
        return None
    dist_g = _dijkstra(graph, metric, graph.goal, usable)
    total = dist_s[graph.goal]
    adj = graph.adjacency()

    path: list[int] = []
    u = graph.start
    acc = metric.zero
    while u != graph.goal:
        best = None
        for v, e in sorted(adj[u], key=lambda ve: ve[1]):
            if not usable[e] or dist_g[v] is None:
                continue
            # length via u -> e -> v then optimal to goal
            via = metric.add(acc, e)
            if (via[0] + dist_g[v][0], via[1] + dist_g[v][1]) == total:
                best = (v, e)
                break
        if best is None:  # cannot happen: exact distances always continue
            return None
        v, e = best
        acc = metric.add(acc, e)
        path.append(e)
        u = v
    return path


def lazysp_graph(
    graph: ExplicitGraph, oracle, policy_name: str = "lazysp-graph", world_index: int = -1
) -> RunTrace:
    """LazySP on the full graph: evaluate the optimistic shortest path's
    unknown edges start-to-goal, restart on the first invalid edge."""
    metric = _Metric(graph.length)
    status = np.zeros(graph.num_edges, dtype=np.int8)  # 0 unknown, 1 valid, -1 invalid
    trace = RunTrace(policy=policy_name, world_index=world_index)
    while True:
        usable = status >= 0
        path = shortest_path_edges(graph, usable, metric)
        if path is None:
            trace.terminal = Infeasible()
            return trace
        failed = False
        for e in path:
            if status[e] == 0:
                outcome = int(oracle(e))
                trace.record(e, outcome, float(graph.eval_cost[e]))
                status[e] = 1 if outcome else -1
                if not outcome:
                    failed = True
                    break
        if not failed:
            trace.terminal = Solved(None)
            trace.path_edges = tuple(path)
            return trace


def lazysp_set(
    library: list[Path],
    graph: ExplicitGraph,
    oracle,
    policy_name: str = "lazysp-set",
    world_index: int = -1,
) -> RunTrace:
    """LazySP restricted to the library: candidate is the shortest surviving
    library path (ties to the lowest index)."""
    if not library:
        raise ValueError("library must be nonempty")
    metric = _Metric(graph.length)
    lengths = [metric.path_length(p.edge_ids) for p in library]
    status = np.zeros(graph.num_edges, dtype=np.int8)
    trace = RunTrace(policy=policy_name, world_index=world_index)
    while True:
        best = None
        for r, p in enumerate(library):
            if any(status[e] == -1 for e in p.edge_ids):
                continue
            if best is None or _lt(lengths[r], lengths[best]):
                best = r
        if best is None:
            trace.terminal = AllRegionsDead()
            return trace
        failed = False
        for e in library[best].edge_ids:
            if status[e] == 0:
                outcome = int(oracle(e))
                trace.record(e, outcome, float(graph.eval_cost[e]))
                status[e] = 1 if outcome else -1
                if not outcome:
                    failed = True
                    break
        if not failed:
            trace.terminal = Solved(best)
            trace.path_edges = tuple(library[best].edge_ids)
            return trace


def random_policy(
    library: list[Path],
    graph: ExplicitGraph,
    oracle,
    seed: int,
    policy_name: str = "random",
    world_index: int = -1,
) -> RunTrace:
    """Evaluate uniformly random unknown edges on still-plausible paths."""
    if not library:
        raise ValueError("library must be nonempty")
    gen = _rng.substream(seed, _rng.STREAM_RANDOM_POLICY, max(world_index, 0))
    status = np.zeros(graph.num_edges, dtype=np.int8)
    trace = RunTrace(policy=policy_name, world_index=world_index)
    while True:
        plausible = [
            p for p in library if not any(status[e] == -1 for e in p.edge_ids)
        ]
        if not plausible:
            trace.terminal = AllRegionsDead()
            return trace
        for r, p in enumerate(library):
            if all(status[e] == 1 for e in p.edge_ids):
                trace.terminal = Solved(r)
                trace.path_edges = tuple(p.edge_ids)
                return trace
        pool = sorted({e for p in plausible for e in p.edge_ids if status[e] == 0})
        edge = int(pool[gen.integers(len(pool))])
        outcome = int(oracle(edge))
        trace.record(edge, outcome, float(graph.eval_cost[edge]))
        status[edge] = 1 if outcome else -1
