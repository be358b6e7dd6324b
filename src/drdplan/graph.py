"""Exact path lengths and every search over an explicit graph: the exact
Dijkstra that LazySP re-plans with, and the Yen k-shortest-paths port
behind the path library.

Exactness contract: an edge length is an integer or an integer multiple
of sqrt(2); exact_lengths rejects any other (dataset validation reports
it, so such a file exits 3).  Path lengths are integer pairs (a, b),
value a + b*sqrt(2), and _lt compares them exactly, so no round-off
decides a shortest path or a tie between paths.  Two readers keep
floats.  The Yen port sums networkx's float lengths; its spur bound reads
goal_distances as floats with a 1e-9 margin, so round-off never decides
a cut.  drdplan.scenarios.build_path_library sorts the library by float
length sums, so round-off can order two paths of one exact length.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from itertools import count
from math import inf, isfinite
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import ExplicitGraph, Path

SQRT2 = float(np.sqrt(2.0))


def exact_lengths(lengths) -> tuple[tuple[int, int], ...]:
    """Each length as an integer pair (a, b) with value a + b*sqrt(2).
    ValueError if some length is neither an integer nor an integer
    multiple of sqrt(2)."""
    out: list[tuple[int, int]] = []
    for w in np.asarray(lengths, dtype=np.float64).tolist():  # Python floats, not numpy scalars
        if isfinite(w):
            a = round(w)
            if abs(w - a) < 1e-12:
                out.append((a, 0))
                continue
            b = round(w / SQRT2)
            if abs(w - b * SQRT2) < 1e-12:
                out.append((0, b))
                continue
        raise ValueError("edge lengths must be integers or integer multiples of sqrt(2)")
    return tuple(out)


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


def goal_distances(graph: ExplicitGraph, usable: list) -> list:
    """Exact distance (a, b), value a + b*sqrt(2), from each vertex to the
    goal over the usable edges (a list of bools by edge id), or None where
    the goal is out of reach: one Dijkstra from the goal."""
    w = graph.exact_length
    adj = graph.adjacency
    dist: list = [None] * graph.num_vertices
    dist[graph.goal] = (0, 0)
    counter = 0
    heap = [(0.0, counter, graph.goal)]
    done = [False] * graph.num_vertices
    while heap:
        _, _, u = heappop(heap)
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
                heappush(heap, (nd[0] + nd[1] * SQRT2, counter, v))
    return dist


def shortest_path_edges(graph: ExplicitGraph, usable: np.ndarray) -> list[int] | None:
    """Lexicographically-smallest-edge-id shortest start-goal path over the
    usable edges, or None when disconnected.

    goal_distances gives every vertex's exact distance to the goal; the
    walk from the start then takes, at each vertex, the lowest-id usable
    edge that stays on a shortest path."""
    w = graph.exact_length
    adj = graph.adjacency
    usable = np.asarray(usable, dtype=bool).tolist()
    dist = goal_distances(graph, usable)
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


def path_is_connected(graph: ExplicitGraph, path: Path) -> bool:
    """True iff the edge sequence chains start -> goal without edge reuse."""
    if len(path.edge_ids) != len(set(path.edge_ids)):
        return False
    if not path.edge_ids:
        return False
    cur = graph.start
    for u, v in graph.endpoints[list(path.edge_ids)].tolist():
        if cur == u:
            cur = v
        elif cur == v:
            cur = u
        else:
            return False
    return cur == graph.goal


def _bidirectional_dijkstra(adj, source, target, ignore_nodes, ignore_edges):
    """(length, vertex path) of a shortest source-target path that avoids
    the flagged vertices and edges, or None when there is none.

    A port of networkx 3.6.1's ``simple_paths._bidirectional_dijkstra`` that
    makes the same choices on ties: the two directions alternate (a stale
    heap entry uses up its direction's turn), heap entries are (distance,
    counter, vertex) off one shared counter, neighbors are scanned in
    adjacency order, distances are summed in the same order, and the best
    meeting point is replaced only by a strictly shorter one.  Paths are
    kept as predecessor links instead of copied lists; a meeting records
    its vertex's two predecessors, whose chains no later step can change.
    """
    if source == target:
        return 0, [source]
    n = len(adj)
    dists = ([None] * n, [None] * n)
    seen = ([None] * n, [None] * n)
    pred = ([None] * n, [None] * n)
    seen[0][source] = seen[1][target] = 0
    c = count()
    fringe = ([(0, next(c), source)], [(0, next(c), target)])
    finaldist = meet = None
    dir = 1
    while fringe[0] and fringe[1]:
        dir = 1 - dir
        dist, _, v = heappop(fringe[dir])
        done = dists[dir]
        if done[v] is not None:
            continue
        done[v] = dist
        if dists[1 - dir][v] is not None:
            w, p0, p1 = meet
            path = [w]
            while p0 is not None:
                path.append(p0)
                p0 = pred[0][p0]
            path.reverse()
            while p1 is not None:
                path.append(p1)
                p1 = pred[1][p1]
            return finaldist, path
        near, other, back, heap = seen[dir], seen[1 - dir], pred[dir], fringe[dir]
        for w, length, e in adj[v]:
            if ignore_nodes[w] or ignore_edges[e] or done[w] is not None:
                continue
            vw_length = dist + length
            if near[w] is None or vw_length < near[w]:
                near[w] = vw_length
                heappush(heap, (vw_length, next(c), w))
                back[w] = v
                if other[w] is not None:
                    totaldist = seen[0][w] + seen[1][w]
                    if meet is None or finaldist > totaldist:
                        finaldist = totaldist
                        meet = (w, pred[0][w], pred[1][w])
    return None


def shortest_simple_paths(graph: ExplicitGraph, edge_id: dict, k: int):
    """The first k loopless start-goal vertex paths in nondecreasing
    length (Yen).

    A port of weighted ``networkx.shortest_simple_paths`` (3.6.1) on a
    simple graph that yields the same first k paths, repeats included: the
    candidate buffer drops a path only while an equal one is pending and
    forgets it once popped, and a spur's cost is root length + spur length.
    The scan of every accepted path for one sharing the spur root becomes a
    trie of the accepted paths keyed by edge id, and the ignored vertices
    and edges become flag arrays.

    A spur search is skipped, exactly, while its trie node has as many
    children as at its last search.  The search depends only on the root
    prefix and those children (edges ignored at earlier roots all touch an
    ignored prefix vertex), and children only grow, so it would find the
    same candidate.  That candidate was pending after the last search and
    leaves the buffer only when popped, which adds its first spur edge
    (excluded from that search) as a new child.  So it is still pending and
    networkx would find it only to drop it (Lawler 1972), or it was cut by
    the bound below, which cuts it again.

    A spur search is also cut when its candidate cannot be among the first
    k.  With ``need`` paths still to yield, let U be the need-th smallest
    pending length (inf when fewer are pending).  A candidate longer than U
    sorts after need pending entries, whatever its counter.  U never rises:
    a pop removes the smallest entry and lowers need by one, a push can
    only lower it, and nothing else leaves the buffer.  So such a
    candidate, and any later duplicate of it, is never yielded.  The
    search is skipped when root length + min over the spur vertex's usable
    edges (v, w) of len(v, w) + dist(w, goal) exceeds U, with dist from
    goal_distances on the whole graph (see the module docstring).
    A search that runs may still find a candidate longer than U.  It is
    pushed and, by the same argument, never yielded; it leaves the need-th
    smallest pending length as it was.
    """
    weight = graph.length.tolist()
    adj = [tuple((w, weight[e], e) for w, e in nbrs) for nbrs in graph.adjacency]
    n, target = len(adj), graph.goal
    found = _bidirectional_dijkstra(
        adj, graph.start, target, bytearray(n), bytearray(graph.num_edges)
    )
    if found is None:
        raise ValueError("start and goal are not connected")
    to_goal = [inf if d is None else d[0] + d[1] * SQRT2
               for d in goal_distances(graph, [True] * graph.num_edges)]
    heap: list = [(found[0], 0, found[1])]
    pending = {tuple(found[1])}
    lengths = [found[0]]  # the pending candidates' lengths, ascending
    counter = count(1)
    accepted: dict = {}  # trie: edge id -> subtrie of the accepted paths
    searched: dict = {}  # id(trie node) -> its child count at its last spur search
    need = k
    while heap and need:
        _, _, path = heappop(heap)
        pending.remove(tuple(path))
        del lengths[0]  # the popped entry is a shortest one
        yield path
        need -= 1
        if not need:
            return
        edges = [edge_id[u, v] for u, v in zip(path, path[1:])]
        node = accepted
        for e in edges:
            node = node.setdefault(e, {})
        ignore_nodes, ignore_edges = bytearray(n), bytearray(graph.num_edges)
        node = accepted
        for i in range(1, len(path)):
            if searched.get(id(node)) != len(node):
                searched[id(node)] = len(node)
                # sum() as networkx calls it: CPython 3.12+ compensates float sums
                root_length = sum([weight[e] for e in edges[: i - 1]])
                for e in node:  # edges leaving this root on an accepted path
                    ignore_edges[e] = 1
                v = path[i - 1]
                cutoff = (lengths[need - 1] if len(lengths) >= need else inf) + 1e-9 - root_length
                bound = min(
                    (length + to_goal[w] for w, length, e in adj[v]
                     if not ignore_nodes[w] and not ignore_edges[e]),
                    default=inf,
                )
                spur = None if bound > cutoff else _bidirectional_dijkstra(
                    adj, v, target, ignore_nodes, ignore_edges
                )
                if spur is not None:
                    candidate = path[: i - 1] + spur[1]
                    key = tuple(candidate)
                    if key not in pending:
                        cost = root_length + spur[0]
                        heappush(heap, (cost, next(counter), candidate))
                        insort(lengths, cost)
                        pending.add(key)
            ignore_nodes[path[i - 1]] = 1
            node = node[edges[i - 1]]
