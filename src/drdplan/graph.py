"""Exact path lengths and every search over an explicit graph: one exact
Dijkstra, A* when given a heuristic, for the distance tables and LazySP's
re-plans, and the Yen k-shortest-paths port behind the path library.

Exactness contract: an edge length is an integer or an integer multiple
of sqrt(2); exact_lengths rejects any other (dataset validation reports
it, so such a file exits 3).  Path lengths are integer pairs (a, b),
value a + b*sqrt(2), and _lt compares them exactly, so no round-off
decides a shortest path or a tie between paths.  A dataset's library
comes shortest first by exact length, ties in any order (validation
reports paths_out_of_order).  Two readers keep floats.  The Yen port
sums networkx's float lengths; it keys each deferred spur search by a
lower bound on its candidate's length, read from exact_distances as
floats less a 1e-9 margin, so round-off never runs a search after its
candidate could have been yielded.  build_path_library sorts the
library by float length sums, whose round-off orders exact ties either way.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from itertools import count, islice
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


def paths_out_of_order(lengths, paths) -> list[int]:
    """The indices r whose path is exactly shorter than path r - 1, given
    exact_lengths: [] when the paths come shortest first, ties in any order."""
    total = [(sum(lengths[e][0] for e in p), sum(lengths[e][1] for e in p)) for p in paths]
    return [r for r in range(1, len(total)) if _lt(total[r], total[r - 1])]


def exact_distances(graph: ExplicitGraph, source: int, usable: list,
                    heuristic: list | None = None, stop: int | None = None) -> list:
    """Exact distance (a, b), value a + b*sqrt(2), from source to each
    vertex over the usable edges (a list of bools by edge id), or None
    where out of reach: one Dijkstra from source.

    Given heuristic, each vertex's exact distance to stop over all edges
    (None where there is none), and stop, it is A* toward stop.  That
    heuristic is consistent, so every settled distance is exact, and the
    search ends when it would settle a vertex whose exact distance plus
    heuristic exceeds D, stop's.  By then every vertex whose exact distance
    plus heuristic is at most D is settled: the first unsettled vertex on
    a shortest path to it is queued with no more.  Any other vertex may
    keep a longer distance, or None."""
    w = graph.exact_length
    adj = graph.adjacency
    h = [(0, 0)] * graph.num_vertices if heuristic is None else heuristic
    dist: list = [None] * graph.num_vertices
    dist[source] = (0, 0)
    done = [False] * graph.num_vertices
    bound = None  # stop's exact distance plus heuristic, once settled
    counter = 0
    heap = [(0.0, counter, source)]
    while heap:
        _, _, u = heappop(heap)
        if done[u]:
            continue
        du, hu = dist[u], h[u]
        if bound is not None and _lt(bound, (du[0] + hu[0], du[1] + hu[1])):
            break
        done[u] = True
        if u == stop:
            bound = (du[0] + hu[0], du[1] + hu[1])
        for v, e in adj[u]:
            hv = h[v]
            if not usable[e] or done[v] or hv is None:
                continue
            nd = (du[0] + w[e][0], du[1] + w[e][1])
            if dist[v] is None or _lt(nd, dist[v]):
                dist[v] = nd
                counter += 1
                heappush(heap, (nd[0] + hv[0] + (nd[1] + hv[1]) * SQRT2, counter, v))
    return dist


def shortest_path_edges(graph: ExplicitGraph, usable: np.ndarray) -> list[int] | None:
    """Lexicographically-smallest-edge-id shortest start-goal path over the
    usable edges, or None when disconnected.

    One A* from the goal toward the start (exact_distances, with the
    graph's cached start_distance as heuristic) leaves an exact distance
    on every vertex whose distance plus heuristic is at most the start's
    distance D.  The walk from the start then takes, at each vertex, the
    lowest-id usable edge that stays on a shortest path, and it needs no
    other distance.  A vertex on a shortest path has distance plus
    heuristic at most D: each step lowers the distance by the edge's
    length and raises the heuristic by at most that.  A stored distance is
    never below the exact one, so one that passes the walk's test at u is
    exact.  So the path is the one a full Dijkstra's distances give."""
    w = graph.exact_length
    adj = graph.adjacency
    usable = np.asarray(usable, dtype=bool).tolist()
    dist = exact_distances(graph, graph.goal, usable, graph.start_distance, graph.start)
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
    simple graph that yields the same first k paths: the candidate buffer
    drops a path while an equal one is pending, and a spur's cost is root
    length + spur length.  A yielded path is never found again, since each
    spur search ignores the first edges of the accepted paths through its
    root.  The scan of every accepted path for one sharing the spur root
    becomes a trie of the accepted paths keyed by edge id, and the ignored
    vertices and edges become flag arrays.

    A spur search is skipped, exactly, while its trie node has as many
    children as at its last search.  The search depends only on the root
    prefix and those children (edges ignored at earlier roots all touch an
    ignored prefix vertex), and children only grow, so it would find the
    same candidate.  That candidate leaves the buffer only when popped,
    which adds its first spur edge (excluded from that search) as a new
    child.  So it is still pending, and networkx would find it only to
    drop it (Lawler 1972).

    A spur search is deferred until its candidate could be next.  Where
    networkx searches, the port pushes a deferred entry keyed root length
    + bound - 1e-9, with a counter taken then, so ties keep networkx's
    order.  bound is the minimum over the spur vertex's usable edges
    (v, w) of len(v, w) + dist(w, goal), with dist from exact_distances on
    the whole graph (see the module docstring), so the key is below every
    cost the search can find; where bound is inf the search would find
    nothing, and no entry is pushed.  When a deferred entry reaches the
    top, the search runs and its candidate, if any, goes back in under the
    same counter.  A found entry at the top then sorts before the
    candidate of every search still deferred, as networkx's does.  A path
    found by two searches has one exact length, so the one with the larger
    counter reaches the top only after the other has run; it is dropped
    when it does, as networkx drops it when found.  A deferred entry keeps
    the popped path, the root index, the trie node and its child count
    then, which rebuild the search: the node's children keep their
    insertion order.
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
               for d in exact_distances(graph, target, [True] * graph.num_edges)]
    heap: list = [(found[0], 0, found[1])]
    first = {tuple(found[1]): 0}  # pending path -> smallest counter that found it
    counter = count(1)
    accepted: dict = {}  # trie: edge id -> subtrie of the accepted paths
    searched: dict = {}  # id(trie node) -> its child count at its last spur search
    need = k
    while heap:
        if len(heap[0]) > 3:  # a deferred spur search
            _, c, path, i, node, children, root_length = heap[0]
            ignore_nodes, ignore_edges = bytearray(n), bytearray(graph.num_edges)
            for v in path[: i - 1]:
                ignore_nodes[v] = 1
            for e in islice(node, children):  # edges leaving this root on an accepted path
                ignore_edges[e] = 1
            spur = _bidirectional_dijkstra(adj, path[i - 1], target, ignore_nodes, ignore_edges)
            if spur is None:
                heappop(heap)
                continue
            candidate = path[: i - 1] + spur[1]
            key = tuple(candidate)
            if first.get(key, c) >= c:
                first[key] = c
            heapreplace(heap, (root_length + spur[0], c, candidate))
            continue
        _, c, path = heappop(heap)
        key = tuple(path)
        if first.get(key) != c:
            continue  # found first by a search with a smaller counter
        del first[key]
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
                for e in node:  # edges leaving this root on an accepted path
                    ignore_edges[e] = 1
                bound = min(
                    (length + to_goal[w] for w, length, e in adj[path[i - 1]]
                     if not ignore_nodes[w] and not ignore_edges[e]),
                    default=inf,
                )
                if bound < inf:
                    # sum() as networkx calls it: CPython 3.12+ compensates float sums
                    root_length = sum([weight[e] for e in edges[: i - 1]])
                    heappush(heap, (root_length + bound - 1e-9, next(counter), path, i,
                                    node, len(node), root_length))
            ignore_nodes[path[i - 1]] = 1
            node = node[edges[i - 1]]
