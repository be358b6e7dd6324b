"""Lazy baselines: full-graph LazySP, library LazySP, random floor."""

from collections import Counter
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

from drdplan import baselines
from drdplan.baselines import (
    check_path,
    lazysp_graph,
    lazysp_set,
    random_policy,
)
from drdplan.graph import _lt, path_is_connected, shortest_path_edges
from drdplan.model import ExplicitGraph, Library, Path
from drdplan.scenarios import build_grid_graph, build_path_library
from drdplan.traces import AllRegionsDead, Infeasible, RunTrace, Solved
from test_scenarios import _random_graph


def grid_and_library():
    graph = build_grid_graph(3, 3)
    paths, _ = build_path_library(graph, 12, 5, seed=0)
    return graph, paths


def lib(paths, graph):
    return Library.build([p.edge_ids for p in paths], graph.num_edges)


def fresh(graph, world_index=-1):
    """A new episode's trace and all-unknown edge status."""
    return RunTrace("test", world_index), np.zeros(graph.num_edges, dtype=np.int8)


def test_exact_metric_comparisons():
    # The chain 0 - 1 - 2 with edge lengths 1 and sqrt(2).
    graph = ExplicitGraph(
        positions=np.zeros((3, 2)), endpoints=np.array([[0, 1], [1, 2]]),
        eval_cost=np.ones(2), length=np.array([1.0, np.sqrt(2.0)]), start=0, goal=2,
    )
    assert graph.exact_length == ((1, 0), (0, 1))
    # 3 < 2*sqrt(2) < 3.0000001 territory: exact integer-pair comparison.
    assert _lt((0, 2), (3, 0))  # 2.828 < 3
    assert _lt((1, 1), (0, 2))  # 2.414 < 2.828
    assert not _lt((3, 0), (0, 2))
    with pytest.raises(ValueError):
        replace(graph, length=np.array([1.0, 0.5])).exact_length


def test_shortest_path_is_lexicographically_smallest():
    graph, _ = grid_and_library()
    usable = np.ones(graph.num_edges, dtype=bool)
    path = shortest_path_edges(graph, usable)
    assert path is not None
    length = graph.length[path].sum()
    assert abs(length - 2 * np.sqrt(2.0)) < 1e-12
    # Deterministic: repeated calls agree.
    assert path == shortest_path_edges(graph, usable)


def _reference_path(graph, usable):
    """The lowest-id tight edge at each vertex from the start, by networkx
    distances to the goal over the usable edges (1e-9 tolerance), or None
    when the start cannot reach the goal."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    for e in np.flatnonzero(usable):
        u, v = (int(x) for x in graph.endpoints[e])
        g.add_edge(u, v, weight=float(graph.length[e]))
    dist = nx.single_source_dijkstra_path_length(g, graph.goal, weight="weight")
    if graph.start not in dist:
        return None
    path, u = [], graph.start
    while u != graph.goal:
        for e in np.flatnonzero(usable & (graph.endpoints == u).any(axis=1)):
            v = int(graph.endpoints[e].sum()) - u
            if v in dist and abs(dist[v] + graph.length[e] - dist[u]) < 1e-9:
                break
        path.append(int(e))
        u = v
    return path


def _matches_reference_on_masks(graph, rng, masks):
    """Counts of connected (True) and disconnected (False) random masks."""
    outcomes = Counter()
    for _ in range(masks):
        usable = rng.random(graph.num_edges) < rng.uniform(0.2, 0.9)
        path = shortest_path_edges(graph, usable)
        assert path == _reference_path(graph, usable)
        outcomes[path is not None] += 1
        if path is not None:
            assert path_is_connected(graph, Path(tuple(path)))
    return outcomes


def test_shortest_path_matches_networkx_on_random_masks():
    # The whole edge list, so a wrong choice between tied paths shows; at
    # 11x11 and 21x21 some masks leave a tied vertex unsettled when the
    # re-plan's A* settles the start.
    for rows, cols in ((6, 6), (9, 5), (11, 11), (21, 21)):
        outcomes = _matches_reference_on_masks(
            build_grid_graph(rows, cols), np.random.default_rng(rows * cols), 80
        )
        assert outcomes[True] and outcomes[False]  # both branches were exercised


def test_shortest_path_matches_networkx_on_random_graphs():
    # Random simple graphs whose edge ids are not in grid order, some with
    # vertices out of the start's reach on every edge.
    outcomes = Counter()
    for seed in range(40):
        outcomes += _matches_reference_on_masks(_random_graph(seed), np.random.default_rng(seed), 20)
    assert outcomes[True] and outcomes[False]


def test_check_path_stops_at_known_or_first_invalid_edge():
    status = np.array([1, 0, -1, 0, 0], dtype=np.int8)  # edge 2 known invalid
    world = [1, 1, 0, 0, 1]
    asked = []

    def oracle(e):
        asked.append(e)
        return world[e]

    cost = np.arange(1.0, 6.0)
    trace = RunTrace(policy="check")
    # A known-invalid edge refutes the path before any evaluation, even one
    # listed after unknown edges (a solved leaf refuted by the tree's walk).
    assert not check_path((1, 4, 2), status, oracle, cost, trace)
    assert asked == [] and trace.records == []
    # Unknown edges are evaluated in path order up to the first invalid one.
    assert not check_path((4, 0, 3, 1), status, oracle, cost, trace)
    assert asked == [4, 3]
    assert trace.records == [(4, 1, 5.0), (3, 0, 4.0)]
    assert status.tolist() == [1, 0, -1, -1, 1]
    # A path of valid edges passes, evaluating only its unknown ones.
    assert check_path((0, 4, 1), status, oracle, cost, trace)
    assert asked == [4, 3, 1] and status.tolist() == [1, 1, -1, -1, 1]


def test_lazysp_graph_all_valid():
    graph, _ = grid_and_library()
    usable = np.ones(graph.num_edges, dtype=bool)
    optimal = shortest_path_edges(graph, usable)
    trace = lazysp_graph(graph, lambda e: 1, *fresh(graph))
    assert trace.terminal == Solved(None)
    assert [r[0] for r in trace.records] == optimal
    assert trace.path_edges == tuple(optimal)


def test_lazysp_graph_infeasible():
    graph, _ = grid_and_library()
    trace = lazysp_graph(graph, lambda e: 0, *fresh(graph))
    assert isinstance(trace.terminal, Infeasible)
    edges = [r[0] for r in trace.records]
    assert len(edges) == len(set(edges))  # never evaluates an edge twice


def test_lazysp_graph_detour():
    graph, _ = grid_and_library()
    usable = np.ones(graph.num_edges, dtype=bool)
    first = shortest_path_edges(graph, usable)[0]
    world = np.ones(graph.num_edges, dtype=np.uint8)
    world[first] = 0
    trace = lazysp_graph(graph, lambda e: int(world[e]), *fresh(graph))
    assert trace.terminal == Solved(None)
    assert trace.records[0] == (first, 0, 1.0)
    assert all(world[e] == 1 for e in trace.path_edges)


def test_lazysp_set_all_valid_uses_path_zero():
    graph, paths = grid_and_library()
    library = lib(paths, graph)
    trace = lazysp_set(library, graph, lambda e: 1, *fresh(graph))
    assert trace.terminal == Solved(0)
    assert [r[0] for r in trace.records] == list(paths[0].edge_ids)


def test_lazysp_set_moves_on_after_first_invalid():
    graph, paths = grid_and_library()
    dead = paths[0].edge_ids[0]
    world = np.ones(graph.num_edges, dtype=np.uint8)
    world[dead] = 0
    library = lib(paths, graph)
    trace = lazysp_set(library, graph, lambda e: int(world[e]), *fresh(graph))
    assert trace.records[0] == (dead, 0, 1.0)
    assert isinstance(trace.terminal, Solved) and trace.terminal.path_index != 0
    assert all(world[e] == 1 for e in trace.path_edges)


def test_lazysp_set_all_dead():
    graph, paths = grid_and_library()
    library = lib(paths, graph)
    trace = lazysp_set(library, graph, lambda e: 0, *fresh(graph))
    assert isinstance(trace.terminal, AllRegionsDead)
    evaluated = {e: o for e, o, _ in trace.records}
    for p in paths:
        assert any(evaluated.get(e) == 0 for e in p.edge_ids)


def test_random_policy_single_one_edge_path():
    graph = build_grid_graph(2, 2)
    # Edge 2 is the single diagonal start-goal edge.
    library = [Path((2,))]
    trace = random_policy(lib(library, graph), graph, 0, lambda e: 1, *fresh(graph))
    assert trace.terminal == Solved(0)
    assert len(trace.records) == 1 and trace.records[0][0] == 2


def test_random_policy_deterministic_per_seed():
    graph, paths = grid_and_library()
    rng = np.random.default_rng(4)
    world = rng.integers(0, 2, graph.num_edges).astype(np.uint8)
    oracle = lambda e: int(world[e])  # noqa: E731
    t1 = random_policy(lib(paths, graph), graph, 5, oracle, *fresh(graph, 3))
    t2 = random_policy(lib(paths, graph), graph, 5, oracle, *fresh(graph, 3))
    assert t1.records == t2.records and t1.terminal == t2.terminal
    t3 = random_policy(lib(paths, graph), graph, 6, oracle, *fresh(graph, 3))
    assert isinstance(t3.terminal, (Solved, AllRegionsDead))


def test_random_policy_terminates_soundly():
    graph, paths = grid_and_library()
    rng = np.random.default_rng(7)
    for i in range(10):
        world = rng.integers(0, 2, graph.num_edges).astype(np.uint8)
        trace = random_policy(lib(paths, graph), graph, 1, lambda e: int(world[e]), *fresh(graph, i))
        edges = [r[0] for r in trace.records]
        assert len(edges) == len(set(edges))
        if isinstance(trace.terminal, Solved):
            assert all(world[e] == 1 for e in trace.path_edges)
        else:
            evaluated = {e: o for e, o, _ in trace.records}
            for p in paths:
                assert any(evaluated.get(e) == 0 for e in p.edge_ids)


def test_random_policy_builds_one_status_per_episode(monkeypatch):
    # The status is built from scratch once, then kept current by observe()
    # at every evaluation; the episodes still end soundly.
    graph, paths = grid_and_library()
    built = []

    class Spy(baselines.LibraryStatus):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(baselines, "LibraryStatus", Spy)
    rng = np.random.default_rng(8)
    steps = 0
    for i in range(10):
        world = rng.integers(0, 2, graph.num_edges).astype(np.uint8)
        trace = random_policy(lib(paths, graph), graph, 1, lambda e: int(world[e]), *fresh(graph, i))
        assert len(built) == i + 1
        steps += len(trace.records)
        if isinstance(trace.terminal, Solved):
            assert all(world[e] == 1 for e in trace.path_edges)
    assert steps > 2 * len(built)


def lazysp_set_rebuilding(library, graph, oracle, trace, status):
    """Reference: lazysp_set with a status built from scratch before each
    candidate."""
    w = graph.exact_length
    lengths = [(sum(w[e][0] for e in p), sum(w[e][1] for e in p)) for p in library.paths]
    while True:
        live = baselines.LibraryStatus(library, status).live
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


def test_lazysp_set_builds_one_status_per_episode(monkeypatch):
    # The status is built once per episode, and its live mask then loses
    # the paths through each invalid edge a refuted check found; the traces
    # are those of a status rebuilt before every candidate.
    graph = build_grid_graph(5, 5)
    paths, _ = build_path_library(graph, 80, 30, seed=2)
    library = lib(paths, graph)
    rng = np.random.default_rng(9)
    worlds = (rng.random((40, graph.num_edges)) < 0.85).astype(np.uint8)
    want = [lazysp_set_rebuilding(library, graph, lambda e, w=w: int(w[e]), *fresh(graph))
            for w in worlds]
    built = []

    class Spy(baselines.LibraryStatus):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(baselines, "LibraryStatus", Spy)
    got = [lazysp_set(library, graph, lambda e, w=w: int(w[e]), *fresh(graph))
           for w in worlds]
    assert len(built) == len(worlds)
    assert [t.records for t in got] == [t.records for t in want]
    assert [t.terminal for t in got] == [t.terminal for t in want]
    assert sum(len(t.records) for t in got) > 3 * len(worlds)
    assert len({t.terminal for t in got}) > 3
