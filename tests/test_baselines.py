"""Lazy baselines: full-graph LazySP, library LazySP, random floor."""

from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

from drdplan.baselines import (
    _lt,
    check_path,
    lazysp_graph,
    lazysp_set,
    random_policy,
    shortest_path_edges,
)
from drdplan.model import ExplicitGraph, Library, Path, path_is_connected
from drdplan.scenarios import build_grid_graph, build_path_library
from drdplan.traces import AllRegionsDead, Infeasible, RunTrace, Solved


def grid_and_library():
    graph = build_grid_graph(3, 3)
    paths, _ = build_path_library(graph, 12, 5, seed=0)
    return graph, paths


def lib(paths, graph):
    return Library.build([p.edge_ids for p in paths], graph.num_edges, graph.exact_length())


def test_exact_metric_comparisons():
    # The chain 0 - 1 - 2 with edge lengths 1 and sqrt(2).
    graph = ExplicitGraph(
        positions=np.zeros((3, 2)), endpoints=np.array([[0, 1], [1, 2]]),
        eval_cost=np.ones(2), length=np.array([1.0, np.sqrt(2.0)]), start=0, goal=2,
    )
    assert graph.exact_length() == ((1, 0), (0, 1))
    # 3 < 2*sqrt(2) < 3.0000001 territory: exact integer-pair comparison.
    assert _lt((0, 2), (3, 0))  # 2.828 < 3
    assert _lt((1, 1), (0, 2))  # 2.414 < 2.828
    assert not _lt((3, 0), (0, 2))
    # Equality is exact pair equality.
    assert Library.build([[0, 1, 0]], 2, graph.exact_length()).lengths[0] == (2, 1)
    assert Library.build([[1, 0, 1]], 2, graph.exact_length()).lengths[0] == (1, 2) != (2, 1)
    with pytest.raises(ValueError):
        replace(graph, length=np.array([1.0, 0.5])).exact_length()


def test_shortest_path_is_lexicographically_smallest():
    graph, _ = grid_and_library()
    usable = np.ones(graph.num_edges, dtype=bool)
    path = shortest_path_edges(graph, usable)
    assert path is not None
    length = graph.length[path].sum()
    assert abs(length - 2 * np.sqrt(2.0)) < 1e-12
    # Deterministic: repeated calls agree.
    assert path == shortest_path_edges(graph, usable)


def test_shortest_path_matches_networkx_on_random_masks():
    graph = build_grid_graph(6, 6)
    rng = np.random.default_rng(0)
    outcomes = {True: 0, False: 0}
    for _ in range(80):
        usable = rng.random(graph.num_edges) < rng.uniform(0.2, 0.9)
        g = nx.Graph()
        g.add_nodes_from(range(graph.num_vertices))
        for e in np.nonzero(usable)[0]:
            u, v = (int(x) for x in graph.endpoints[e])
            g.add_edge(u, v, weight=float(graph.length[e]))
        path = shortest_path_edges(graph, usable)
        connected = nx.has_path(g, graph.start, graph.goal)
        outcomes[connected] += 1
        assert (path is None) == (not connected)
        if connected:
            assert all(usable[e] for e in path)
            assert path_is_connected(graph, Path(tuple(path)))
            want = nx.shortest_path_length(g, graph.start, graph.goal, weight="weight")
            assert abs(graph.length[path].sum() - want) < 1e-9
    assert min(outcomes.values()) > 0  # both branches were exercised


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
    trace = lazysp_graph(graph, lambda e: 1)
    assert trace.terminal == Solved(None)
    assert [r[0] for r in trace.records] == optimal
    assert trace.path_edges == tuple(optimal)


def test_lazysp_graph_infeasible():
    graph, _ = grid_and_library()
    trace = lazysp_graph(graph, lambda e: 0)
    assert isinstance(trace.terminal, Infeasible)
    edges = [r[0] for r in trace.records]
    assert len(edges) == len(set(edges))  # never evaluates an edge twice


def test_lazysp_graph_detour():
    graph, _ = grid_and_library()
    usable = np.ones(graph.num_edges, dtype=bool)
    first = shortest_path_edges(graph, usable)[0]
    world = np.ones(graph.num_edges, dtype=np.uint8)
    world[first] = 0
    trace = lazysp_graph(graph, lambda e: int(world[e]))
    assert trace.terminal == Solved(None)
    assert trace.records[0] == (first, 0, 1.0)
    assert all(world[e] == 1 for e in trace.path_edges)


def test_lazysp_set_all_valid_uses_path_zero():
    graph, paths = grid_and_library()
    trace = lazysp_set(lib(paths, graph), graph, lambda e: 1)
    assert trace.terminal == Solved(0)
    assert [r[0] for r in trace.records] == list(paths[0].edge_ids)


def test_lazysp_set_moves_on_after_first_invalid():
    graph, paths = grid_and_library()
    dead = paths[0].edge_ids[0]
    world = np.ones(graph.num_edges, dtype=np.uint8)
    world[dead] = 0
    trace = lazysp_set(lib(paths, graph), graph, lambda e: int(world[e]))
    assert trace.records[0] == (dead, 0, 1.0)
    assert isinstance(trace.terminal, Solved) and trace.terminal.path_index != 0
    assert all(world[e] == 1 for e in trace.path_edges)


def test_lazysp_set_all_dead():
    graph, paths = grid_and_library()
    trace = lazysp_set(lib(paths, graph), graph, lambda e: 0)
    assert isinstance(trace.terminal, AllRegionsDead)
    evaluated = {e: o for e, o, _ in trace.records}
    for p in paths:
        assert any(evaluated.get(e) == 0 for e in p.edge_ids)


def test_random_policy_single_one_edge_path():
    graph = build_grid_graph(2, 2)
    # Edge 2 is the single diagonal start-goal edge.
    library = [Path((2,))]
    trace = random_policy(lib(library, graph), graph, lambda e: 1, seed=0)
    assert trace.terminal == Solved(0)
    assert len(trace.records) == 1 and trace.records[0][0] == 2


def test_random_policy_deterministic_per_seed():
    graph, paths = grid_and_library()
    rng = np.random.default_rng(4)
    world = rng.integers(0, 2, graph.num_edges).astype(np.uint8)
    t1 = random_policy(lib(paths, graph), graph, lambda e: int(world[e]), seed=5, world_index=3)
    t2 = random_policy(lib(paths, graph), graph, lambda e: int(world[e]), seed=5, world_index=3)
    assert t1.records == t2.records and t1.terminal == t2.terminal
    t3 = random_policy(lib(paths, graph), graph, lambda e: int(world[e]), seed=6, world_index=3)
    assert isinstance(t3.terminal, (Solved, AllRegionsDead))


def test_random_policy_terminates_soundly():
    graph, paths = grid_and_library()
    rng = np.random.default_rng(7)
    for i in range(10):
        world = rng.integers(0, 2, graph.num_edges).astype(np.uint8)
        trace = random_policy(lib(paths, graph), graph, lambda e: int(world[e]), seed=1, world_index=i)
        edges = [r[0] for r in trace.records]
        assert len(edges) == len(set(edges))
        if isinstance(trace.terminal, Solved):
            assert all(world[e] == 1 for e in trace.path_edges)
        else:
            evaluated = {e: o for e, o, _ in trace.records}
            for p in paths:
                assert any(evaluated.get(e) == 0 for e in p.edge_ids)
