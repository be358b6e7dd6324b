"""Lazy baselines: full-graph LazySP, library LazySP, random floor."""

import numpy as np
import pytest

from drdplan.baselines import (
    _Metric,
    _lt,
    lazysp_graph,
    lazysp_set,
    random_policy,
    shortest_path_edges,
)
from drdplan.model import Path
from drdplan.scenarios import build_grid_graph, build_path_library
from drdplan.traces import AllRegionsDead, Infeasible, Solved


def grid_and_library():
    graph = build_grid_graph(3, 3)
    paths, _ = build_path_library(graph, 12, 5, seed=0)
    return graph, paths


def test_exact_metric_comparisons():
    m = _Metric(np.array([1.0, np.sqrt(2.0)]))
    assert m.w == [(1, 0), (0, 1)]
    # 3 < 2*sqrt(2) < 3.0000001 territory: exact integer-pair comparison.
    assert _lt((0, 2), (3, 0))  # 2.828 < 3
    assert _lt((1, 1), (0, 2))  # 2.414 < 2.828
    assert not _lt((3, 0), (0, 2))
    # Equality is exact pair equality.
    assert m.path_length([0, 1, 0]) == (2, 1)
    assert m.path_length([1, 0, 1]) == (1, 2) != (2, 1)
    with pytest.raises(ValueError):
        _Metric(np.array([1.0, 0.5]))


def test_shortest_path_is_lexicographically_smallest():
    graph, _ = grid_and_library()
    usable = np.ones(graph.num_edges, dtype=bool)
    path = shortest_path_edges(graph, usable)
    assert path is not None
    length = graph.length[path].sum()
    assert abs(length - 2 * np.sqrt(2.0)) < 1e-12
    # Deterministic: repeated calls agree.
    assert path == shortest_path_edges(graph, usable)


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
    trace = lazysp_set(paths, graph, lambda e: 1)
    assert trace.terminal == Solved(0)
    assert [r[0] for r in trace.records] == list(paths[0].edge_ids)


def test_lazysp_set_moves_on_after_first_invalid():
    graph, paths = grid_and_library()
    dead = paths[0].edge_ids[0]
    world = np.ones(graph.num_edges, dtype=np.uint8)
    world[dead] = 0
    trace = lazysp_set(paths, graph, lambda e: int(world[e]))
    assert trace.records[0] == (dead, 0, 1.0)
    assert isinstance(trace.terminal, Solved) and trace.terminal.path_index != 0
    assert all(world[e] == 1 for e in trace.path_edges)


def test_lazysp_set_all_dead():
    graph, paths = grid_and_library()
    trace = lazysp_set(paths, graph, lambda e: 0)
    assert isinstance(trace.terminal, AllRegionsDead)
    evaluated = {e: o for e, o, _ in trace.records}
    for p in paths:
        assert any(evaluated.get(e) == 0 for e in p.edge_ids)


def test_random_policy_single_one_edge_path():
    graph = build_grid_graph(2, 2)
    # Edge 2 is the single diagonal start-goal edge.
    library = [Path((2,))]
    trace = random_policy(library, graph, lambda e: 1, seed=0)
    assert trace.terminal == Solved(0)
    assert len(trace.records) == 1 and trace.records[0][0] == 2


def test_random_policy_deterministic_per_seed():
    graph, paths = grid_and_library()
    rng = np.random.default_rng(4)
    world = rng.integers(0, 2, graph.num_edges).astype(np.uint8)
    t1 = random_policy(paths, graph, lambda e: int(world[e]), seed=5, world_index=3)
    t2 = random_policy(paths, graph, lambda e: int(world[e]), seed=5, world_index=3)
    assert t1.records == t2.records and t1.terminal == t2.terminal
    t3 = random_policy(paths, graph, lambda e: int(world[e]), seed=6, world_index=3)
    assert isinstance(t3.terminal, (Solved, AllRegionsDead))


def test_random_policy_terminates_soundly():
    graph, paths = grid_and_library()
    rng = np.random.default_rng(7)
    for i in range(10):
        world = rng.integers(0, 2, graph.num_edges).astype(np.uint8)
        trace = random_policy(paths, graph, lambda e: int(world[e]), seed=1, world_index=i)
        edges = [r[0] for r in trace.records]
        assert len(edges) == len(set(edges))
        if isinstance(trace.terminal, Solved):
            assert all(world[e] == 1 for e in trace.path_edges)
        else:
            evaluated = {e: o for e, o, _ in trace.records}
            for p in paths:
                assert any(evaluated.get(e) == 0 for e in p.edge_ids)
