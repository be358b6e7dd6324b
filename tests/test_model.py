"""Domain model: membership computation, validation, splitting."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drdplan.graph import SQRT2, path_is_connected
from drdplan.model import (
    Dataset,
    ExplicitGraph,
    Library,
    LibraryStatus,
    Path,
    compute_membership,
    split_dataset,
    validate_dataset,
)
from drdplan.scenarios import build_grid_graph, build_path_library


def small_dataset() -> Dataset:
    graph = build_grid_graph(3, 3)
    paths, _ = build_path_library(graph, 10, 4, seed=0)
    rng = np.random.default_rng(0)
    theta = rng.integers(0, 2, size=(12, graph.num_edges)).astype(np.uint8)
    ds = Dataset(
        graph=graph,
        theta=theta,
        paths=paths,
        membership=compute_membership(theta, paths),
    )
    return split_dataset(ds, 0.25, seed=0)


def test_membership_all_valid_world():
    theta = np.ones((1, 5), dtype=np.uint8)
    assert compute_membership(theta, [Path((0, 2, 4))])[0, 0] == 1


def test_membership_all_invalid_world():
    theta = np.zeros((1, 5), dtype=np.uint8)
    assert compute_membership(theta, [Path((1,))])[0, 0] == 0


def test_membership_and_over_edge_bits():
    theta = np.array([[1, 0, 1]], dtype=np.uint8)
    m = compute_membership(theta, [Path((0, 2)), Path((0, 1))])
    assert m.tolist() == [[1, 0]]


def test_membership_edge_out_of_range():
    theta = np.ones((1, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        compute_membership(theta, [Path((0, 7))])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_membership_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n, e = int(rng.integers(1, 20)), int(rng.integers(1, 15))
    theta = rng.integers(0, 2, size=(n, e)).astype(np.uint8)
    paths = []
    for _ in range(int(rng.integers(1, 5))):
        size = int(rng.integers(1, e + 1))
        paths.append(Path(tuple(rng.choice(e, size=size, replace=False).tolist())))
    got = compute_membership(theta, paths)
    for h in range(n):
        for r, p in enumerate(paths):
            expect = all(theta[h, edge] == 1 for edge in p.edge_ids)
            assert got[h, r] == int(expect)


def test_path_is_connected():
    graph = build_grid_graph(3, 3)
    paths, _ = build_path_library(graph, 5, 2, seed=0)
    for p in paths:
        assert path_is_connected(graph, p)
    assert not path_is_connected(graph, Path(()))
    # Repeated edge is rejected.
    e = paths[0].edge_ids[0]
    assert not path_is_connected(graph, Path((e, e)))


def test_validate_clean_dataset():
    assert validate_dataset(small_dataset()) == []


def test_validate_catches_disconnected_path():
    ds = small_dataset()
    ds.paths[0] = Path((0, 0))  # repeated edge cannot chain start -> goal
    ds.membership = compute_membership(ds.theta, ds.paths)
    violations = validate_dataset(ds)
    assert any("path 0" in v for v in violations)


def _routes_dataset(paths, length=None):
    """Four routes from vertex 0 to vertex 1: A of three unit edges (3), B
    of two diagonals (2*sqrt(2)), and X and Y of one unit edge and three
    diagonals in opposite orders (1 + 3*sqrt(2) each, though their float
    sums differ in the last bit).  paths name routes by letter or give
    edge ids."""
    hops = {"A": [1, 1, 1], "B": [SQRT2] * 2, "X": [1] + [SQRT2] * 3, "Y": [SQRT2] * 3 + [1]}
    endpoints, lengths, routes, v = [], [], {}, 2
    for name, steps in hops.items():
        stops = [0, *range(v, v + len(steps) - 1), 1]
        v += len(steps) - 1
        routes[name] = tuple(range(len(endpoints), len(endpoints) + len(steps)))
        endpoints += zip(stops, stops[1:])
        lengths += steps
    graph = ExplicitGraph(
        positions=np.zeros((v, 2)), endpoints=np.array(endpoints), eval_cost=np.ones(len(lengths)),
        length=np.array(lengths if length is None else length), start=0, goal=1,
    )
    assert sum(hops["X"]) != sum(hops["Y"])
    paths = [Path(routes[p] if isinstance(p, str) else p) for p in paths]
    return Dataset(graph, np.ones((2, len(lengths)), np.uint8), paths, None,
                   train=np.array([0]), test=np.array([1]))


def test_validate_checks_library_order_exactly():
    # Equal exact lengths pass in either order, float sums regardless.
    assert validate_dataset(_routes_dataset("BAXY")) == []
    assert validate_dataset(_routes_dataset("BAYX")) == []
    # 3 against 2*sqrt(2), decided exactly: a longer path first is reported.
    assert validate_dataset(_routes_dataset("ABXY")) == ["path 1 is shorter than path 0"]
    assert validate_dataset(_routes_dataset("BXAY")) == ["path 2 is shorter than path 1"]
    # A malformed path or a non-exact length reports only its own violation.
    assert validate_dataset(_routes_dataset(["A", "B", (0, 0)])) == [
        "path 2 is not a connected start-goal edge sequence"]
    assert validate_dataset(_routes_dataset(["A", "B", (99,)])) == [
        "path 2 references edge id out of range"]
    assert validate_dataset(_routes_dataset("AB", length=[0.5] * 13)) == [
        "edge length not an integer or an integer multiple of sqrt(2)"]


def _with_graph(ds, **fields):
    return replace(ds, graph=replace(ds.graph, **fields))


@pytest.mark.parametrize("edit, violation", [
    (lambda ds, g: _with_graph(ds, eval_cost=np.r_[0.0, g.eval_cost[1:]]),
     "eval_cost not finite and positive"),
    (lambda ds, g: _with_graph(ds, eval_cost=np.r_[-1.0, g.eval_cost[1:]]),
     "eval_cost not finite and positive"),
    (lambda ds, g: _with_graph(ds, length=np.r_[-1.0, g.length[1:]]), "negative edge length"),
    (lambda ds, g: _with_graph(ds, goal=g.start), "start equals goal"),
    (lambda ds, g: _with_graph(ds, endpoints=np.r_[g.endpoints[:1], g.endpoints[:1, ::-1],
                                                  g.endpoints[2:]]),
     "duplicate edge between vertices 0 and 1"),
    (lambda ds, g: replace(ds, theta=np.c_[ds.theta, ds.theta[:, :1]]),
     "world matrix has 21 columns, expected 20"),
], ids=["eval-cost-zero", "eval-cost-negative", "length-negative", "goal-start",
        "edge-duplicate", "theta-wide"])
def test_validate_reports_each_rule(edit, violation):
    # Each edit breaks one rule, whose violation is reported first (a path
    # through a moved goal or edge may be reported after it).
    ds = small_dataset()
    assert validate_dataset(edit(ds, ds.graph))[0] == violation


def test_validate_catches_broken_split():
    ds = small_dataset()
    ds.test = ds.train[:1].copy()
    violations = validate_dataset(ds)
    assert any("split" in v or "overlap" in v for v in violations)


ids = st.lists(st.integers(min_value=-5, max_value=12), max_size=8)


@settings(max_examples=200, deadline=None)
@given(ids, ids)
def test_overlap_violation_matches_intersect1d(train, test):
    # Any ids, negative and repeated ones included: the overlap message
    # appears exactly when numpy's set intersection is non-empty.
    ds = replace(small_dataset(), train=np.array(train, dtype=np.int64),
                 test=np.array(test, dtype=np.int64))
    overlap = "train and test splits overlap" in validate_dataset(ds)
    assert overlap == bool(len(np.intersect1d(ds.train, ds.test)))


def test_split_sizes():
    ds = small_dataset()  # N = 12
    split_dataset(ds, 0.5, seed=1)
    assert len(ds.test) == 6 and len(ds.train) == 6
    assert len(np.intersect1d(ds.train, ds.test)) == 0
    together = np.sort(np.concatenate([ds.train, ds.test]))
    assert np.array_equal(together, np.arange(12))


def test_split_deterministic():
    a, b = small_dataset(), small_dataset()
    split_dataset(a, 0.25, seed=7)
    split_dataset(b, 0.25, seed=7)
    assert np.array_equal(a.train, b.train) and np.array_equal(a.test, b.test)
    split_dataset(b, 0.25, seed=8)
    assert not np.array_equal(a.test, b.test)


def test_split_rejects_bad_fraction():
    ds = small_dataset()
    with pytest.raises(ValueError):
        split_dataset(ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_dataset(ds, 1.0, seed=0)


def test_adjacency_is_built_once_in_edge_id_order():
    graph = build_grid_graph(4, 5)
    adj = graph.adjacency
    assert adj is graph.adjacency
    assert isinstance(adj, tuple) and all(isinstance(nbrs, tuple) for nbrs in adj)
    for nbrs in adj:
        ids = [e for _, e in nbrs]
        assert ids == sorted(ids)
    fresh = [[] for _ in range(graph.num_vertices)]
    for e, (u, v) in enumerate(graph.endpoints):
        fresh[int(u)].append((int(v), e))
        fresh[int(v)].append((int(u), e))
    assert [list(nbrs) for nbrs in adj] == fresh
    # A second graph with the same arrays builds its own, equal adjacency.
    again = build_grid_graph(4, 5)
    assert again.adjacency == adj and again.adjacency is not adj


def test_exact_length_is_built_once():
    graph = build_grid_graph(4, 5)
    pairs = graph.exact_length
    assert pairs is graph.exact_length
    assert isinstance(pairs, tuple) and len(pairs) == graph.num_edges
    for (a, b), w in zip(pairs, graph.length):
        assert (a, b) in ((1, 0), (0, 1))  # axis step or diagonal
        assert abs(a + b * SQRT2 - w) < 1e-12
    # A second graph with the same arrays builds its own, equal pairs.
    again = build_grid_graph(4, 5)
    assert again.exact_length == pairs and again.exact_length is not pairs
    half = replace(graph, length=np.full(graph.num_edges, 0.5))
    with pytest.raises(ValueError, match="sqrt"):
        half.exact_length


def _status_by_definition(regions, observed):
    """LibraryStatus written out per path over an {edge: outcome} dict."""
    proven = [r for r, p in enumerate(regions) if all(observed.get(e) == 1 for e in p)]
    live = [not any(observed.get(e) == 0 for e in p) for p in regions]
    open_edges = {e for p, ok in zip(regions, live) if ok for e in p if e not in observed}
    return (proven[0] if proven else None), live, sorted(open_edges)


def _summary(paths):
    return paths.solved, paths.live.tolist(), np.flatnonzero(paths.open).tolist()


def _fields(paths):
    return [paths.remaining.tolist(), paths.live.tolist(), paths.cover.tolist(), paths.open.tolist()]


def test_library_status_matches_per_path_definitions():
    # The hand cases: a solved library whose lowest proven path is not the
    # first, then a library that is alive and then dead.
    cases = [
        ([(2,), (0,), (0, 1)], {0: 1, 1: 1}, 3),
        ([(0,), (1, 2)], {0: 0}, 3),
        ([(0,), (1, 2)], {0: 0, 2: 0}, 3),
    ]
    rng = np.random.default_rng(4)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        regions = [
            tuple(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            for _ in range(int(rng.integers(1, 6)))
        ]
        seen = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        cases.append((regions, {int(e): int(rng.integers(2)) for e in seen}, n))

    kinds, first_solved = [], []
    for regions, observed, n in cases:
        library = Library.build(regions, n)
        status = np.zeros(n, dtype=np.int8)
        for e, o in observed.items():
            status[e] = 1 if o else -1
        paths = LibraryStatus(library, status)
        assert _summary(paths) == _status_by_definition(regions, observed)
        if paths.solved is None and paths.live.any():
            assert paths.open.any()  # the BISECT fallback always has an edge
        kinds.append("solved" if paths.solved is not None else "open" if paths.live.any() else "dead")
        first_solved.append(paths.solved)

        # The same status reached from all-unknown by observe() in a random
        # order: after every call, the per-path definitions hold and every
        # field equals the from-scratch status's.
        status[:] = 0
        walked, so_far = LibraryStatus(library, status), {}
        for e in rng.permutation(list(observed)).tolist():
            so_far[e] = observed[e]
            status[e] = 1 if observed[e] else -1
            walked.observe(e, observed[e])
            assert _summary(walked) == _status_by_definition(regions, so_far)
            assert _fields(walked) == _fields(LibraryStatus(library, status))
    assert kinds[:3] == ["solved", "open", "dead"] and first_solved[0] == 1
    assert min(kinds.count(k) for k in ("solved", "open", "dead")) > 20
