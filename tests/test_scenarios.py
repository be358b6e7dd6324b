"""Scenario generation: grids, obstacle worlds, path libraries, datasets.

networkx is the test-only reference for the k-shortest-path library."""

import hashlib
from itertools import islice

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import drdplan.graph
from drdplan import scenarios
from drdplan.graph import SQRT2
from drdplan.model import Path, validate_dataset
from drdplan.scenarios import (
    KINDS,
    LibraryTruncated,
    ScenarioSpec,
    build_grid_graph,
    build_path_library,
    generate_dataset,
)
from drdplan.geometry import (
    SCALE, cell_boxes, disc_cells, edge_segments, segments_hit_disc, segments_hit_wall,
)
from drdplan.io import dataset_to_bytes
from drdplan.rng import STREAM_WORLDS, substream


def test_grid_2x2_counts():
    g = build_grid_graph(2, 2)
    assert g.num_vertices == 4
    assert g.num_edges == 6  # 4 axis + 2 diagonal


def test_grid_3x3_counts():
    g = build_grid_graph(3, 3)
    assert g.num_vertices == 9
    assert g.num_edges == 20  # 12 axis + 8 diagonal


def test_grid_edge_lengths_and_costs():
    g = build_grid_graph(4, 6)
    for w in g.length:
        assert abs(w - 1.0) < 1e-12 or abs(w - SQRT2) < 1e-12
    assert np.all(g.eval_cost == 1.0)
    assert g.start == 0 and g.goal == g.num_vertices - 1


def test_grid_no_duplicate_edges():
    g = build_grid_graph(3, 4)
    pairs = {tuple(sorted(map(int, uv))) for uv in g.endpoints}
    assert len(pairs) == g.num_edges


def test_library_k_equals_m_equals_1():
    g = build_grid_graph(3, 3)
    paths, truncated = build_path_library(g, 1, 1, seed=0)
    assert not truncated and len(paths) == 1
    # The single shortest path is the pure diagonal, length 2*sqrt(2).
    assert abs(g.length[list(paths[0].edge_ids)].sum() - 2 * SQRT2) < 1e-12


def test_library_2x2_shortest_lengths():
    g = build_grid_graph(2, 2)
    paths, truncated = build_path_library(g, 3, 3, seed=0)
    assert not truncated
    lengths = [g.length[list(p.edge_ids)].sum() for p in paths]
    assert abs(lengths[0] - SQRT2) < 1e-12
    assert abs(lengths[1] - 2.0) < 1e-12 and abs(lengths[2] - 2.0) < 1e-12


def test_library_lengths_nondecreasing_and_optimal():
    g = build_grid_graph(5, 5)
    paths, _ = build_path_library(g, 40, 12, seed=2)
    lengths = [float(g.length[list(p.edge_ids)].sum()) for p in paths]
    assert lengths == sorted(lengths)
    # Independent shortest-path check of the first entry.
    G = nx.Graph()
    for e, (u, v) in enumerate(g.endpoints):
        G.add_edge(int(u), int(v), weight=float(g.length[e]))
    opt = nx.shortest_path_length(G, g.start, g.goal, weight="weight")
    assert abs(lengths[0] - opt) < 1e-9
    # Distinct edge sequences connecting start to goal.
    assert len({p.edge_ids for p in paths}) == len(paths)


def test_library_truncation_warns():
    g = build_grid_graph(2, 2)  # only 5 distinct simple start-goal paths
    with pytest.warns(LibraryTruncated):
        paths, truncated = build_path_library(g, 10, 6, seed=0)
    assert truncated and len(paths) == 5


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        ScenarioSpec(kind="maze", rows=11, cols=11).validate()
    with pytest.raises(ValueError):
        ScenarioSpec(kind="forest", rows=4, cols=11).validate()
    with pytest.raises(ValueError):
        ScenarioSpec(kind="onewall", rows=11, cols=11, gap_width=0).validate()
    with pytest.raises(ValueError):
        ScenarioSpec(
            kind="twowall", rows=11, cols=11, wall_row_lo=5, wall_row_hi=5
        ).validate()
    for kind in KINDS:
        ScenarioSpec(kind=kind, rows=11, cols=11).validate()


def test_forest_zero_discs_all_valid():
    spec = ScenarioSpec(kind="forest", rows=5, cols=5, seed=0, n_discs=0)
    ds = generate_dataset(spec, 10, 10, 4, test_fraction=0.2)
    assert np.all(ds.theta == 1)
    assert ds.provenance["train_coverage"] == 1.0


def test_onewall_blocks_outside_gap():
    # Pin the wall row and gap column so the sampled world is deterministic.
    spec = ScenarioSpec(
        kind="onewall", rows=7, cols=7, seed=1,
        wall_row_lo=3, wall_row_hi=3, gap_col_lo=2, gap_col_hi=2, gap_width=3,
    )
    ds = generate_dataset(spec, 10, 10, 4, test_fraction=0.2)
    g = ds.graph
    world = ds.theta[0]
    for e, (u, v) in enumerate(g.endpoints):
        r1, c1 = divmod(int(u), 7)
        r2, c2 = divmod(int(v), 7)
        crosses = min(r1, r2) <= 3 <= max(r1, r2)
        if not crosses:
            continue
        # Vertical edges through the wall: blocked iff outside gap cols 2-4.
        if c1 == c2 and r1 != r2:
            assert world[e] == (1 if 2 <= c1 <= 4 else 0)


def _per_world_theta(spec, n_worlds, seed, segments):
    """Each world's validity bits from one scalar predicate call per
    obstacle, on the world's own substream."""
    theta = np.ones((n_worlds, len(segments)), dtype=np.uint8)
    counts = set()
    boxes = cell_boxes(segments)
    for i in range(n_worlds):
        obstacles = scenarios._sample_obstacles(spec, substream(seed, STREAM_WORLDS, i))
        counts.add(len(obstacles["walls"]))
        for hit, shapes, params in ((segments_hit_disc, segments, obstacles["discs"]),
                                    (segments_hit_wall, boxes, obstacles["walls"])):
            for p in params:
                theta[i][hit(shapes, *p)] = 0
    return theta, counts


@pytest.mark.parametrize("spec", [
    ScenarioSpec(kind="forest", rows=7, cols=7, seed=3, n_discs=4, disc_radius=0.9),
    # Gap columns 0..4 of a 7-wide grid: a gap at either border leaves one
    # wall piece, so the worlds of a block have different wall counts.
    ScenarioSpec(kind="onewall", rows=7, cols=7, seed=3, gap_col_lo=0, gap_col_hi=4),
    ScenarioSpec(kind="twowall", rows=7, cols=7, seed=3),
    ScenarioSpec(kind="baffle", rows=7, cols=7, seed=3),
    # Wider than tall, with discs that reach across cells two lattice steps
    # wide: 115 candidates per disc against 173 edges.
    ScenarioSpec(kind="forest", rows=6, cols=9, seed=3, n_discs=3, disc_radius=1.6),
], ids=[*KINDS, "forest-6x9"])
@pytest.mark.parametrize("block_elements", [None, 2_000])
def test_blocked_sampling_equals_per_world_calls(monkeypatch, spec, block_elements):
    if block_elements is not None:  # blocks of 2-3 wall worlds, 7-16 disc worlds
        monkeypatch.setattr(scenarios, "_BLOCK_ELEMENTS", block_elements)
    n_worlds = 61  # a multiple of no block size above
    ds = generate_dataset(spec, n_worlds, 20, 6, test_fraction=0.2)
    g = ds.graph
    want, counts = _per_world_theta(spec, n_worlds, spec.seed, edge_segments(g.positions, g.endpoints))
    assert np.array_equal(ds.theta, want)
    assert (want == 0).any() and (want == 1).any()
    if spec.kind in ("onewall", "twowall"):
        assert len(counts) > 1


@st.composite
def disc_worlds(draw):
    """A grid of 2-9 rows and columns, one radius from 1 to (rows + cols) S,
    and 1-4 worlds of 1-3 discs whose centres are often on cell borders or
    at the grid's far edges.  A radius that is a multiple of S puts a grown
    box's edge on a cell border, where a disc centred there touches."""
    rows, cols = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    r = draw(st.one_of(st.integers(1, SCALE), st.integers(1, (rows + cols) * SCALE),
                       st.integers(1, rows + cols).map(lambda k: k * SCALE)))

    def coord(n):
        return st.one_of(st.integers(0, n - 1).map(lambda i: i * SCALE),
                         st.integers(0, (n - 1) * SCALE))

    centre = st.tuples(coord(cols), coord(rows), st.just(r))
    n = draw(st.integers(1, 3))
    worlds = draw(st.lists(st.lists(centre, min_size=n, max_size=n), min_size=1, max_size=4))
    return rows, cols, r, worlds


@settings(max_examples=300, deadline=None)
@given(disc_worlds())
def test_disc_cells_sampling_equals_all_edge_test(world_discs):
    # sample_world through the candidate table marks exactly the edges that
    # the all-edge predicate finds for some disc of the world.
    rows, cols, r, worlds = world_discs
    g = build_grid_graph(rows, cols)
    segments = edge_segments(g.positions, g.endpoints)
    cells = disc_cells(segments, rows, cols, r)
    if r == (rows + cols) * SCALE:
        assert cells.shape[1] == g.num_edges
    spec = ScenarioSpec(kind="forest", rows=rows, cols=cols, n_discs=len(worlds[0]))
    with pytest.MonkeyPatch.context() as mp:  # each world's generator is its discs
        mp.setattr(scenarios, "_sample_obstacles", lambda spec, discs: {"discs": discs, "walls": []})
        got = scenarios.sample_world(spec, worlds, segments, cell_boxes(segments), cells)
    want = [~np.any([segments_hit_disc(segments, *d) for d in discs], axis=0) for discs in worlds]
    assert np.array_equal(got, np.array(want, dtype=np.uint8))


@pytest.mark.parametrize("radius", [62, 0.7])
def test_disc_cells_table_is_linear_in_edges(radius):
    # Cells at least as wide as the disc radius keep the table linear in |E|
    # at any radius: at radius 62 a disc spans the whole 31x31 grid, and one
    # cell holds every edge.
    g = build_grid_graph(31, 31)
    cells = disc_cells(edge_segments(g.positions, g.endpoints), 31, 31, round(radius * SCALE))
    assert cells.size <= 32 * g.num_edges


def test_dataset_validates_for_all_kinds():
    for kind in KINDS:
        spec = ScenarioSpec(kind=kind, rows=7, cols=7, seed=2)
        ds = generate_dataset(spec, 12, 20, 6, test_fraction=0.25)
        assert validate_dataset(ds) == [], kind


def test_dataset_deterministic_bytes():
    spec = ScenarioSpec(kind="twowall", rows=7, cols=7, seed=9)
    a = generate_dataset(spec, 15, 20, 6, test_fraction=0.2)
    b = generate_dataset(ScenarioSpec(kind="twowall", rows=7, cols=7, seed=9),
                         15, 20, 6, test_fraction=0.2)
    assert dataset_to_bytes(a) == dataset_to_bytes(b)
    c = generate_dataset(ScenarioSpec(kind="twowall", rows=7, cols=7, seed=10),
                         15, 20, 6, test_fraction=0.2)
    assert dataset_to_bytes(a) != dataset_to_bytes(c)


def test_dataset_provenance_fields():
    spec = ScenarioSpec(kind="baffle", rows=7, cols=7, seed=4)
    ds = generate_dataset(spec, 10, 15, 5, test_fraction=0.2)
    prov = ds.provenance
    assert prov["scenario"]["kind"] == "baffle"
    assert prov["seed"] == 4
    assert prov["n_worlds"] == 10
    assert 0.0 <= prov["train_coverage"] <= 1.0
    assert "streams" in prov


# sha256 of generate_dataset(ScenarioSpec(kind, 7, 7, seed=11), 40, 60, 12,
# test_fraction=0.25) bytes, pinned before the obstacle tests were broadcast
# and re-pinned at dataset schema 2: the schema-1 bytes without the
# membership line, n_paths and the scenario's connectivity.
DATASET_SHA256 = {
    "forest": "5750f7a4a73073ec546a63d851bc746b0e3082ea6542c67adf121933de8c6809",
    "onewall": "213562a2aab136b9efe59dc4728bec332dc443b37514c82014b856c69e015761",
    "twowall": "7cc7d52fbd0cfc500419099cced0368d884c5ebd51ba6e91553c22f65154cd9f",
    "baffle": "345088b58cd88d9f655d61c1a21ef6dabaf99c800fdf343549d2cc4f456eb9ba",
}


@pytest.mark.parametrize("kind", KINDS)
def test_dataset_bytes_pinned(kind):
    ds = generate_dataset(ScenarioSpec(kind=kind, rows=7, cols=7, seed=11), 40, 60, 12,
                          test_fraction=0.25)
    assert hashlib.sha256(dataset_to_bytes(ds)).hexdigest() == DATASET_SHA256[kind]


def test_too_few_worlds_rejected():
    spec = ScenarioSpec(kind="forest", rows=5, cols=5)
    with pytest.raises(ValueError):
        generate_dataset(spec, 5, 10, 4)


def _nx_graph(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.num_vertices))
    for e, (u, v) in enumerate(g.endpoints):
        G.add_edge(int(u), int(v), weight=float(g.length[e]))
    return G


def _nx_paths(g, k):
    """The first k paths of weighted nx.shortest_simple_paths, repeats kept."""
    paths = nx.shortest_simple_paths(_nx_graph(g), g.start, g.goal, weight="weight")
    return list(islice(paths, k))


def _port_paths(g, k):
    edge_id = {}
    for e, (u, v) in enumerate(g.endpoints.tolist()):
        edge_id[u, v] = edge_id[v, u] = e
    return list(drdplan.graph.shortest_simple_paths(g, edge_id, k))


@pytest.fixture(scope="module")
def nx_paths_11x11():
    """The acceptance-criteria library input: 11x11, k=2000 (one nx run)."""
    return _nx_paths(build_grid_graph(11, 11), 2000)


@pytest.mark.parametrize(
    "rows,cols,k", [(2, 2, 10), (3, 3, 300), (4, 4, 400), (5, 9, 300), (6, 6, 60)]
)
def test_yen_port_matches_networkx(rows, cols, k):
    g = build_grid_graph(rows, cols)
    want = _nx_paths(g, k)
    assert _port_paths(g, k) == want
    if (rows, cols) in ((2, 2), (3, 3)):
        assert len(want) < k  # every simple path, then exhausted


def test_yen_port_matches_networkx_11x11_k2000(nx_paths_11x11):
    assert _port_paths(build_grid_graph(11, 11), 2000) == nx_paths_11x11


@pytest.mark.parametrize("k", [1, 2, 100, 200, 1000, 1999])
def test_yen_port_matches_networkx_11x11_prefix(nx_paths_11x11, k):
    # Which spur searches the port runs depends on k, so each k is its own
    # run; networkx's first k paths are a prefix of its first 2000.
    assert _port_paths(build_grid_graph(11, 11), k) == nx_paths_11x11[:k]


def test_yen_port_matches_networkx_21x21_k200():
    # The 21x21 workloads' library input, where deferral runs 295 of the
    # 1,955 spur searches the pending rule leaves (see below); smaller k
    # defer differently, and networkx's first k paths are a prefix.
    g = build_grid_graph(21, 21)
    want = _nx_paths(g, 200)
    for k in (1, 37, 199, 200):
        assert _port_paths(g, k) == want[:k]


@pytest.mark.parametrize("seed", [42, 5, 7])
def test_library_matches_networkx_library(nx_paths_11x11, monkeypatch, seed):
    # The library as the acceptance tests build it (11x11, k=2000, m=100),
    # with the port and with networkx's paths fed to the same subsampling.
    g = build_grid_graph(11, 11)
    ported = build_path_library(g, 2000, 100, seed)
    monkeypatch.setattr(scenarios, "shortest_simple_paths", lambda *a: iter(nx_paths_11x11))
    assert build_path_library(g, 2000, 100, seed) == ported
    assert all(isinstance(p, Path) for p in ported[0])


def test_library_disconnected_raises():
    g = build_grid_graph(3, 3)
    cut = [e for e, (u, v) in enumerate(g.endpoints) if g.start in (u, v)]
    keep = np.setdiff1d(np.arange(g.num_edges), cut)
    g = scenarios.ExplicitGraph(
        positions=g.positions, endpoints=g.endpoints[keep], eval_cost=g.eval_cost[keep],
        length=g.length[keep], start=g.start, goal=g.goal,
    )
    with pytest.raises(ValueError, match="start and goal are not connected"):
        build_path_library(g, 5, 2, seed=0)


def _random_graph(seed):
    """A connected simple graph on 4-11 vertices, edges in random order with
    lengths 1 and sqrt(2), start 0 and goal n - 1: ties everywhere."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        keep = [pairs[i] for i in rng.permutation(len(pairs)) if rng.random() < 0.45]
        G = nx.Graph(keep)
        if G.has_node(0) and G.has_node(n - 1) and nx.has_path(G, 0, n - 1):
            break
    flip = rng.random(len(keep)) < 0.5
    endpoints = np.array([(v, u) if f else (u, v) for (u, v), f in zip(keep, flip)])
    return scenarios.ExplicitGraph(
        positions=np.zeros((n, 2)), endpoints=endpoints,
        eval_cost=np.ones(len(keep)), length=np.where(rng.random(len(keep)) < 0.5, 1.0, SQRT2),
        start=0, goal=n - 1,
    )


@pytest.mark.parametrize("seed", range(60))
def test_yen_port_matches_networkx_on_random_graphs(seed):
    g = _random_graph(seed)
    want = _nx_paths(g, 150)
    for k in (1, 2, 3, 5, 10, 40, 149, 150):
        assert _port_paths(g, k) == want[:k]


def test_random_graphs_cut_and_exhausted():
    # k cuts some of the graphs above; others have fewer simple paths than k.
    sizes = [len(_nx_paths(_random_graph(s), 150)) for s in range(60)]
    assert 10 <= sizes.count(150) <= 50


def _spur_searches(monkeypatch, rows, k):
    calls = []
    search = drdplan.graph._bidirectional_dijkstra
    monkeypatch.setattr(
        drdplan.graph, "_bidirectional_dijkstra", lambda *a: calls.append(1) or search(*a)
    )
    _port_paths(build_grid_graph(rows, rows), k)
    return len(calls)


def test_spur_searches_skipped_while_candidate_pending(monkeypatch):
    # Of networkx's 23,877 searches at 11x11, k=2000, the pending rule drops
    # those that would find a pending path (9,166 are left), and deferral
    # those whose entry never reaches the heap top before the k-th path is
    # yielded.  The tests above pin the paths; this pins how many searches
    # it takes to find them.
    assert _spur_searches(monkeypatch, 11, 2000) == 2832


def test_spur_searches_deferred_21x21_k200(monkeypatch):
    # 1,955 searches are left by the pending rule; deferral runs 295 of them.
    assert _spur_searches(monkeypatch, 21, 200) == 295
