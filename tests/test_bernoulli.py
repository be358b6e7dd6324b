"""Closed-form Bernoulli engine and its enumeration-oracle equivalence."""

import numpy as np
import pytest

from drdplan import bernoulli, ec2
from drdplan.bernoulli import (
    bisect_policy,
    region_posterior,
    region_weights_bernoulli,
    select_test_bernoulli,
)
from drdplan.model import Library, LibraryStatus, regions_matrix
from drdplan.traces import AllRegionsDead, RunTrace, Solved

from conftest import enumerate_worlds, enumeration_problem, random_regions, root_status


# --- beliefs ---------------------------------------------------------------

def unknown(n_edges):
    """An all-unknown edge status."""
    return np.zeros(n_edges, dtype=np.int8)


def theta_row(beta, status):
    """A belief's edge probabilities: beta at the unknown edges of status,
    the outcome at the rest."""
    return np.where(status == 0, beta, status > 0)


# Each one-row entry point, called on a belief (beta, status) over a library.
ENTRY_POINTS = (
    region_weights_bernoulli,
    lambda beta, status, library: select_test_bernoulli(
        beta, status, library, np.ones(library.num_edges), [0]),
    lambda beta, status, library: bisect_policy(
        beta, status, library, np.ones(library.num_edges), lambda e: 1, RunTrace("bisect")),
)


def test_belief_rejects_degenerate_bias():
    # Every one-row entry point checks the bias, strictly inside (0, 1),
    # and that bias, status and library agree on |E|.
    library = Library.build([(0, 1)], 2)
    for call in ENTRY_POINTS:
        for bad in (0.0, 1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="strictly"):
                call(np.array([0.5, bad]), unknown(2), library)
        for beta, status in ((np.full(3, 0.5), unknown(2)), (np.full(2, 0.5), unknown(3)),
                             (np.full(3, 0.5), unknown(3))):
            with pytest.raises(ValueError, match="number of edges"):
                call(beta, status, library)
        call(np.full(2, 0.5), unknown(2), library)  # the control


def test_weight_scales_by_observation_mass():
    # A valid outcome on an edge of bias 0.3: the weight is the squared
    # mass 0.3^2 times the conditional weight of the row that reads the
    # edge as valid.
    beta, status = np.array([0.3, 0.7]), np.array([1, 0], dtype=np.int8)
    library = Library.build([(0, 1), (1,)], 2)
    conditional = ec2.conditional_weight(*region_posterior(np.array([[1.0, 0.7]]), every_path(library), library))
    assert conditional.all()
    got = region_weights_bernoulli(beta, status, library)
    assert got.tobytes() == (0.3 * 0.3 * conditional).tobytes()


def test_regions_matrix_rejects_empty_region():
    with pytest.raises(ValueError):
        regions_matrix([()], 3)


# --- weights ---------------------------------------------------------------

def test_weight_three_edge_hand_check():
    # 3 edges all theta = 0.5, region covering edges {0, 1}, nothing observed.
    beta = np.array([0.5, 0.5, 0.5])
    assert region_weights_bernoulli(beta, unknown(3), Library.build([(0, 1)], 3))[0] == 0.421875


def test_weight_zero_when_region_proven():
    beta, status = np.array([0.5, 0.5, 0.5]), np.ones(3, dtype=np.int8)
    assert region_weights_bernoulli(beta, status, Library.build([(0, 1)], 3))[0] == 0.0


def test_weight_vanishes_as_region_absorbs_mass():
    w = region_weights_bernoulli(np.array([1.0 - 1e-8]), unknown(1), Library.build([(0,)], 1))[0]
    assert 0.0 <= w < 1e-7


def test_weight_matches_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(20):
        e = int(rng.integers(2, 9))
        beta = rng.uniform(0.2, 0.8, e)
        regions = random_regions(rng, e, int(rng.integers(1, 4)))
        prob = enumeration_problem(beta, regions)
        status = unknown(e)
        library = Library.build(regions, e)
        # Root weights agree.
        got = region_weights_bernoulli(beta, status, library)
        assert np.allclose(got, ec2.region_weights(root_status(prob), prob), atol=1e-12, rtol=0)
        # And after a couple of observations.
        for _ in range(2):
            edge = int(rng.integers(e))
            if status[edge] != 0:
                continue
            outcome = int(rng.integers(2))
            status = ec2.observe(status, edge, outcome)
        got = region_weights_bernoulli(beta, status, library)
        want = ec2.region_weights(status, prob)
        assert np.allclose(got, want, atol=1e-12, rtol=0)


def every_path(library):
    """Every path of one row, as region_posterior's (row, path) pairs."""
    m = library.index.shape[0]
    return np.zeros(m, dtype=np.intp), np.arange(m)


def conditional_weights(beta, status, library):
    """Every region's weight with the squared observation mass divided out."""
    return ec2.conditional_weight(*region_posterior(theta_row(beta, status)[None], every_path(library), library))


def test_region_with_weight_had_weight_at_entry():
    # BISECT reads no root weight: after any observations, a region whose
    # conditional weight is positive had a positive one when the episode
    # entered, so masking by the entry weights would change nothing.
    rng = np.random.default_rng(61)
    nodes = 0
    for _ in range(300):
        n_edges = int(rng.integers(1, 40))
        library = Library.build(random_regions(rng, n_edges, int(rng.integers(1, 20))), n_edges)
        beta, status = rng.uniform(0.01, 0.99, n_edges), unknown(n_edges)
        for e in rng.choice(n_edges, size=int(rng.integers(0, n_edges)), replace=False):
            status = ec2.observe(status, int(e), int(rng.random() < 0.8))
        at_entry = conditional_weights(beta, status, library) > 0
        for e in rng.permutation(np.flatnonzero(status == 0)).tolist():
            status = ec2.observe(status, e, int(rng.random() < 0.8))
            assert not (conditional_weights(beta, status, library) > 0)[~at_entry].any()
            nodes += 1
    assert nodes > 1000


# --- selection -------------------------------------------------------------

def test_on_path_edge_beats_off_path():
    # Single region {0, 1} with a third off-path edge; uniform theta.
    beta = np.array([0.5, 0.5, 0.5])
    regions = [(0, 1)]
    library = Library.build(regions, 3)
    sel = select_test_bernoulli(beta, unknown(3), library, np.ones(3), [0, 1, 2])
    assert sel is not None and sel[0] in (0, 1)
    # The enumeration engine agrees.
    prob = enumeration_problem(beta, regions)
    sel_e = ec2.select_test(root_status(prob), prob, [0, 1, 2])
    assert sel_e[0] == sel[0]
    assert abs(sel_e[1] - sel[1]) <= 1e-9


def test_off_path_candidates_score_nothing():
    beta = np.array([0.5, 0.5, 0.5])
    library = Library.build([(0,)], 3)
    assert select_test_bernoulli(beta, unknown(3), library, np.ones(3), [1, 2]) is None


def test_select_rejects_observed_candidates():
    beta, status = np.array([0.5, 0.5]), np.array([1, 0], dtype=np.int8)
    library = Library.build([(0, 1)], 2)
    with pytest.raises(ValueError, match="unobserved"):
        select_test_bernoulli(beta, status, library, np.ones(2), [0, 1])


def test_candidate_subset_scores_as_among_all_open_edges(monkeypatch):
    # A candidate's score reads its own sums only: a random subset of the
    # open edges scores bit for bit as those edges do among all of them
    # (select_test_bernoulli), and so does each row of a bisect_steps
    # block, whose rows share one key space.
    scored = []

    def spy(rows, cand, log_expected, cost, n_rows):
        scored.append((rows.copy(), cand.copy(), log_expected.copy()))
        return ec2.best_tests(rows, cand, log_expected, cost, n_rows)

    monkeypatch.setattr(bernoulli, "best_tests", spy)
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(60):
        n_edges = int(rng.integers(2, 40))
        library = Library.build(random_regions(rng, n_edges, int(rng.integers(1, 20))), n_edges)
        cost = rng.integers(1, 4, n_edges).astype(np.float64)
        beta = rng.uniform(0.01, 0.99, (4, n_edges))
        status = np.where(rng.random(beta.shape) < 0.3, np.where(rng.random(beta.shape) < 0.7, 1, -1), 0)
        status = status.astype(np.int8)
        rows_alone = []
        for b, s in zip(beta, status):
            paths = LibraryStatus(library, s)
            if paths.solved is not None or not paths.live.any():
                continue
            open_edges = np.flatnonzero(paths.open)
            scored.clear()
            select_test_bernoulli(b, s, library, cost, open_edges)
            (_, every, among_all), = scored
            rows_alone.append(among_all)
            if open_edges.size > 1:
                subset = np.sort(rng.choice(open_edges, int(rng.integers(1, open_edges.size)), replace=False))
                scored.clear()
                select_test_bernoulli(b, s, library, cost, subset)
                (_, cand, alone), = scored
                assert np.array_equal(cand, subset)
                assert alone.tobytes() == among_all[np.searchsorted(every, subset)].tobytes()
                checked += 1
        scored.clear()
        bernoulli.bisect_steps(beta, status, library, cost)
        if rows_alone:
            (rows, _, in_block), = scored
            for i, alone in enumerate(rows_alone):
                assert in_block[rows == i].tobytes() == alone.tobytes()
    assert checked > 100


# --- termination predicates ------------------------------------------------

def test_solved_region_lowest_index():
    status = np.array([1, 1, 0], dtype=np.int8)
    assert LibraryStatus(Library.build([(2,), (0,), (0, 1)], 3), status).solved == 1


def test_all_regions_dead_predicate():
    library = Library.build([(0,), (1, 2)], 3)
    status = np.array([-1, 0, 0], dtype=np.int8)
    assert LibraryStatus(library, status).live.any()
    status[2] = -1
    assert not LibraryStatus(library, status).live.any()


# --- bisect_policy ---------------------------------------------------------

def test_bisect_all_valid_single_region_evaluates_path_only():
    beta = np.full(5, 0.5)
    regions = [(1, 3)]
    trace = bisect_policy(beta, unknown(5), Library.build(regions, 5), np.ones(5), lambda e: 1, RunTrace("bisect"))
    assert trace.terminal == Solved(0)
    assert sorted(t[0] for t in trace.records) == [1, 3]


def test_bisect_dead_world_witnesses_every_region():
    beta = np.full(4, 0.5)
    regions = [(0, 1), (2,), (1, 3)]
    trace = bisect_policy(beta, unknown(4), Library.build(regions, 4), np.ones(4), lambda e: 0, RunTrace("bisect"))
    assert isinstance(trace.terminal, AllRegionsDead)
    evaluated = {e: o for e, o, _ in trace.records}
    for region in regions:
        assert any(evaluated.get(e) == 0 for e in region)


def test_bisect_exhaustive_termination_bound():
    rng = np.random.default_rng(21)
    for e in (3, 5, 8):
        beta = rng.uniform(0.2, 0.8, e)
        regions = random_regions(rng, e, min(3, e))
        worlds = enumerate_worlds(e)
        for world in worlds:
            status = unknown(e)
            trace = bisect_policy(
                beta, status, Library.build(regions, e), np.ones(e), lambda t: int(world[t]), RunTrace("bisect")
            )
            assert len(trace.records) <= e
            assert len({r[0] for r in trace.records}) == len(trace.records)
            assert isinstance(trace.terminal, (Solved, AllRegionsDead))
            if isinstance(trace.terminal, Solved):
                assert all(world[t] == 1 for t in regions[trace.terminal.path_index])
            else:
                assert all(
                    any(world[t] == 0 and status[t] != 0 for t in reg)
                    for reg in regions
                )


def test_shared_trie_walks_like_a_private_one(monkeypatch):
    # Every world of an exhaustive enumeration walks one trie.  Each trace
    # equals a private trie's, and once the trie is built a second pass
    # computes no step: bisect_steps never runs.
    rng = np.random.default_rng(29)
    for e in (3, 5, 8):
        beta = rng.uniform(0.2, 0.8, e)
        cost = rng.integers(1, 4, e).astype(np.float64)
        library = Library.build(random_regions(rng, e, min(4, e)), e)
        trie = {}
        worlds = enumerate_worlds(e)

        def run(world, memo=None):
            return bisect_policy(beta, unknown(e), library, cost,
                                 lambda t: int(world[t]), RunTrace("bisect"), memo)

        for world in worlds:
            assert run(world, trie) == run(world)
        with monkeypatch.context() as m:
            m.setattr(bernoulli, "bisect_steps", lambda *args: pytest.fail("a step was recomputed"))
            for world in worlds:
                run(world, trie)
        # Every node, the root included, is keyed by outcome alone.
        nodes = [trie]
        for node in nodes:
            assert "step" in node and set(node) <= {"step", 0, 1}
            nodes.extend(node[o] for o in (0, 1) if o in node)


def test_bisect_fallback_takes_first_open_edge(monkeypatch):
    # At an evaluation cost of 1e13 every score falls under SCORE_TOL, so
    # each step takes the fallback: the lowest-id unobserved edge of a
    # region with no observed-invalid edge.  picks holds what the greedy
    # step of bisect_steps chose at each step, -1 for nothing.
    picks = []

    def spy(*args, select=bernoulli._select):
        picks.append(select(*args))
        return picks[-1]

    monkeypatch.setattr(bernoulli, "_select", spy)
    world = [1, 0, 1, 1, 1]
    trace = bisect_policy(
        np.full(5, 0.5), unknown(5), Library.build([(0, 1), (2, 3), (1, 4)], 5),
        np.full(5, 1e13), lambda e: world[e], RunTrace("bisect"),
    )
    assert [r[0] for r in trace.records] == [0, 1, 2, 3]
    assert trace.terminal == Solved(1)
    assert trace.path_edges == (2, 3)
    assert [edge.tolist() for edge, _ in picks] == [[-1]] * 4


def test_bisect_extends_the_callers_trace_and_status():
    # A trace and status that already hold earlier evaluations, as after
    # the tree: bisect_policy appends to that same trace object, never
    # queries an edge the status already holds, and marks each outcome it
    # records in that same status array, not a copy, and nothing else
    # there (bench's episode reads the completion's evaluations from it).
    rng = np.random.default_rng(17)
    for _ in range(200):
        n_edges = int(rng.integers(2, 9))
        regions = random_regions(rng, n_edges, int(rng.integers(1, 4)))
        world = rng.integers(0, 2, n_edges)
        trace = RunTrace(policy="direct+bisect", world_index=0)
        status = np.zeros(n_edges, np.int8)
        for e in rng.choice(n_edges, size=int(rng.integers(0, n_edges)), replace=False):
            trace.evaluate(int(e), lambda t: int(world[t]), np.ones(n_edges), status)
        before, seen = list(trace.records), set(np.flatnonzero(status).tolist())

        def oracle(t):
            assert t not in seen, f"edge {t} evaluated again"
            return int(world[t])

        beta = rng.uniform(0.2, 0.8, n_edges)
        out = bisect_policy(beta, status, Library.build(regions, n_edges), np.ones(n_edges), oracle, trace)
        assert out is trace
        assert trace.records[: len(before)] == before
        assert len({r[0] for r in trace.records}) == len(trace.records)
        assert isinstance(trace.terminal, (Solved, AllRegionsDead))
        want = unknown(n_edges)
        for e, o, _ in trace.records:
            want[e] = 1 if o else -1
        assert status.tobytes() == want.tobytes()


# --- oracle equivalence (small sample; the full suite is in acceptance) ----

def run_equivalence_instance(rng, n_edges, n_regions):
    beta = rng.uniform(0.2, 0.8, n_edges)
    regions = random_regions(rng, n_edges, n_regions)
    world = rng.integers(0, 2, n_edges)
    prob = enumeration_problem(beta, regions)
    library = Library.build(regions, n_edges)
    status = unknown(n_edges)
    cost = np.ones(n_edges)

    steps = 0
    while True:
        st_e = ec2.is_solved(status, prob)
        paths = LibraryStatus(library, status)
        r_b, dead_b = paths.solved, not paths.live.any()
        if isinstance(st_e, Solved):
            assert r_b == st_e.path_index
            return steps
        if isinstance(st_e, AllRegionsDead):
            assert dead_b
            return steps
        assert r_b is None and not dead_b

        w_e = ec2.region_weights(status, prob)
        w_b = region_weights_bernoulli(beta, status, library)
        assert np.allclose(w_e, w_b, atol=1e-12, rtol=0)

        cand = [t for t in range(n_edges) if status[t] == 0]
        sel_e = ec2.select_test(status, prob, cand)
        sel_b = select_test_bernoulli(beta, status, library, cost, cand)
        if sel_e is None or sel_b is None:
            assert sel_e is None and sel_b is None
            return steps
        assert sel_e[0] == sel_b[0]
        assert abs(sel_e[1] - sel_b[1]) <= 1e-9
        edge = sel_e[0]
        outcome = int(world[edge])
        status = ec2.observe(status, edge, outcome)
        steps += 1


def test_engine_equivalence_sample():
    rng = np.random.default_rng(33)
    for _ in range(15):
        run_equivalence_instance(
            rng, int(rng.integers(2, 8)), int(rng.integers(1, 4))
        )


def test_closed_form_outcome_zero_is_the_shared_rule():
    # BISECT's outcome-0 term is ec2.log_residual_ratio with every region
    # the candidate lies on at posterior 0, bit for bit.
    rng = np.random.default_rng(57)
    seen = set()
    for _ in range(300):
        n_edges = int(rng.integers(1, 40))
        regions = random_regions(rng, n_edges, int(rng.integers(1, 20)))
        library = Library.build(regions, n_edges)
        beta, status = rng.uniform(0.05, 0.95, n_edges), unknown(n_edges)
        for e in rng.choice(n_edges, size=int(rng.integers(0, n_edges)), replace=False):
            status = ec2.observe(status, int(e), int(rng.random() < 0.8))
        p_r, K_r = region_posterior(theta_row(beta, status)[None], every_path(library), library)
        mask, Km, wm = ec2.live_regions(p_r, K_r)
        cand = np.flatnonzero(status == 0)
        if not mask.any() or cand.size == 0:
            continue
        Rt = regions_matrix(regions, n_edges)[np.ix_(mask, cand)].T
        closed = np.where((~Rt).any(axis=1), 0.0, -np.inf)
        general = ec2.log_residual_ratio(np.where(Rt, 0.0, p_r[mask]), Km, wm)
        assert closed.tobytes() == general.tobytes()
        seen.update(closed.tolist())
    assert seen == {0.0, -np.inf}


# --- kernels against their per-row definitions ------------------------------

def test_state_products_bitwise_equal_per_row_prod():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n_edges = int(rng.integers(1, 120))
        m = int(rng.integers(1, 12))
        # Uneven lengths, from one edge to every edge.
        regions = [
            tuple(rng.choice(n_edges, size=int(rng.integers(1, n_edges + 1)), replace=False))
            for _ in range(m)
        ]
        library = Library.build(regions, n_edges)
        beta, status = rng.uniform(0.01, 0.99, n_edges), unknown(n_edges)
        for e in rng.choice(n_edges, size=int(rng.integers(0, n_edges + 1)), replace=False):
            status = ec2.observe(status, int(e), int(rng.integers(2)))
        theta = theta_row(beta, status)
        p_r, K_r = region_posterior(theta[None], every_path(library), library)
        s = theta * theta + (1.0 - theta) * (1.0 - theta)
        inR = regions_matrix(regions, n_edges)
        pt2_r = np.array([np.prod((theta * theta)[row]) for row in inR])
        ps_r = np.array([np.prod(s[row]) for row in inR])
        S = float(np.prod(s))
        assert np.array_equal(p_r, np.array([np.prod(theta[row]) for row in inR]))
        assert np.array_equal(K_r, S - pt2_r * (S / ps_r))
        assert [sorted(set(r)) for r in regions] == [
            [e for e in row if e < n_edges] for row in library.index.tolist()
        ]


def _outside_live_regions(trace, regions):
    """Evaluations of edges that lay on no live region when evaluated."""
    invalid, out = set(), []
    for e, o, _ in trace.records:
        if not any(e in r for r in regions if not invalid & set(r)):
            out.append(e)
        if not o:
            invalid.add(e)
    return out


def test_bisect_never_evaluates_outside_live_regions_at_tiny_cost():
    # Two long regions of unlikely edges: their true scores, about
    # 1e-20 / c, sit below the round-off score of the four off-library
    # edges (16..19), about 1e-16 / c, and at c = 1e-8 both clear SCORE_TOL.
    rng = np.random.default_rng(12)
    regions = [tuple(range(8)), tuple(range(8, 16))]
    library = Library.build(regions, 20)
    for _ in range(30):
        beta = np.concatenate([np.full(16, 0.05), rng.uniform(0.05, 0.95, 4)])
        world = rng.integers(0, 2, 20)
        trace = bisect_policy(
            beta, unknown(20), library, np.full(20, 1e-8), lambda t: int(world[t]),
            RunTrace("bisect"),
        )
        assert isinstance(trace.terminal, (Solved, AllRegionsDead))
        assert _outside_live_regions(trace, regions) == []


# --- the set walk -------------------------------------------------------------

def test_set_walk_equals_per_episode_bisect(monkeypatch):
    # Entry beliefs with observed edges, worlds that kill every region,
    # non-unit costs, and costs so large that every step falls back to the
    # first open edge: the walk's tries, replayed, give each world the
    # records and terminal of per-episode BISECT with a private trie, and
    # its counts are those records' edges.
    rng = np.random.default_rng(71)
    fallbacks = dead = 0
    for case in range(80):
        n_edges = int(rng.integers(2, 12))
        library = Library.build(random_regions(rng, n_edges, int(rng.integers(1, 6))), n_edges)
        cost = np.full(n_edges, 1e13) if case % 8 == 0 else rng.integers(1, 4, n_edges) * 0.5
        outcomes = (rng.random((int(rng.integers(1, 30)), n_edges))
                    < rng.uniform(0.2, 0.9)).astype(np.uint8)
        roots = []
        for _ in range(int(rng.integers(1, 4))):
            status = np.zeros(n_edges, np.int8)
            seen = rng.choice(n_edges, size=int(rng.integers(0, n_edges)), replace=False)
            status[seen] = np.where(rng.random(seen.size) < 0.7, 1, -1)
            worlds = np.flatnonzero(rng.random(len(outcomes)) < 0.7)
            roots.append((rng.uniform(0.05, 0.95, n_edges), status, worlds, {}))
        counts = bernoulli.set_walk(library, cost, outcomes, roots)
        with monkeypatch.context() as m:
            m.setattr(bernoulli, "bisect_steps", lambda *args: pytest.fail("a filled step was recomputed"))
            replays = [[bisect_policy(beta, status.copy(), library, cost,
                                      lambda e, w=w: int(outcomes[w, e]), RunTrace("bisect"), trie)
                        for w in worlds] for beta, status, worlds, trie in roots]
        for (beta, status, worlds, _), replay, n in zip(roots, replays, counts):
            want = [bisect_policy(beta, status.copy(), library, cost,
                                  lambda e, w=w: int(outcomes[w, e]), RunTrace("bisect"))
                    for w in worlds]
            assert replay == want
            edges = [e for t in want for e, _, _ in t.records]
            assert n.tolist() == np.bincount(edges, minlength=n_edges).tolist()
            fallbacks += case % 8 == 0 and len(edges)
            dead += sum(isinstance(t.terminal, AllRegionsDead) for t in want)
    assert fallbacks > 0 and dead > 0


def test_select_test_bernoulli_is_one_row_of_the_block():
    # bisect_steps over a block of beliefs gives each row its own verdict
    # from LibraryStatus or, failing that, select_test_bernoulli's choice
    # over the row's open edges, the first open edge when nothing scores.
    # Each block runs again under costs so large that no edge scores, where
    # every open row falls back.
    rng = np.random.default_rng(73)
    fallbacks = 0
    for _ in range(100):
        n_edges = int(rng.integers(1, 40))
        library = Library.build(random_regions(rng, n_edges, int(rng.integers(1, 20))), n_edges)
        cost = rng.integers(1, 4, n_edges).astype(np.float64)
        beta = rng.uniform(0.01, 0.99, (int(rng.integers(1, 9)), n_edges))
        status = np.where(rng.random(beta.shape) < 0.3, np.where(rng.random(beta.shape) < 0.7, 1, -1), 0)
        status = status.astype(np.int8)
        for c in (cost, np.full(n_edges, 1e13)):
            steps = bernoulli.bisect_steps(beta, status, library, c)
            for b, s, step in zip(beta, status, steps):
                paths = LibraryStatus(library, s)
                if paths.solved is not None:
                    assert step == Solved(paths.solved)
                elif not paths.live.any():
                    assert step == AllRegionsDead()
                else:
                    cand = np.flatnonzero(paths.open)
                    sel = select_test_bernoulli(b, s, library, c, cand)
                    assert step == (int(cand[0]) if sel is None else sel[0])
                    fallbacks += sel is None
    assert fallbacks > 0
