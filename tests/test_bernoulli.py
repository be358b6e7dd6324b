"""Closed-form Bernoulli engine and its enumeration-oracle equivalence."""

import numpy as np
import pytest

from drdplan import bernoulli, ec2
from drdplan.bernoulli import (
    BernoulliBelief,
    bisect_policy,
    clamp_bias,
    conditional_region_weights,
    region_weights_bernoulli,
    select_test_bernoulli,
    weight_bernoulli,
)
from drdplan.model import Library, library_status, regions_matrix
from drdplan.traces import AllRegionsDead, Solved

from conftest import enumerate_worlds, enumeration_problem, random_regions


# --- belief basics ---------------------------------------------------------

def test_belief_rejects_degenerate_bias():
    with pytest.raises(ValueError):
        BernoulliBelief(beta=np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        BernoulliBelief(beta=np.array([1.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            BernoulliBelief(beta=np.array([0.5, bad]))


def test_belief_observe_and_theta_eff():
    b = BernoulliBelief(beta=np.array([0.3, 0.7]))
    b.observe(0, 1)
    assert b.theta_eff.tolist() == [1.0, 0.7]
    assert b.observation_mass() == 0.3
    with pytest.raises(ValueError):
        b.observe(0, 0)


def test_clamp_bias_bounds():
    clamped = clamp_bias(np.array([0.0, 0.5, 1.0]), alpha=0.9)
    assert np.allclose(clamped, [0.05, 0.5, 0.95])
    for alpha in (np.nan, 0.0, 1.0, 2.0, -0.5):  # the range trees.bias_vector takes
        with pytest.raises(ValueError):
            clamp_bias(np.array([0.0, 0.5, 1.0]), alpha)


def test_regions_matrix_rejects_empty_region():
    with pytest.raises(ValueError):
        regions_matrix([()], 3)


# --- weights ---------------------------------------------------------------

def test_weight_three_edge_hand_check():
    # 3 edges all theta = 0.5, region covering edges {0, 1}, nothing observed.
    b = BernoulliBelief(beta=np.array([0.5, 0.5, 0.5]))
    assert weight_bernoulli(b, (0, 1)) == 0.421875


def test_weight_zero_when_region_proven():
    b = BernoulliBelief(beta=np.array([0.5, 0.5, 0.5]))
    for e in range(3):
        b.observe(e, 1)
    assert weight_bernoulli(b, (0, 1)) == 0.0


def test_weight_vanishes_as_region_absorbs_mass():
    w = weight_bernoulli(BernoulliBelief(beta=np.array([1.0 - 1e-8])), (0,))
    assert 0.0 <= w < 1e-7


def test_weight_matches_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(20):
        e = int(rng.integers(2, 9))
        beta = rng.uniform(0.2, 0.8, e)
        regions = random_regions(rng, e, int(rng.integers(1, 4)))
        prob = enumeration_problem(beta, regions)
        belief = BernoulliBelief(beta=beta)
        library = Library.build(regions, e)
        # Root weights agree.
        got = region_weights_bernoulli(belief, library)
        assert np.allclose(got, prob.root_weights, atol=1e-12, rtol=0)
        # And after a couple of observations.
        vs = prob.root_version_space()
        for _ in range(2):
            edge = int(rng.integers(e))
            if edge in belief.observed:
                continue
            outcome = int(rng.integers(2))
            belief.observe(edge, outcome)
            vs = ec2.observe(vs, prob, edge, outcome)
        got = region_weights_bernoulli(belief, library)
        want = ec2.region_weights(vs.active, vs.prior, prob.membership)
        assert np.allclose(got, want, atol=1e-12, rtol=0)


def test_conditional_weight_factorization():
    rng = np.random.default_rng(9)
    e = 6
    beta = rng.uniform(0.2, 0.8, e)
    belief = BernoulliBelief(beta=beta)
    belief.observe(2, 1)
    belief.observe(4, 0)
    library = Library.build([(0, 1), (1, 3, 4)], e)
    mass = belief.observation_mass()
    full = region_weights_bernoulli(belief, library)
    cond = conditional_region_weights(belief, library)
    assert np.allclose(full, mass * mass * cond, atol=1e-15, rtol=0)


# --- selection -------------------------------------------------------------

def test_on_path_edge_beats_off_path():
    # Single region {0, 1} with a third off-path edge; uniform theta.
    beta = np.array([0.5, 0.5, 0.5])
    regions = [(0, 1)]
    library = Library.build(regions, 3)
    belief = BernoulliBelief(beta=beta)
    roots = conditional_region_weights(belief, library)
    sel = select_test_bernoulli(belief, library, np.ones(3), [0, 1, 2], roots)
    assert sel is not None and sel[0] in (0, 1)
    # The enumeration engine agrees.
    prob = enumeration_problem(beta, regions)
    sel_e = ec2.select_test(prob.root_version_space(), prob, [0, 1, 2])
    assert sel_e[0] == sel[0]
    assert abs(sel_e[1] - sel[1]) <= 1e-9


def test_off_path_candidates_score_nothing():
    beta = np.array([0.5, 0.5, 0.5])
    library = Library.build([(0,)], 3)
    belief = BernoulliBelief(beta=beta)
    roots = conditional_region_weights(belief, library)
    assert select_test_bernoulli(belief, library, np.ones(3), [1, 2], roots) is None


def test_select_rejects_observed_candidates():
    belief = BernoulliBelief(beta=np.array([0.5, 0.5]))
    belief.observe(0, 1)
    library = Library.build([(0, 1)], 2)
    roots = conditional_region_weights(BernoulliBelief(beta=np.array([0.5, 0.5])), library)
    with pytest.raises(ValueError):
        select_test_bernoulli(belief, library, np.ones(2), [0, 1], roots)


# --- termination predicates ------------------------------------------------

def belief_status(belief, regions):
    theta = belief.theta_eff
    inR = regions_matrix(regions, theta.size)
    return library_status(inR, theta == 1.0, theta == 0.0)


def test_solved_region_lowest_index():
    belief = BernoulliBelief(beta=np.full(3, 0.5))
    belief.observe(0, 1)
    belief.observe(1, 1)
    assert belief_status(belief, [(2,), (0,), (0, 1)])[0] == 1


def test_all_regions_dead_predicate():
    belief = BernoulliBelief(beta=np.full(3, 0.5))
    belief.observe(0, 0)
    assert belief_status(belief, [(0,), (1, 2)])[1].any()
    belief.observe(2, 0)
    assert not belief_status(belief, [(0,), (1, 2)])[1].any()


# --- bisect_policy ---------------------------------------------------------

def test_bisect_all_valid_single_region_evaluates_path_only():
    beta = np.full(5, 0.5)
    regions = [(1, 3)]
    belief = BernoulliBelief(beta=beta)
    trace = bisect_policy(belief, Library.build(regions, 5), np.ones(5), lambda e: 1)
    assert trace.terminal == Solved(0)
    assert sorted(t[0] for t in trace.records) == [1, 3]


def test_bisect_dead_world_witnesses_every_region():
    beta = np.full(4, 0.5)
    regions = [(0, 1), (2,), (1, 3)]
    belief = BernoulliBelief(beta=beta)
    trace = bisect_policy(belief, Library.build(regions, 4), np.ones(4), lambda e: 0)
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
            belief = BernoulliBelief(beta=beta.copy())
            trace = bisect_policy(belief, Library.build(regions, e), np.ones(e), lambda t: int(world[t]))
            assert len(trace.records) <= e
            assert len({r[0] for r in trace.records}) == len(trace.records)
            assert isinstance(trace.terminal, (Solved, AllRegionsDead))
            if isinstance(trace.terminal, Solved):
                assert all(world[t] == 1 for t in regions[trace.terminal.path_index])
            else:
                assert all(
                    any(world[t] == 0 and t in belief.observed for t in reg)
                    for reg in regions
                )


def test_bisect_fallback_takes_first_open_edge(monkeypatch):
    # At an evaluation cost of 1e13 every score falls under SCORE_TOL, so
    # each step takes the fallback: the lowest-id unobserved edge of a
    # region with no observed-invalid edge.
    picks = []

    def spy(*args, select=bernoulli.select_test_bernoulli):
        picks.append(select(*args))
        return picks[-1]

    monkeypatch.setattr(bernoulli, "select_test_bernoulli", spy)
    world = [1, 0, 1, 1, 1]
    trace = bisect_policy(
        BernoulliBelief(np.full(5, 0.5)), Library.build([(0, 1), (2, 3), (1, 4)], 5),
        np.full(5, 1e13), lambda e: world[e],
    )
    assert [r[0] for r in trace.records] == [0, 1, 2, 3]
    assert trace.terminal == Solved(1)
    assert trace.path_edges == (2, 3)
    assert picks == [None] * 4


# --- oracle equivalence (small sample; the full suite is in acceptance) ----

def run_equivalence_instance(rng, n_edges, n_regions):
    beta = rng.uniform(0.2, 0.8, n_edges)
    regions = random_regions(rng, n_edges, n_regions)
    world = rng.integers(0, 2, n_edges)
    prob = enumeration_problem(beta, regions)
    library = Library.build(regions, n_edges)
    belief = BernoulliBelief(beta=beta)
    roots_b = conditional_region_weights(belief, library)
    vs = prob.root_version_space()
    cost = np.ones(n_edges)

    steps = 0
    while True:
        st_e = ec2.is_solved(vs, prob)
        theta = belief.theta_eff
        r_b, live_b, _ = library_status(library.inR, theta == 1.0, theta == 0.0)
        dead_b = not live_b.any()
        if isinstance(st_e, Solved):
            assert r_b == st_e.path_index
            return steps
        if isinstance(st_e, AllRegionsDead):
            assert dead_b
            return steps
        assert r_b is None and not dead_b

        w_e = ec2.region_weights(vs.active, vs.prior, prob.membership)
        w_b = region_weights_bernoulli(belief, library)
        assert np.allclose(w_e, w_b, atol=1e-12, rtol=0)

        cand = [t for t in range(n_edges) if t not in belief.observed]
        sel_e = ec2.select_test(vs, prob, cand)
        sel_b = select_test_bernoulli(belief, library, cost, cand, roots_b)
        if sel_e is None or sel_b is None:
            assert sel_e is None and sel_b is None
            return steps
        assert sel_e[0] == sel_b[0]
        assert abs(sel_e[1] - sel_b[1]) <= 1e-9
        edge = sel_e[0]
        outcome = int(world[edge])
        vs = ec2.observe(vs, prob, edge, outcome)
        belief.observe(edge, outcome)
        steps += 1


def test_engine_equivalence_sample():
    rng = np.random.default_rng(33)
    for _ in range(15):
        run_equivalence_instance(
            rng, int(rng.integers(2, 8)), int(rng.integers(1, 4))
        )


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
        belief = BernoulliBelief(beta=rng.uniform(0.01, 0.99, n_edges))
        for e in rng.choice(n_edges, size=int(rng.integers(0, n_edges + 1)), replace=False):
            belief.observe(int(e), int(rng.integers(2)))
        theta, p_r, pt2_r, ps_r, S = bernoulli._state(belief, library)
        s = theta * theta + (1.0 - theta) * (1.0 - theta)
        inR = regions_matrix(regions, n_edges)
        assert np.array_equal(p_r, np.array([np.prod(theta[row]) for row in inR]))
        assert np.array_equal(pt2_r, np.array([np.prod((theta * theta)[row]) for row in inR]))
        assert np.array_equal(ps_r, np.array([np.prod(s[row]) for row in inR]))
        assert S == float(np.prod(s))
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
            BernoulliBelief(beta=beta), library, np.full(20, 1e-8), lambda t: int(world[t])
        )
        assert isinstance(trace.terminal, (Solved, AllRegionsDead))
        assert _outside_live_regions(trace, regions) == []
