"""Closed-form Bernoulli engine and its enumeration-oracle equivalence."""

import numpy as np
import pytest

from drdplan import bernoulli, ec2
from drdplan.bernoulli import (
    BernoulliBelief,
    all_regions_dead,
    bisect_policy,
    clamp_bias,
    conditional_region_weights,
    region_weights_bernoulli,
    regions_matrix,
    select_test_bernoulli,
    solved_region,
    weight_bernoulli,
)
from drdplan.traces import AllRegionsDead, Solved

from conftest import enumerate_worlds, enumeration_problem, random_regions


# --- belief basics ---------------------------------------------------------

def test_belief_rejects_degenerate_bias():
    with pytest.raises(ValueError):
        BernoulliBelief(beta=np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        BernoulliBelief(beta=np.array([1.0]))


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
        inR = regions_matrix(regions, e)
        # Root weights agree.
        got = region_weights_bernoulli(belief, inR)
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
        got = region_weights_bernoulli(belief, inR)
        want = ec2.region_weights(vs.active, vs.prior, prob.membership)
        assert np.allclose(got, want, atol=1e-12, rtol=0)


def test_conditional_weight_factorization():
    rng = np.random.default_rng(9)
    e = 6
    beta = rng.uniform(0.2, 0.8, e)
    belief = BernoulliBelief(beta=beta)
    belief.observe(2, 1)
    belief.observe(4, 0)
    inR = regions_matrix([(0, 1), (1, 3, 4)], e)
    mass = belief.observation_mass()
    full = region_weights_bernoulli(belief, inR)
    cond = conditional_region_weights(belief, inR)
    assert np.allclose(full, mass * mass * cond, atol=1e-15, rtol=0)


# --- selection -------------------------------------------------------------

def test_on_path_edge_beats_off_path():
    # Single region {0, 1} with a third off-path edge; uniform theta.
    beta = np.array([0.5, 0.5, 0.5])
    regions = [(0, 1)]
    inR = regions_matrix(regions, 3)
    belief = BernoulliBelief(beta=beta)
    roots = conditional_region_weights(belief, inR)
    sel = select_test_bernoulli(belief, inR, np.ones(3), [0, 1, 2], roots)
    assert sel is not None and sel[0] in (0, 1)
    # The enumeration engine agrees.
    prob = enumeration_problem(beta, regions)
    sel_e = ec2.select_test(prob.root_version_space(), prob, [0, 1, 2])
    assert sel_e[0] == sel[0]
    assert abs(sel_e[1] - sel[1]) <= 1e-9


def test_off_path_candidates_score_nothing():
    beta = np.array([0.5, 0.5, 0.5])
    inR = regions_matrix([(0,)], 3)
    belief = BernoulliBelief(beta=beta)
    roots = conditional_region_weights(belief, inR)
    assert select_test_bernoulli(belief, inR, np.ones(3), [1, 2], roots) is None


def test_select_rejects_observed_candidates():
    belief = BernoulliBelief(beta=np.array([0.5, 0.5]))
    belief.observe(0, 1)
    inR = regions_matrix([(0, 1)], 2)
    roots = conditional_region_weights(BernoulliBelief(beta=np.array([0.5, 0.5])), inR)
    with pytest.raises(ValueError):
        select_test_bernoulli(belief, inR, np.ones(2), [0, 1], roots)


# --- termination predicates ------------------------------------------------

def test_solved_region_lowest_index():
    belief = BernoulliBelief(beta=np.full(3, 0.5))
    belief.observe(0, 1)
    belief.observe(1, 1)
    assert solved_region(belief, [(2,), (0,), (0, 1)]) == 1


def test_all_regions_dead_predicate():
    belief = BernoulliBelief(beta=np.full(3, 0.5))
    belief.observe(0, 0)
    assert not all_regions_dead(belief, [(0,), (1, 2)])
    belief.observe(2, 0)
    assert all_regions_dead(belief, [(0,), (1, 2)])


# --- bisect_policy ---------------------------------------------------------

def test_bisect_all_valid_single_region_evaluates_path_only():
    beta = np.full(5, 0.5)
    regions = [(1, 3)]
    belief = BernoulliBelief(beta=beta)
    trace = bisect_policy(belief, regions, np.ones(5), lambda e: 1)
    assert trace.terminal == Solved(0)
    assert sorted(t[0] for t in trace.records) == [1, 3]


def test_bisect_dead_world_witnesses_every_region():
    beta = np.full(4, 0.5)
    regions = [(0, 1), (2,), (1, 3)]
    belief = BernoulliBelief(beta=beta)
    trace = bisect_policy(belief, regions, np.ones(4), lambda e: 0)
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
            trace = bisect_policy(belief, regions, np.ones(e), lambda t: int(world[t]))
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


# --- oracle equivalence (small sample; the full suite is in acceptance) ----

def run_equivalence_instance(rng, n_edges, n_regions):
    beta = rng.uniform(0.2, 0.8, n_edges)
    regions = random_regions(rng, n_edges, n_regions)
    world = rng.integers(0, 2, n_edges)
    prob = enumeration_problem(beta, regions)
    inR = regions_matrix(regions, n_edges)
    belief = BernoulliBelief(beta=beta)
    roots_b = conditional_region_weights(belief, inR)
    vs = prob.root_version_space()
    cost = np.ones(n_edges)

    steps = 0
    while True:
        st_e = ec2.is_solved(vs, prob)
        r_b = solved_region(belief, regions)
        dead_b = all_regions_dead(belief, regions)
        if isinstance(st_e, Solved):
            assert r_b == st_e.path_index
            return steps
        if isinstance(st_e, AllRegionsDead):
            assert dead_b
            return steps
        assert r_b is None and not dead_b

        w_e = ec2.region_weights(vs.active, vs.prior, prob.membership)
        w_b = region_weights_bernoulli(belief, inR)
        assert np.allclose(w_e, w_b, atol=1e-12, rtol=0)

        cand = [t for t in range(n_edges) if t not in belief.observed]
        sel_e = ec2.select_test(vs, prob, cand)
        sel_b = select_test_bernoulli(belief, inR, cost, cand, roots_b)
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
