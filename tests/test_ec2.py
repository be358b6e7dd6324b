"""Explicit-database engine: weights, residual, selection, policy loop."""

import numpy as np
import pytest

from drdplan import ec2
from drdplan.traces import AllRegionsDead, Handoff, Solved, Unsolved

from conftest import make_worked_problem, pairwise_weight_oracle


def uniform_problem(membership, outcomes, n):
    return ec2.DrdProblem(
        membership=np.asarray(membership, dtype=np.uint8),
        outcomes=np.asarray(outcomes, dtype=np.uint8),
        eval_cost=np.ones(np.asarray(outcomes).shape[1]),
        prior=np.full(n, 1.0 / n),
    )


# --- weight_ec -------------------------------------------------------------

def test_weight_all_active_inside_region_is_zero():
    prob = uniform_problem([[1]] * 4, [[0]] * 4, 4)
    vs = prob.root_version_space()
    assert ec2.weight_ec(vs, prob, 0) == 0.0


def test_weight_all_singletons():
    prob = uniform_problem([[0]] * 4, [[0]] * 4, 4)
    vs = prob.root_version_space()
    assert abs(ec2.weight_ec(vs, prob, 0) - 0.375) <= 1e-12


def test_weight_two_in_two_out():
    prob = uniform_problem([[1], [1], [0], [0]], [[0]] * 4, 4)
    vs = prob.root_version_space()
    assert abs(ec2.weight_ec(vs, prob, 0) - 0.3125) <= 1e-12


def test_weight_matches_pairwise_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 41))
        m = int(rng.integers(1, 6))
        membership = rng.integers(0, 2, size=(n, m)).astype(np.uint8)
        prior = rng.uniform(0.01, 2.0, size=n)
        active = rng.integers(0, 2, size=n).astype(bool)
        if not active.any():
            active[0] = True
        prob = ec2.DrdProblem(membership, np.zeros((n, 1), np.uint8), np.ones(1), prior)
        vs = ec2.VersionSpace(active=active, prior=prior)
        for r in range(m):
            oracle = pairwise_weight_oracle(prior, active, membership[:, r].astype(bool))
            assert abs(ec2.weight_ec(vs, prob, r) - oracle) <= 1e-12


# --- residual --------------------------------------------------------------

def test_residual_root_is_one():
    prob = make_worked_problem()
    assert ec2.residual(prob.root_version_space(), prob) == 1.0


def test_residual_zero_when_inside_region():
    prob = make_worked_problem()
    vs = ec2.VersionSpace(active=np.array([False, True, True]), prior=prob.prior)
    assert ec2.residual(vs, prob) == 0.0


def test_worked_instance_weights():
    prob = make_worked_problem()
    assert np.allclose(prob.root_weights, [2.0 / 9.0, 2.0 / 9.0], atol=1e-12, rtol=0)
    vs = ec2.VersionSpace(active=np.array([False, True, True]), prior=prob.prior)
    w = ec2.region_weights(vs.active, vs.prior, prob.membership)
    assert abs(w[0] - 1.0 / 9.0) <= 1e-12
    assert w[1] == 0.0


def test_zero_root_weight_region_excluded():
    # A region containing every hypothesis has zero root weight and must not
    # force the residual to 0/0.
    membership = np.array([[1, 1], [1, 0], [1, 0]], dtype=np.uint8)
    outcomes = np.array([[1], [0], [0]], dtype=np.uint8)
    prob = uniform_problem(membership, outcomes, 3)
    assert prob.root_weights[0] == 0.0
    assert ec2.residual(prob.root_version_space(), prob) == 1.0


# --- select_test -----------------------------------------------------------

def test_worked_instance_selection():
    prob = make_worked_problem()
    edge, score = ec2.select_test(prob.root_version_space(), prob, [0])
    assert edge == 0
    assert score == 1.0


def test_constant_column_scores_nothing():
    prob = uniform_problem([[1, 0], [1, 1], [0, 1]], [[1], [1], [1]], 3)
    assert ec2.select_test(prob.root_version_space(), prob, [0]) is None


def test_tie_break_lowest_edge_id():
    membership = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    outcomes = np.array([[1, 1], [0, 0], [0, 0]], dtype=np.uint8)  # identical tests
    prob = uniform_problem(membership, outcomes, 3)
    edge, score = ec2.select_test(prob.root_version_space(), prob, [0, 1])
    assert edge == 0 and score == 1.0
    # Restricting candidates to the higher id still works.
    edge2, score2 = ec2.select_test(prob.root_version_space(), prob, [1])
    assert edge2 == 1 and score2 == score


def test_select_requires_candidates():
    prob = make_worked_problem()
    with pytest.raises(ValueError):
        ec2.select_test(prob.root_version_space(), prob, [])


def test_scores_nonnegative_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n, e, m = int(rng.integers(2, 20)), int(rng.integers(1, 8)), int(rng.integers(1, 4))
        prob = ec2.DrdProblem(
            rng.integers(0, 2, (n, m)).astype(np.uint8),
            rng.integers(0, 2, (n, e)).astype(np.uint8),
            np.ones(e),
            rng.uniform(0.1, 1.0, n),
        )
        sel = ec2.select_test(prob.root_version_space(), prob, range(e))
        if sel is not None:
            assert sel[1] > 0.0


# --- observe / is_solved ---------------------------------------------------

def test_observe_prunes_and_records():
    prob = make_worked_problem()
    vs = ec2.observe(prob.root_version_space(), prob, 0, 1)
    assert vs.active.tolist() == [True, False, False]
    assert vs.observed == {0: 1}


def test_observe_reobservation_is_error():
    prob = make_worked_problem()
    vs = ec2.observe(prob.root_version_space(), prob, 0, 1)
    with pytest.raises(ValueError):
        ec2.observe(vs, prob, 0, 1)


def test_observe_can_empty_the_space():
    prob = uniform_problem([[1]], [[1]], 1)
    vs = ec2.observe(prob.root_version_space(), prob, 0, 0)
    assert vs.active_count == 0
    status = ec2.is_solved(vs, prob)
    assert isinstance(status, AllRegionsDead) and status.off_database


def test_is_solved_lowest_region():
    membership = np.array([[1, 0, 1, 1]], dtype=np.uint8)  # singleton in R0, R2, R3
    prob = uniform_problem(membership, [[1]], 1)
    status = ec2.is_solved(prob.root_version_space(), prob)
    assert status == Solved(0)


def test_is_solved_unsolved_and_dead():
    prob = make_worked_problem()
    assert isinstance(ec2.is_solved(prob.root_version_space(), prob), Unsolved)
    membership = np.array([[0], [0]], dtype=np.uint8)
    dead = uniform_problem(membership, [[0], [1]], 2)
    assert isinstance(ec2.is_solved(dead.root_version_space(), dead), AllRegionsDead)


# --- direct_policy ---------------------------------------------------------

def test_direct_policy_eta_one_immediate_handoff():
    prob = make_worked_problem()
    trace, vs = ec2.direct_policy(prob, lambda e: 1, eta=1.0)
    assert isinstance(trace.terminal, Handoff)
    assert trace.records == []
    assert vs.active_count == 3


def test_direct_policy_worked_world_h2():
    prob = make_worked_problem()
    oracle = lambda e: int(prob.outcomes[1, e])  # world = h2
    trace, vs = ec2.direct_policy(prob, oracle, eta=0.0)
    assert len(trace.records) == 1 and trace.records[0][0] == 0
    assert trace.terminal == Solved(1)  # {h2, h3} lies inside region 2


def test_direct_policy_database_worlds_terminate():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, e, m = int(rng.integers(2, 15)), int(rng.integers(2, 8)), int(rng.integers(1, 4))
        prob = ec2.DrdProblem(
            rng.integers(0, 2, (n, m)).astype(np.uint8),
            rng.integers(0, 2, (n, e)).astype(np.uint8),
            np.ones(e),
            np.full(n, 1.0 / n),
        )
        h = int(rng.integers(n))
        trace, vs = ec2.direct_policy(prob, lambda t: int(prob.outcomes[h, t]), eta=0.0)
        assert isinstance(trace.terminal, (Solved, AllRegionsDead, Handoff))
        # The true world is always consistent with every observation.
        assert vs.active[h]
        if isinstance(trace.terminal, Solved):
            assert prob.membership[h, trace.terminal.path_index] == 1
        elif isinstance(trace.terminal, AllRegionsDead):
            assert prob.membership[h].sum() == 0


def test_residual_nonincreasing_along_rollouts():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n, e, m = int(rng.integers(2, 20)), int(rng.integers(2, 10)), int(rng.integers(1, 5))
        prob = ec2.DrdProblem(
            rng.integers(0, 2, (n, m)).astype(np.uint8),
            rng.integers(0, 2, (n, e)).astype(np.uint8),
            np.ones(e),
            rng.uniform(0.1, 1.0, n),
        )
        h = int(rng.integers(n))
        vs = prob.root_version_space()
        last = ec2.residual(vs, prob)
        for edge in rng.permutation(e):
            vs = ec2.observe(vs, prob, int(edge), int(prob.outcomes[h, edge]))
            cur = ec2.residual(vs, prob)
            assert cur <= last + 1e-12
            last = cur


def _min_key_choice(cand, log_expected, cost):
    """The argmax as a Python min over (-score, tie_key), lowest index first."""
    scores = (1.0 - np.exp(log_expected)) / cost
    scores = np.where(scores > ec2.SCORE_TOL, scores, 0.0)
    if not np.any(scores > 0.0):
        return None
    tie_key = log_expected + np.log(cost)
    best = min(range(len(cand)), key=lambda i: (-scores[i], tie_key[i]))
    return int(cand[best]), float(scores[best])


def test_best_test_matches_min_key_on_ties():
    cand = np.arange(10, 16)
    cases = [
        # Saturated: exp underflows, every score is exactly 1/c; the tie
        # key (log expected residual per cost) decides.
        (np.array([-800.0, -900.0, -750.0, -900.0, -800.0, -760.0]), np.ones(6)),
        (np.array([-800.0, -900.0, -750.0, -900.0, -800.0, -760.0]),
         np.array([2.0, 1.0, 1.0, 1.0, 2.0, 4.0])),
        # Equal tie keys: lowest index.
        (np.full(6, np.log(0.25)), np.ones(6)),
        # A -inf log expectation (the candidate resolves everything) ties
        # with saturated finite ones on score and wins on the key.
        (np.array([-800.0, -np.inf, -900.0, -np.inf, -800.0, -1.0]), np.ones(6)),
        # Every score cut to zero: no choice.
        (np.zeros(6), np.ones(6)),
        (np.full(6, -1e-14), np.ones(6)),
        (np.log(np.full(6, 0.5)), np.full(6, 1e13)),
    ]
    for le, cost in cases:
        assert ec2.best_test(cand, le, cost) == _min_key_choice(cand, le, cost)
    assert ec2.best_test(cand, np.zeros(6), np.ones(6)) is None
    assert ec2.best_test(cand, *cases[0])[0] == 11
    assert ec2.best_test(cand, *cases[2])[0] == 10
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        # Few distinct values so that exact ties are common.
        le = rng.choice([-np.inf, -900.0, -800.0, -2.0, -0.5, 0.0], size=n)
        cost = rng.choice([0.5, 1.0, 2.0], size=n)
        cand = np.sort(rng.choice(50, size=n, replace=False))
        assert ec2.best_test(cand, le, cost) == _min_key_choice(cand, le, cost)
