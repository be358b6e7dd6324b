"""Explicit-database engine: weights, residual, selection, policy loop."""

import warnings

import numpy as np
import pytest

from drdplan import ec2, trees
from drdplan.traces import AllRegionsDead, Handoff, Solved

from conftest import make_worked_problem, pairwise_weight_oracle, root_status, with_active


def uniform_problem(membership, outcomes, n):
    return ec2.DrdProblem(
        membership=np.asarray(membership, dtype=np.uint8),
        outcomes=np.asarray(outcomes, dtype=np.uint8),
        eval_cost=np.ones(np.asarray(outcomes).shape[1]),
        prior=np.full(n, 1.0 / n),
    )


def test_problem_needs_a_world():
    with pytest.raises(ValueError, match="a problem needs at least one world"):
        ec2.DrdProblem(np.zeros((0, 2)), np.zeros((0, 3)), np.ones(3), np.ones(0))


# --- region_weights --------------------------------------------------------

def test_weight_all_active_inside_region_is_zero():
    prob = uniform_problem([[1]] * 4, [[0]] * 4, 4)
    assert ec2.region_weights(root_status(prob), prob)[0] == 0.0


def test_weight_all_singletons():
    prob = uniform_problem([[0]] * 4, [[0]] * 4, 4)
    assert abs(ec2.region_weights(root_status(prob), prob)[0] - 0.375) <= 1e-12


def test_weight_two_in_two_out():
    prob = uniform_problem([[1], [1], [0], [0]], [[0]] * 4, 4)
    assert abs(ec2.region_weights(root_status(prob), prob)[0] - 0.3125) <= 1e-12


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
        prob, status = with_active(prob, active)
        for r in range(m):
            oracle = pairwise_weight_oracle(prior, active, membership[:, r].astype(bool))
            assert abs(ec2.region_weights(status, prob)[r] - oracle) <= 1e-12


# --- residual --------------------------------------------------------------

def test_residual_root_is_one():
    prob = make_worked_problem()
    assert ec2.residual(root_status(prob), prob) == 1.0


def test_residual_zero_when_inside_region():
    prob, status = with_active(make_worked_problem(), [False, True, True])
    assert ec2.residual(status, prob) == 0.0


def test_emptied_version_space_has_no_weight():
    prob, status = with_active(make_worked_problem(), np.zeros(3, bool))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 on the way
        assert ec2.region_weights(status, prob).tolist() == [0.0, 0.0]
        assert ec2.residual(status, prob) == 0.0


def test_worked_instance_weights():
    prob = make_worked_problem()
    root = ec2.region_weights(root_status(prob), prob)
    assert np.allclose(root, [2.0 / 9.0, 2.0 / 9.0], atol=1e-12, rtol=0)
    prob, status = with_active(prob, [False, True, True])
    w = ec2.region_weights(status, prob)
    assert abs(w[0] - 1.0 / 9.0) <= 1e-12
    assert w[1] == 0.0


def test_zero_root_weight_region_excluded():
    # A region containing every hypothesis has zero root weight and must not
    # force the residual to 0/0.
    membership = np.array([[1, 1], [1, 0], [1, 0]], dtype=np.uint8)
    outcomes = np.array([[1], [0], [0]], dtype=np.uint8)
    prob = uniform_problem(membership, outcomes, 3)
    assert ec2.region_weights(root_status(prob), prob)[0] == 0.0
    assert ec2.residual(root_status(prob), prob) == 1.0


# --- the shared per-outcome objective --------------------------------------

def test_log_residual_ratio_hand_worked():
    # Three regions, each at posterior 1/2 now, with K = 1/4, 1/2, 1/4:
    # conditional weights (1 - 1/4 - K) / 2 = 1/4, 1/8, 1/4.
    mask, Km, wm = ec2.live_regions(np.full(3, 0.5), np.array([0.25, 0.5, 0.25]))
    assert mask.all() and wm.tolist() == [0.25, 0.125, 0.25]
    p_o = np.array([
        [0.0, 0.5, 0.25],  # region 0 dead; region 1 keeps weight 1/8 under
                           # its held K; region 2: (1 - 1/16 - 1/4) / 2 = 11/32
        [0.75, 0.0, 0.0],  # (1 - 9/16 - 1/4) / 2 = 3/32 against 1/4
        [0.0, 0.0, 0.0],   # no region left
        [1.0, 0.5, 0.5],   # region 0's weight clamps at 0
    ])
    got = ec2.log_residual_ratio(p_o, Km, wm)
    assert got[0] == pytest.approx(np.log(11 / 8))
    assert got[1] == pytest.approx(np.log(3 / 8))
    assert got[2] == -np.inf and got[3] == -np.inf
    # Kept in the product, dead region 0 would have added a factor 3/2.
    assert ec2.conditional_weight(np.zeros(1), Km[:1])[0] / wm[0] == 1.5


def test_live_regions_mask():
    p = np.array([0.5, 0.0, 1.0])
    K = np.array([0.25, 0.25, 0.0])
    mask, Km, wm = ec2.live_regions(p, K)
    # dead now and zero weight now each leave the product
    assert mask.tolist() == [True, False, False]
    assert Km.tolist() == [0.25] and wm.tolist() == [0.25]


def test_region_with_weight_had_root_weight(monkeypatch):
    # A pairwise region weight only falls as the version space shrinks, so
    # live_regions needs no root-weight mask: along random observation
    # paths, under uniform and random priors, every region with weight at a
    # node that DIRECT scores (an unsolved one), and every region
    # select_test keeps live there, has root weight.
    masks, original = [], ec2.live_regions

    def spy(p, K):
        out = original(p, K)
        masks.append(out[0])
        return out

    monkeypatch.setattr(ec2, "live_regions", spy)
    rng = np.random.default_rng(23)
    nodes = 0
    for trial in range(200):
        prob = random_problem(rng, None if trial % 2 else (lambda n: rng.uniform(0.1, 1.0, n)))
        root = ec2.region_weights(root_status(prob), prob)
        world = prob.outcomes[rng.integers(prob.num_hypotheses)]
        status = root_status(prob)
        for edge in rng.permutation(prob.num_tests).tolist():
            if ec2.is_solved(status, prob) is None:
                has_weight = ec2.region_weights(status, prob) > 0
                assert (root[has_weight] > 0).all()
                masks.clear()
                ec2.select_test(status, prob, np.flatnonzero(status == 0))
                assert all((root[mask] > 0).all() for mask in masks)
                nodes += 1
            status = ec2.observe(status, edge, int(world[edge]))
    assert nodes > 500


def test_region_holding_every_active_world_is_not_live(monkeypatch):
    # Its weight is exactly 0 (as in the Bernoulli engine, p = 1 and K = 0),
    # though under a non-uniform prior its float sums can leave it a
    # round-off weight.  Only a solved node has such a region, so random
    # problems are followed to their solved nodes and scored there.
    masks, original = [], ec2.live_regions

    def spy(p, K):
        out = original(p, K)
        masks.append(out[0])
        return out

    monkeypatch.setattr(ec2, "live_regions", spy)
    rng = np.random.default_rng(29)
    nodes = 0
    for _ in range(400):
        prob = random_problem(rng, lambda n: rng.uniform(0.1, 1.0, n))
        world = prob.outcomes[rng.integers(prob.num_hypotheses)]
        status = root_status(prob)
        for edge in rng.permutation(prob.num_tests).tolist():
            if isinstance(ec2.is_solved(status, prob), Solved):
                full = prob.membership[ec2.consistent(prob.outcomes, status)].all(axis=0)
                masks.clear()
                ec2.select_test(status, prob, np.flatnonzero(status == 0))
                assert not any((mask & full).any() for mask in masks)
                nodes += 1
            status = ec2.observe(status, edge, int(world[edge]))
    assert nodes > 500


# --- select_test -----------------------------------------------------------

def test_worked_instance_selection():
    prob = make_worked_problem()
    edge, score = ec2.select_test(root_status(prob), prob, [0])
    assert edge == 0
    assert score == 1.0


def test_constant_column_scores_nothing():
    prob = uniform_problem([[1, 0], [1, 1], [0, 1]], [[1], [1], [1]], 3)
    assert ec2.select_test(root_status(prob), prob, [0]) is None


def test_tie_break_lowest_edge_id():
    membership = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    outcomes = np.array([[1, 1], [0, 0], [0, 0]], dtype=np.uint8)  # identical tests
    prob = uniform_problem(membership, outcomes, 3)
    edge, score = ec2.select_test(root_status(prob), prob, [0, 1])
    assert edge == 0 and score == 1.0
    # Restricting candidates to the higher id still works.
    edge2, score2 = ec2.select_test(root_status(prob), prob, [1])
    assert edge2 == 1 and score2 == score


def test_select_requires_candidates():
    prob = make_worked_problem()
    with pytest.raises(ValueError):
        ec2.select_test(root_status(prob), prob, [])


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
        sel = ec2.select_test(root_status(prob), prob, range(e))
        if sel is not None:
            assert sel[1] > 0.0


# --- observe / is_solved ---------------------------------------------------

def test_observe_prunes_and_records():
    prob = make_worked_problem()
    status = ec2.observe(root_status(prob), 0, 1)
    assert ec2.consistent(prob.outcomes, status).tolist() == [True, False, False]
    assert status.tolist() == [1]


def test_observe_leaves_the_parent_status_unchanged():
    prob = make_worked_problem()
    root = root_status(prob)
    for outcome in (1, 0):
        child = ec2.observe(root, 0, outcome)
        assert child.tolist() == [1 if outcome else -1]
        assert root.tolist() == [0]


def test_observe_reobservation_is_error():
    prob = make_worked_problem()
    status = ec2.observe(root_status(prob), 0, 1)
    with pytest.raises(ValueError):
        ec2.observe(status, 0, 1)


def test_observe_can_empty_the_space():
    prob = uniform_problem([[1]], [[1]], 1)
    status = ec2.observe(root_status(prob), 0, 0)
    assert ec2.consistent(prob.outcomes, status).sum() == 0
    verdict = ec2.is_solved(status, prob)
    assert isinstance(verdict, AllRegionsDead) and verdict.off_database


def test_consistent_is_the_chained_version_space():
    # A node's worlds, found from its status alone, are the running
    # conjunction of outcomes[:, e] == o over the observations on the way
    # there, along random observation sequences.
    rng = np.random.default_rng(43)
    checked = nonempty = 0
    for _ in range(200):
        n, e = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        outcomes = (rng.random((n, e)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        world = outcomes[rng.integers(n)]  # most outcomes follow one world
        status, chained = np.zeros(e, np.int8), np.ones(n, bool)
        for edge in rng.permutation(e)[: int(rng.integers(1, e + 1))].tolist():
            outcome = int(world[edge]) if rng.random() < 0.8 else int(rng.integers(2))
            status = ec2.observe(status, edge, outcome)
            chained &= outcomes[:, edge] == outcome
            assert np.array_equal(ec2.consistent(outcomes, status), chained)
            checked += 1
            nonempty += chained.any()
    assert checked > 500 and nonempty > 300


def test_is_solved_lowest_region():
    membership = np.array([[1, 0, 1, 1]], dtype=np.uint8)  # singleton in R0, R2, R3
    prob = uniform_problem(membership, [[1]], 1)
    assert ec2.is_solved(root_status(prob), prob) == Solved(0)


def test_is_solved_unsolved_and_dead():
    prob = make_worked_problem()
    assert ec2.is_solved(root_status(prob), prob) is None
    membership = np.array([[0], [0]], dtype=np.uint8)
    dead = uniform_problem(membership, [[0], [1]], 2)
    assert isinstance(ec2.is_solved(root_status(dead), dead), AllRegionsDead)


# --- direct_policy ---------------------------------------------------------

def test_direct_policy_eta_one_immediate_handoff():
    prob = make_worked_problem()
    trace, status = trees.direct_policy(prob, lambda e: 1, eta=1.0)
    assert isinstance(trace.terminal, Handoff)
    assert trace.records == []
    assert ec2.consistent(prob.outcomes, status).sum() == 3


def test_direct_policy_worked_world_h2():
    prob = make_worked_problem()
    oracle = lambda e: int(prob.outcomes[1, e])  # world = h2
    trace, _ = trees.direct_policy(prob, oracle, eta=0.0)
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
        trace, status = trees.direct_policy(prob, lambda t: int(prob.outcomes[h, t]), eta=0.0)
        assert isinstance(trace.terminal, (Solved, AllRegionsDead, Handoff))
        # The true world is always consistent with every observation.
        assert ec2.consistent(prob.outcomes, status)[h]
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
        status = root_status(prob)
        last = ec2.residual(status, prob)
        for edge in rng.permutation(e):
            status = ec2.observe(status, int(edge), int(prob.outcomes[h, edge]))
            cur = ec2.residual(status, prob)
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


def _one_row(cand, log_expected, cost):
    """ec2.best_tests over one row, as select_test calls it."""
    edge, score = ec2.best_tests(np.zeros(len(cand), np.intp), cand, log_expected, cost, 1)
    return None if edge[0] < 0 else (int(edge[0]), float(score[0]))


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
        assert _one_row(cand, le, cost) == _min_key_choice(cand, le, cost)
    assert _one_row(cand, np.zeros(6), np.ones(6)) is None
    assert _one_row(cand, *cases[0])[0] == 11
    assert _one_row(cand, *cases[2])[0] == 10
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        # Few distinct values so that exact ties are common.
        le = rng.choice([-np.inf, -900.0, -800.0, -2.0, -0.5, 0.0], size=n)
        cost = rng.choice([0.5, 1.0, 2.0], size=n)
        cand = np.sort(rng.choice(50, size=n, replace=False))
        assert _one_row(cand, le, cost) == _min_key_choice(cand, le, cost)


# --- unit weights ----------------------------------------------------------

def test_exact_tie_goes_to_lowest_edge_id():
    # Edges 0 and 1 each isolate one region-free world, so their branch
    # counts are identical; only the row that holds the zero differs.
    n = 100
    membership = np.zeros((n, 1), np.uint8)
    membership[:50, 0] = 1
    outcomes = np.ones((n, 2), np.uint8)
    outcomes[50, 0] = 0
    outcomes[96, 1] = 0
    prob = uniform_problem(membership, outcomes, n)
    edge, score = ec2.select_test(root_status(prob), prob, [0, 1])
    assert edge == 0
    assert ec2.select_test(root_status(prob), prob, [1]) == (1, score)


def test_select_on_active_worlds_equals_problem_of_those_worlds():
    rng = np.random.default_rng(8)
    chosen = 0
    for _ in range(200):
        n, e, m = int(rng.integers(2, 60)), int(rng.integers(1, 12)), int(rng.integers(1, 5))
        membership = (rng.random((n, m)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        outcomes = (rng.random((n, e)) < rng.uniform(0.2, 0.95)).astype(np.uint8)
        cost = rng.choice([1.0, 2.0, 0.5], size=e)
        active = rng.random(n) < rng.uniform(0.05, 1.0)
        status = rng.choice(np.array([0, 0, 1, -1], np.int8), size=e)
        cand = np.flatnonzero(status == 0)
        if not active.any() or cand.size == 0:
            continue
        full = ec2.DrdProblem(membership, outcomes, cost, np.full(n, 1.0 / n))
        k = int(active.sum())
        sub = ec2.DrdProblem(membership[active], outcomes[active], cost, np.full(k, 1.0 / k))
        masked, node = with_active(full, active)
        got = ec2.select_test(node, masked, cand)
        want = ec2.select_test(root_status(sub), sub, cand)
        assert got == want
        chosen += got is not None
    assert chosen > 50


@pytest.mark.parametrize("n, eta, k", [(100, 0.25, 25), (400, 0.05, 20)])
def test_handoff_at_exactly_eta_times_n_active_worlds(n, eta, k):
    # Worlds 0..n/2-1 lie in the one region; edge 0 tells the halves apart.
    membership = np.zeros((n, 1), np.uint8)
    membership[: n // 2, 0] = 1
    outcomes = np.zeros((n, 1), np.uint8)
    outcomes[: n // 2, 0] = 1
    prob = uniform_problem(membership, outcomes, n)
    for count, want_split in ((k, False), (k + 1, True)):
        active = np.zeros(n, bool)
        active[n // 2 - count // 2: n // 2 - count // 2 + count] = True
        masked, status = with_active(prob, active)
        step = trees.direct_step(status, masked, eta)
        assert step == (0 if want_split else Handoff(count))


# --- split tables ----------------------------------------------------------

def random_problem(rng, prior=None):
    n, e, m = int(rng.integers(2, 60)), int(rng.integers(1, 12)), int(rng.integers(1, 5))
    return ec2.DrdProblem(
        (rng.random((n, m)) < rng.uniform(0.1, 0.9)).astype(np.uint8),
        (rng.random((n, e)) < rng.uniform(0.2, 0.95)).astype(np.uint8),
        rng.choice([1.0, 2.0, 0.5], size=e),
        np.full(n, 1.0 / n) if prior is None else prior(n),
    )


def test_split_table_hand_worked():
    # Worlds 0 and 1 make edge 0 valid; world 1 alone lies in the region.
    prob = uniform_problem([[0], [1], [0]], [[1, 0], [1, 0], [0, 0]], 3)
    table = ec2.split_table(prob, [0, 1, 2], [0, 1])
    assert table.shape == (2, 2, 2)
    assert table[1].tolist() == [[2.0, 1.0], [0.0, 0.0]]
    assert table[0].tolist() == [[1.0, 0.0], [3.0, 1.0]]
    assert ec2.split_table(prob, [2], [0, 1]).tolist() == [[[1.0, 0.0], [1.0, 0.0]],
                                                           [[0.0, 0.0], [0.0, 0.0]]]
    assert ec2.split_table(prob, [0, 1, 2], [1]).tolist() == [[[3.0, 1.0]], [[0.0, 0.0]]]


def test_split_table_branch_without_worlds_is_exactly_zero():
    # A table over some of the tests is those tests' rows of the table over
    # all of them, up to the BLAS summation order that the shapes decide
    # under these random priors; its unreached branches are exact zeros too.
    rng, pick = np.random.default_rng(4), np.random.default_rng(5)
    for _ in range(50):
        prob = random_problem(rng, prior=lambda n: rng.uniform(0.1, 1.0, n))
        worlds = np.flatnonzero(rng.random(prob.num_hypotheses) < 0.5)
        table = ec2.split_table(prob, worlds, np.arange(prob.num_tests))
        tests = np.flatnonzero(pick.random(prob.num_tests) < 0.5)
        sub = ec2.split_table(prob, worlds, tests)
        assert np.allclose(sub, table[:, tests], rtol=1e-12, atol=0.0)
        theta = prob.outcomes[worlds]
        for o in (0, 1):
            empty = ~(theta == o).any(axis=0)
            assert not table[o, empty].any()
            assert not sub[o, empty[tests]].any()
            assert (table[o, ~empty, 0] > 0).all()


def test_parent_table_minus_sibling_is_child_table():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(200):
        prob = random_problem(rng)
        parent = np.flatnonzero(rng.random(prob.num_hypotheses) < rng.uniform(0.3, 1.0))
        edge = int(rng.integers(prob.num_tests))
        for outcome in (0, 1):
            child = parent[prob.outcomes[parent, edge] == outcome]
            sibling = parent[prob.outcomes[parent, edge] != outcome]
            tests = np.arange(prob.num_tests)
            got = ec2.split_table(prob, parent, tests) - ec2.split_table(prob, sibling, tests)
            assert np.array_equal(got, ec2.split_table(prob, child, tests))
            checked += 1
    assert checked == 400


def test_blocked_split_table_equals_one_block(monkeypatch):
    # Under the uniform prior every block sum is an integer count, so the
    # table does not depend on how the worlds are cut into blocks: one world
    # per block, three worlds per block (an N the block rarely divides) and
    # one block for all.  Nor does it depend on which other tests it holds:
    # a table over some tests is those tests' rows of the table over all.
    rng, pick = np.random.default_rng(17), np.random.default_rng(18)
    for _ in range(100):
        prob = random_problem(rng)
        worlds = np.flatnonzero(rng.random(prob.num_hypotheses) < rng.uniform(0.3, 1.0))
        width = max(prob.num_tests, 1 + prob.membership.shape[1])
        every = np.arange(prob.num_tests)
        tests = np.flatnonzero(pick.random(prob.num_tests) < 0.5)
        tables, subs = [], []
        for budget in (2**40, 3 * width, 1):
            monkeypatch.setattr(ec2, "BLOCK_ELEMENTS", budget)
            tables.append(ec2.split_table(prob, worlds, every))
            subs.append(ec2.split_table(prob, worlds, tests))
        assert tables[0].tobytes() == tables[1].tobytes() == tables[2].tobytes()
        for sub in subs:
            assert sub.tobytes() == tables[0][:, tests].tobytes()


def test_blocked_select_test_equals_one_block(monkeypatch):
    # Worlds, membership rows and candidates in blocks of one row choose the
    # same test with the same score as one block for each.
    rng = np.random.default_rng(19)
    chosen = 0
    for _ in range(200):
        prob = random_problem(rng)
        active = rng.random(prob.num_hypotheses) < rng.uniform(0.3, 1.0)
        status = rng.choice(np.array([0, 0, 1, -1], np.int8), size=prob.num_tests)
        cand = np.flatnonzero(status == 0)
        if not active.any() or cand.size == 0:
            continue
        masked, node = with_active(prob, active)
        picks = []
        for budget in (2**40, 1):
            monkeypatch.setattr(ec2, "BLOCK_ELEMENTS", budget)
            picks.append(ec2.select_test(node, masked, cand))
        assert picks[0] == picks[1]
        chosen += picks[0] is not None
    assert chosen > 50
