"""Exact decision-region determination over an explicit world database.

Hypotheses are database worlds; each candidate path defines a region (the
worlds where all its edges are valid).  A node is an edge status
(drdplan.traces), and its version space is consistent(outcomes, status).
The region-vs-singletons pairwise weight drives a Noisy-OR residual, and
the greedy test has the best expected residual reduction per unit cost.

Weights are pairwise prior masses and are never renormalized as the
version space shrinks.  The DIRECT step (select_test and the eta
handoff of trees.direct_step) reads them through the unit weights,
DrdProblem.unit: the prior rescaled so that its largest entry is 1.0.
Every quantity it compares is a ratio of masses, so the scale changes
nothing in real arithmetic; under a uniform prior every mass becomes an
integer count, exact in any summation order, so restricting the sums to
the active worlds moves no bit and equal scores tie exactly.

region_posterior is the one definition of a region's weight: each
region's posterior p and complement share K over the active worlds.
select_test scores from it, region_weights is the squared active mass
times conditional_weight(p, K), and residual is a ratio of region_weights.
No greedy step reads a root weight: a score is a ratio of residuals, where
it cancels, and a region weight only falls as the version space shrinks,
so a region with weight at an unsolved node had weight at the root.

select_test scores from a split table (split_table): each candidate
test's branch masses, in total and per region, over the active worlds.

split_table, region_posterior and select_test work over fixed blocks of
rows, worlds or candidates, so their float64 scratch stays near
BLOCK_ELEMENTS entries however many worlds a problem holds.  A split
table is the sum of its blocks' tables, exact in integer unit weights;
scores are computed row by row, so a block of candidates scores as it
would among all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Library
from .traces import AllRegionsDead, Solved

# Scores at or below this are treated as "no useful test": a test that
# neither splits nor prunes the active set reduces nothing, and floating
# point must not promote it to a positive gain.
SCORE_TOL = 1e-12

# Float64 entries in one block of split_table's cast outcomes or of
# select_test's gathered rows (1 MB): the working memory of a DIRECT step
# depends on this, |E| and m, not on the number of worlds.
BLOCK_ELEMENTS = 2**17


def _blocks(n: int, width: int):
    """Slices cutting range(n) into blocks of rows width entries wide,
    each holding at most BLOCK_ELEMENTS entries (one row at least)."""
    rows = max(1, BLOCK_ELEMENTS // max(width, 1))
    return [slice(start, start + rows) for start in range(0, n, rows)]


@dataclass
class DrdProblem:
    """Shared read-only matrices plus the unit weights (the prior over its
    largest entry), read at every node's status.  Both 0/1 matrices stay
    uint8; the steps that need floats cast one block of rows at a time.

    library is the path library whose paths the regions are, when they are
    paths (problem_from_dataset); an abstract problem, with regions that
    are only membership columns, has None."""

    membership: np.ndarray  # (N, m) 0/1
    outcomes: np.ndarray  # (N, E) 0/1
    eval_cost: np.ndarray  # (E,) positive
    prior: np.ndarray  # (N,) positive
    library: Library | None = None

    def __post_init__(self) -> None:
        self.membership = np.ascontiguousarray(self.membership, dtype=np.uint8)
        self.outcomes = np.ascontiguousarray(self.outcomes, dtype=np.uint8)
        self.eval_cost = np.asarray(self.eval_cost, dtype=np.float64)
        self.prior = np.asarray(self.prior, dtype=np.float64)
        if self.num_hypotheses == 0:
            raise ValueError("a problem needs at least one world")
        if np.any(self.prior <= 0):
            raise ValueError("prior weights must be strictly positive")
        self.unit = self.prior / self.prior.max()

    @property
    def num_hypotheses(self) -> int:
        return self.outcomes.shape[0]

    @property
    def num_tests(self) -> int:
        return self.outcomes.shape[1]


def problem_from_dataset(dataset, world_indices) -> DrdProblem:
    """DrdProblem over a subset of dataset worlds, under the uniform prior,
    with the dataset's path library."""
    idx = np.asarray(world_indices, dtype=np.int64)
    n = len(idx)
    if n == 0:
        raise ValueError("world_indices must be nonempty")
    return DrdProblem(
        membership=dataset.membership[idx],
        outcomes=dataset.theta[idx],
        eval_cost=dataset.graph.eval_cost,
        prior=np.full(n, 1.0 / n),
        library=Library.of(dataset),
    )


def consistent(outcomes: np.ndarray, status: np.ndarray) -> np.ndarray:
    """Mask over the outcome rows of worlds consistent with the edges
    observed in an episode's status."""
    seen = status != 0
    return (outcomes[:, seen] == (status[seen] > 0)).all(axis=1)


def region_posterior(problem: DrdProblem, act: np.ndarray):
    """(p, K, tot) over the active worlds act, a nonempty index array:
    every region's posterior, its complement's squared-mass share and the
    active mass, in unit weights, from membership rows read in blocks."""
    w = problem.unit[act]
    wsq = w * w
    tot = w.sum()
    m = problem.membership.shape[1]
    a, b = np.zeros(m), np.zeros(m)  # w @ M and wsq @ M over the active rows
    count = np.zeros(m)  # active worlds in each region: sums of 0/1, exact
    # split_table's rows per block: a cast block holds no more rows than its.
    for block in _blocks(act.size, max(problem.num_tests, m)):
        M = problem.membership[act[block]].astype(np.float64)
        a += w[block] @ M
        b += wsq[block] @ M
        count += np.ones(len(M)) @ M

    # A region holding every active world has weight 0, as in the Bernoulli
    # engine (p = 1, K = 0), though float sums can leave it a round-off one.
    full = count == act.size
    K = np.where(full, 0.0, (wsq.sum() - b) / (tot * tot))
    return np.where(full, 1.0, a / tot), K, tot


def region_weights(status: np.ndarray, problem: DrdProblem) -> np.ndarray:
    """One-vs-all pairwise weight of every region over the worlds
    consistent with status, in prior units: the pairwise mass between
    hypotheses in different classes of the region-vs-singletons problem."""
    act = np.flatnonzero(consistent(problem.outcomes, status))
    if act.size == 0:  # an emptied version space holds no pair
        return np.zeros(problem.membership.shape[1])
    p, K, tot = region_posterior(problem, act)
    return (tot * problem.prior.max()) ** 2 * conditional_weight(p, K)


def residual(status: np.ndarray, problem: DrdProblem) -> float:
    """Product of surviving weight fractions over regions with nonzero root
    weight; 1 means untouched, 0 means some subproblem is solved."""
    w, root = region_weights(status, problem), region_weights(np.zeros_like(status), problem)
    mask = root > 0
    return float(np.prod(w[mask] / root[mask])) if mask.any() else 0.0


def conditional_weight(p: np.ndarray, K: np.ndarray) -> np.ndarray:
    """One-vs-all region weight with the squared active mass divided out:
    max((1 - p^2 - K) / 2, 0), with p the region's posterior probability
    and K its complement's squared-mass share."""
    w = 1.0 - p * p - K
    w *= 0.5
    return np.maximum(w, 0.0, out=w)


def live_regions(p: np.ndarray, K: np.ndarray):
    """The regions the residual product runs over: positive posterior and
    positive conditional weight now; no root weight is read (see the
    module docstring).  Returns (mask, K[mask], conditional weight[mask])."""
    w = conditional_weight(p, K)
    mask = (p > 0) & (w > 0)
    return mask, K[mask], w[mask]


def log_residual_ratio(p_o: np.ndarray, Km: np.ndarray, wm: np.ndarray) -> np.ndarray:
    """log(residual after an outcome / residual now), summed over the live
    regions on the last axis of p_o, the regions' posteriors given the
    outcome; Km and wm are what live_regions returns.

    This is the objective both engines optimise, DiRECt's Noisy-OR over
    one-vs-all subproblems, with two adjustments that keep the greedy
    aimed at resolving a region instead of identifying the world: K is
    held at its current value when projecting an outcome (the
    complement-identification share of the weight never pays off here),
    and a region whose posterior drops to zero leaves the product -- its
    one-vs-all subproblem can then only be finished by identification.
    An outcome with no region left resolves everything: -inf."""
    alive = p_o > 0
    lf = conditional_weight(p_o, Km)
    with np.errstate(divide="ignore"):
        np.log(lf, out=lf, where=alive)
    lf -= np.log(wm)
    lf[~alive] = 0.0
    return np.where(alive.any(axis=-1), lf.sum(axis=-1), -np.inf)


def split_table(problem: DrdProblem, worlds, tests) -> np.ndarray:
    """The branch sums of the given tests over the given worlds, in unit
    weights: table[o, i, 0] is the mass of the worlds where edge tests[i]
    has outcome o, and table[o, i, 1 + r] is that branch's mass in region
    r.  Shape (2, len(tests), 1 + m), regions on the last, contiguous axis.

    The worlds are added up in blocks (see _blocks), each gathered from
    the uint8 outcomes at the tests' columns, cast on its own and
    multiplied into one reused partial, so the scratch is a block and a
    table, whatever the number of worlds.  Each outcome of a block is one
    product over its worlds, so a branch that no world reaches is a sum of
    exact zeros, an exact zero; under the uniform prior every block sum is
    an integer count, so the table does not depend on the block size."""
    idx = np.asarray(worlds, dtype=np.int64)
    tests = np.asarray(tests, dtype=np.int64)
    width = 1 + problem.membership.shape[1]
    table = np.empty((2, tests.size, width))
    partial = np.empty((tests.size, width))
    # No worlds make one empty block, whose products are zero tables.
    for i, block in enumerate(_blocks(idx.size, max(problem.num_tests, width)) or [slice(0)]):
        rows = idx[block]
        u = problem.unit[rows]
        X = np.empty((rows.size, width))
        X[:, 0] = u
        np.multiply(problem.membership[rows], u[:, None], out=X[:, 1:])
        th = problem.outcomes[rows[:, None], tests].astype(np.float64)  # (block, tests)
        for o in (1, 0):
            if o == 0:
                np.subtract(1.0, th, out=th)
            if i == 0:  # the first block writes the table, the others add
                np.matmul(th.T, X, out=table[o])
            else:
                table[o] += np.matmul(th.T, X, out=partial)
    return table


def select_test(status: np.ndarray, problem: DrdProblem, candidates) -> tuple[int, float] | None:
    """Greedy test choice: argmax of the expected reduction of the
    completion residual per unit cost, ties to the lowest edge id.  None
    when nothing scores > 0.  Each outcome's residual ratio is
    log_residual_ratio of the regions' posteriors in that branch, with K
    from region_posterior.

    The branch masses are read from split_table of the active worlds (the
    version space of status) and the candidates, at the live regions'
    columns.  Masses are sums of the unit weights over the active worlds
    only.  Under a uniform prior they are integer counts, so the scores
    are those of a problem built from the active worlds alone, bit for
    bit, and tests with equal counts tie exactly and go to the lowest edge
    id.  The active rows of membership and the candidates' rows of the
    table are read in blocks (see _blocks)."""
    cand = np.sort(np.asarray(candidates, dtype=np.int64))
    if cand.size == 0:
        raise ValueError("candidates must be nonempty")

    act = np.flatnonzero(consistent(problem.outcomes, status))
    if act.size == 0:
        return None
    p, K, tot = region_posterior(problem, act)
    mask, Km, wm = live_regions(p, K)
    if not mask.any():
        return None
    table = split_table(problem, act, cand)
    cols = np.concatenate(([0], 1 + np.flatnonzero(mask)))
    log_expected = np.empty(cand.size)
    for block in _blocks(cand.size, table.shape[2]):
        terms = []
        for o in (1, 0):
            T = table[o, block].take(cols, axis=1)  # (C, 1 + live)
            tot_o = T[:, 0]
            # The row of a branch that no world reaches is all zeros: p_o = 0.
            p_o = T[:, 1:] / np.where(tot_o > 0, tot_o, 1.0)[:, None]
            with np.errstate(divide="ignore"):
                terms.append(np.log(tot_o / tot) + log_residual_ratio(p_o, Km, wm))
        np.logaddexp(*terms, out=log_expected[block])
    return best_test(cand, log_expected, problem.eval_cost[cand])


def best_test(
    cand: np.ndarray, log_expected: np.ndarray, cost: np.ndarray
) -> tuple[int, float] | None:
    """The greedy choice shared by both engines: argmax over the sorted
    candidates of (1 - E[residual after] / residual now) / cost, given the
    log of that expectation; None when nothing scores above SCORE_TOL.
    best_tests over one row."""
    edge, score = best_tests(np.zeros(cand.size, np.intp), cand, log_expected, cost, 1)
    return None if edge[0] < 0 else (int(edge[0]), float(score[0]))


def best_tests(rows, cand, log_expected, cost, n_rows: int):
    """best_test in each of n_rows rows at once: the candidate pairs
    (rows, cand) come sorted by row, then edge id.  Returns each row's
    chosen edge (-1 where nothing scores) and its score."""
    scores = (1.0 - np.exp(log_expected)) / cost
    scores = np.where(scores > SCORE_TOL, scores, 0.0)
    # Real-arithmetic argmax of (1 - E)/c: the float score saturates at 1/c
    # once E is tiny, so break float-score ties by the log-domain expected
    # residual per cost, then by lowest edge id.
    tie_key = log_expected + np.log(cost)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    top = np.maximum.reduceat(scores, starts)  # each row's best score
    tied = np.repeat(top, np.diff(starts, append=rows.size))
    at = np.flatnonzero((scores == tied) & (scores > 0.0))
    order = at[np.lexsort((cand[at], tie_key[at], rows[at]))]
    first = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]  # each row's choice
    edge, score = np.full(n_rows, -1, np.int64), np.zeros(n_rows)
    edge[rows[first]], score[rows[first]] = cand[first], scores[first]
    return edge, score


def observe(status: np.ndarray, edge: int, outcome: int) -> np.ndarray:
    """A copy of status marking the edge with its outcome; ValueError if already marked."""
    if status[edge] != 0:
        raise ValueError(f"edge {edge} was already observed")
    status = status.copy()
    status[edge] = 1 if outcome else -1
    return status


def is_solved(status: np.ndarray, problem: DrdProblem):
    """Solved(lowest region holding the whole version space of status),
    AllRegionsDead when no region holds any of it (off_database when it is
    empty), else None while it spans several regions.  Region counts are
    int64 sums of membership rows read in blocks (see _blocks)."""
    act = np.flatnonzero(consistent(problem.outcomes, status))
    if act.size == 0:
        return AllRegionsDead(off_database=True)
    counts = np.zeros(problem.membership.shape[1], dtype=np.int64)
    for block in _blocks(act.size, max(problem.num_tests, counts.size)):
        counts += problem.membership[act[block]].sum(axis=0, dtype=np.int64)
    full = np.nonzero(counts >= act.size)[0]
    if full.size:
        return Solved(int(full[0]))
    if not (counts > 0).any():
        return AllRegionsDead()
    return None
