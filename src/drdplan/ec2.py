"""Exact decision-region determination over an explicit world database.

Hypotheses are database worlds; each candidate path defines a region (the
worlds where all its edges are valid).  The region-vs-singletons pairwise
weight drives a Noisy-OR residual, and the greedy policy picks the test
with the best expected residual reduction per unit cost.

Weights are pairwise prior masses and are never renormalized as the
version space shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .traces import AllRegionsDead, Handoff, RunTrace, Solved, Unsolved

# Scores at or below this are treated as "no useful test": a test that
# neither splits nor prunes the active set reduces nothing, and floating
# point must not promote it to a positive gain.
SCORE_TOL = 1e-12


@dataclass(frozen=True)
class VersionSpace:
    """Surviving hypotheses with their (fixed) prior weights."""

    active: np.ndarray  # bool, one flag per hypothesis
    prior: np.ndarray  # positive reals, never renormalized
    observed: dict[int, int] = field(default_factory=dict)

    @property
    def active_count(self) -> int:
        return int(self.active.sum())

    def active_weight(self) -> float:
        return float(self.prior[self.active].sum())


@dataclass
class DrdProblem:
    """Shared read-only matrices plus cached root-region weights."""

    membership: np.ndarray  # (N, m) 0/1
    outcomes: np.ndarray  # (N, E) 0/1
    eval_cost: np.ndarray  # (E,) positive
    prior: np.ndarray  # (N,) positive

    def __post_init__(self) -> None:
        self.membership = np.ascontiguousarray(self.membership, dtype=np.float64)
        self.outcomes = np.ascontiguousarray(self.outcomes, dtype=np.uint8)
        self.eval_cost = np.asarray(self.eval_cost, dtype=np.float64)
        self.prior = np.asarray(self.prior, dtype=np.float64)
        if np.any(self.prior <= 0):
            raise ValueError("prior weights must be strictly positive")
        self.root_weights = region_weights(
            np.ones(self.outcomes.shape[0], dtype=bool), self.prior, self.membership
        )

    @property
    def num_hypotheses(self) -> int:
        return self.outcomes.shape[0]

    @property
    def num_tests(self) -> int:
        return self.outcomes.shape[1]

    def root_version_space(self) -> VersionSpace:
        return VersionSpace(
            active=np.ones(self.num_hypotheses, dtype=bool), prior=self.prior
        )


def problem_from_dataset(dataset, world_indices, prior=None) -> DrdProblem:
    """DrdProblem over a subset of dataset worlds (uniform prior default)."""
    idx = np.asarray(world_indices, dtype=np.int64)
    n = len(idx)
    if n == 0:
        raise ValueError("world_indices must be nonempty")
    if prior is None:
        prior = np.full(n, 1.0 / n)
    return DrdProblem(
        membership=dataset.membership[idx],
        outcomes=dataset.theta[idx],
        eval_cost=dataset.graph.eval_cost,
        prior=prior,
    )


def region_weights(active: np.ndarray, prior: np.ndarray, membership: np.ndarray) -> np.ndarray:
    """One-vs-all pairwise weight of every region over the active set.

    For region r with in-region mass a, out mass b and out squared mass
    b_sq: w_r = ((a+b)^2 - a^2 - b_sq) / 2, the total pairwise mass between
    hypotheses in different classes of the region-vs-singletons problem.
    """
    p = prior * active
    psq = p * p
    tot = p.sum()
    a = p @ membership
    bsq = psq.sum() - psq @ membership
    return np.maximum(0.5 * (tot * tot - a * a - bsq), 0.0)


def weight_ec(vs: VersionSpace, problem: DrdProblem, r: int) -> float:
    """Weight of the r-th one-vs-all subproblem on the current version space."""
    return float(region_weights(vs.active, vs.prior, problem.membership)[r])


def residual_from_weights(weights: np.ndarray, root_weights: np.ndarray) -> float:
    """Product of surviving weight fractions over regions with nonzero root
    weight; 1 means untouched, 0 means some subproblem is solved."""
    mask = root_weights > 0
    if not mask.any():
        return 0.0
    return float(np.prod(weights[mask] / root_weights[mask]))


def residual(vs: VersionSpace, problem: DrdProblem) -> float:
    w = region_weights(vs.active, vs.prior, problem.membership)
    return residual_from_weights(w, problem.root_weights)


def select_test(
    vs: VersionSpace, problem: DrdProblem, candidates
) -> tuple[int, float] | None:
    """Greedy test choice: argmax of the expected reduction of the
    completion residual per unit cost, ties to the lowest edge id.  None
    when nothing scores > 0.

    Scores use conditional region weights, w_r / (active mass)^2 =
    (1 - p_r^2 - K_r) / 2 with p_r the region's posterior probability and
    K_r its complement's squared-mass share.  Two adjustments keep the
    greedy aimed at resolving a region instead of identifying the world:
    K_r is held at its current value when projecting an outcome (the
    complement-identification share of the weight never pays off here),
    and a region whose posterior drops to zero leaves the product -- its
    one-vs-all subproblem can then only be finished by identification.
    An outcome with no plausible region left resolves everything and
    counts as zero residual.  Score = (1 - E[residual after] / residual
    now) / c, evaluated in log space."""
    cand = np.asarray(sorted(candidates), dtype=np.int64)
    if cand.size == 0:
        raise ValueError("candidates must be nonempty")

    M = problem.membership
    p = vs.prior * vs.active
    psq = p * p
    tot = p.sum()
    if tot <= 0:
        return None

    a_all = p @ M
    bsq_all = psq.sum() - psq @ M
    p_now = a_all / tot
    K = bsq_all / (tot * tot)
    w_now = 0.5 * (1.0 - p_now**2 - K)
    mask = (problem.root_weights > 0) & (a_all > 0) & (w_now > 0)
    if not mask.any():
        return None
    Km, wm = K[mask], w_now[mask]

    Th = problem.outcomes[:, cand].astype(np.float64)
    X1 = Th * p[:, None]  # (N, C)
    X0 = (1.0 - Th) * p[:, None]
    # branch masses computed directly (not by subtraction) so that a branch
    # with no surviving mass is an exact zero
    tot1 = X1.sum(axis=0)  # (C,)
    tot0 = X0.sum(axis=0)
    a1 = (X1.T @ M)[:, mask]  # (C, live regions)
    a0 = (X0.T @ M)[:, mask]

    def _branch(tot_o, a_o):
        ok = tot_o > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            p_o = np.where(ok[:, None], a_o / np.where(ok, tot_o, 1.0)[:, None], 0.0)
        w_o = np.maximum(0.5 * (1.0 - p_o**2 - Km[None, :]), 0.0)
        alive = a_o > 0
        with np.errstate(divide="ignore"):
            lf = np.where(alive, np.log(w_o) - np.log(wm)[None, :], 0.0)
        lprod = lf.sum(axis=1)
        return ok, np.where(alive.any(axis=1), lprod, -np.inf)

    ok1, l1 = _branch(tot1, a1)
    ok0, l0 = _branch(tot0, a0)
    with np.errstate(divide="ignore"):
        term1 = np.where(ok1, np.log(np.where(ok1, tot1, 1.0) / tot) + l1, -np.inf)
        term0 = np.where(ok0, np.log(np.where(ok0, tot0, 1.0) / tot) + l0, -np.inf)
    return best_test(cand, np.logaddexp(term1, term0), problem.eval_cost[cand])


def best_test(
    cand: np.ndarray, log_expected: np.ndarray, cost: np.ndarray
) -> tuple[int, float] | None:
    """The greedy choice shared by both engines: argmax over the sorted
    candidates of (1 - E[residual after] / residual now) / cost, given the
    log of that expectation; None when nothing scores above SCORE_TOL."""
    scores = (1.0 - np.exp(log_expected)) / cost
    scores = np.where(scores > SCORE_TOL, scores, 0.0)
    if not np.any(scores > 0.0):
        return None
    # Real-arithmetic argmax of (1 - E)/c: the float score saturates at 1/c
    # once E is tiny, so break float-score ties by the log-domain expected
    # residual per cost, then by lowest edge id (cand is sorted and the
    # sort is stable).
    tie_key = log_expected + np.log(cost)
    best = np.lexsort((tie_key, -scores))[0]
    return int(cand[best]), float(scores[best])


def observe(
    vs: VersionSpace, problem: DrdProblem, edge: int, outcome: int
) -> VersionSpace:
    """Prune hypotheses inconsistent with the observed outcome."""
    if edge in vs.observed:
        raise ValueError(f"edge {edge} was already observed")
    new_active = vs.active & (problem.outcomes[:, edge] == outcome)
    new_observed = dict(vs.observed)
    new_observed[int(edge)] = int(outcome)
    return VersionSpace(active=new_active, prior=vs.prior, observed=new_observed)


def is_solved(vs: VersionSpace, problem: DrdProblem):
    """Solved(lowest region containing all active hypotheses),
    AllRegionsDead when every region lost all active mass, else Unsolved."""
    act = vs.active
    n_act = int(act.sum())
    if n_act == 0:
        return AllRegionsDead(off_database=True)
    counts = act.astype(np.float64) @ problem.membership
    full = np.nonzero(counts >= n_act)[0]
    if full.size:
        return Solved(int(full[0]))
    if not (counts > 0).any():
        return AllRegionsDead()
    return Unsolved()


def direct_step(vs: VersionSpace, problem: DrdProblem, eta: float):
    """The DIRECT decision at a version space: Solved or AllRegionsDead
    per is_solved; Handoff() when the active weight is at or below eta
    times the prior sum, or no unobserved test scores; else the edge id of
    the next test."""
    status = is_solved(vs, problem)
    if isinstance(status, (Solved, AllRegionsDead)):
        return status
    if vs.active_weight() > eta * float(problem.prior.sum()):
        candidates = [e for e in range(problem.num_tests) if e not in vs.observed]
        sel = select_test(vs, problem, candidates) if candidates else None
        if sel is not None:
            return sel[0]
    return Handoff()


def direct_policy(
    problem: DrdProblem,
    oracle,
    eta: float,
    policy_name: str = "direct",
    world_index: int = -1,
) -> tuple[RunTrace, VersionSpace]:
    """Greedy explicit-database policy loop: direct_step until it returns
    a terminal (Solved, AllRegionsDead or Handoff; the caller decides what
    a handoff leads to).  Returns the trace and the final version space.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    vs = problem.root_version_space()
    trace = RunTrace(policy=policy_name, world_index=world_index)
    while True:
        step = direct_step(vs, problem, eta)
        if not isinstance(step, int):
            trace.terminal = step
            return trace, vs
        outcome = int(oracle(step))
        trace.record(step, outcome, float(problem.eval_cost[step]))
        vs = observe(vs, problem, step, outcome)
