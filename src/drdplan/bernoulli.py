"""Closed-form decision-region determination under independent Bernoulli
edge outcomes.

The hypothesis set is the implicit product of all 2^|E| outcome vectors
weighted by a per-edge bias vector.  The one-vs-all pairwise weight of a
region admits a product closed form over the region's own edges, which
makes every greedy step O(|open edges| m) instead of O(2^|E|): the
per-region products come from one gather through the library's padded edge
index (model.Library), and only the open edges, the unknown edges of
regions that are still live, are scored.  The enumeration engine in
:mod:`drdplan.ec2` run over the explicit 2^|E| world set with
product-Bernoulli priors is the defining oracle for these formulas; the
test suite pins them against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ec2 import best_test
from .model import Library, library_status
from .traces import AllRegionsDead, RunTrace, Solved


@dataclass
class BernoulliBelief:
    """Per-edge validity probabilities plus observed outcomes.

    beta holds the prior bias, strictly inside (0, 1); theta_eff is beta for
    unobserved edges and the hard outcome for observed ones.
    """

    beta: np.ndarray
    observed: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if not np.all((self.beta > 0) & (self.beta < 1)):
            raise ValueError("bias entries must lie strictly in (0, 1)")
        self.observed = {int(e): int(o) for e, o in self.observed.items()}

    @property
    def num_edges(self) -> int:
        return self.beta.shape[0]

    @property
    def theta_eff(self) -> np.ndarray:
        theta = self.beta.copy()
        for e, o in self.observed.items():
            theta[e] = float(o)
        return theta

    def observation_mass(self) -> float:
        """Prior probability of everything observed so far."""
        mass = 1.0
        for e, o in self.observed.items():
            mass *= self.beta[e] if o else 1.0 - self.beta[e]
        return float(mass)

    def observe(self, edge: int, outcome: int) -> None:
        if edge in self.observed:
            raise ValueError(f"edge {edge} was already observed")
        self.observed[int(edge)] = int(outcome)


def clamp_bias(beta: np.ndarray, alpha: float) -> np.ndarray:
    """Clip a bias vector into [(1-alpha)/2, 1-(1-alpha)/2] so both outcome
    branches of every edge keep positive probability.  alpha must lie in
    (0, 1), as in trees.bias_vector."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    lo = (1.0 - alpha) / 2.0
    return np.clip(np.asarray(beta, dtype=np.float64), lo, 1.0 - lo)


def _state(belief: BernoulliBelief, library: Library):
    """Per-region products used by the closed-form weight.

    Returns (theta, p_r, prod_theta2_r, prod_s_r, S) where
    s_e = theta_e^2 + (1-theta_e)^2 and S = prod of all s_e.  Each region
    product is one gather through library.index, whose pad entries read a
    trailing 1.0, so every row multiplies its own edges in ascending id
    order and the pad leaves the product unchanged.
    """
    theta = belief.theta_eff
    s = theta * theta + (1.0 - theta) * (1.0 - theta)
    th2 = theta * theta
    idx = library.index
    p_r = np.append(theta, 1.0)[idx].prod(axis=1)
    pt2_r = np.append(th2, 1.0)[idx].prod(axis=1)
    ps_r = np.append(s, 1.0)[idx].prod(axis=1)
    S = float(np.prod(s))
    return theta, p_r, pt2_r, ps_r, S


def conditional_region_weights(belief: BernoulliBelief, library: Library) -> np.ndarray:
    """Per-region weight with the squared observation mass divided out:
    (1 - p_r^2 - (S - S_r)) / 2, an O(1) quantity however long the
    observation history is.  Same zero set as the full weight."""
    _, p_r, pt2_r, ps_r, S = _state(belief, library)
    S_r = pt2_r * (S / ps_r)
    return np.maximum(0.5 * (1.0 - p_r * p_r - (S - S_r)), 0.0)


def region_weights_bernoulli(belief: BernoulliBelief, library: Library) -> np.ndarray:
    """One-vs-all pairwise weight of every region over the implicit
    product-Bernoulli hypothesis set, conditioned on the observations.

    In conditional terms: w = mass^2 * ((1 - p_r^2 - (S - S_r)) / 2) with
    S_r the in-region share of the squared mass.  Matches the enumeration
    engine's weight of the surviving explicit version space exactly.
    """
    mass = belief.observation_mass()
    return mass * mass * conditional_region_weights(belief, library)


def weight_bernoulli(belief: BernoulliBelief, edges) -> float:
    """Scalar one-region weight (see region_weights_bernoulli)."""
    library = Library.build([tuple(edges)], belief.num_edges)
    return float(region_weights_bernoulli(belief, library)[0])


def select_test_bernoulli(
    belief: BernoulliBelief,
    library: Library,
    eval_cost: np.ndarray,
    candidates,
    root_weights: np.ndarray,
) -> tuple[int, float] | None:
    """Same selection contract as the enumeration engine: argmax of the
    expected reduction of the completion residual per unit cost,
    (1 - E[residual after] / residual now) / c, ties to the lowest edge
    id, None when nothing scores above zero.  Scores exactly the given
    candidates, which must be unobserved: O(|candidates| * m) per call on
    top of the region products.

    Region weights enter in conditional form, (1 - p_r^2 - K_r) / 2 with
    K_r = S - S_r the complement's squared-mass share; K_r is held at its
    current value when projecting an outcome and regions whose posterior
    drops to zero leave the product (see the enumeration engine's
    select_test for the rationale).  Under the independence prior an
    off-region candidate leaves every surviving factor at exactly 1, so
    it scores zero up to round-off, about 1e-16 / c.  The SCORE_TOL cut
    removes that only while c is not tiny, so bisect_policy passes the
    open edges alone: the unknown edges of live regions.
    """
    cand = np.sort(np.asarray(candidates, dtype=np.int64))
    if cand.size == 0:
        raise ValueError("candidates must be nonempty")
    theta, p_r, pt2_r, ps_r, S = _state(belief, library)
    th_c = theta[cand]
    # Exact: beta lies strictly inside (0, 1), so only observed edges sit
    # at 0 or 1.
    if np.any((th_c == 0.0) | (th_c == 1.0)):
        raise ValueError("candidates must be unobserved edges")

    K = S - pt2_r * (S / ps_r)
    w_now = 0.5 * (1.0 - p_r * p_r - K)
    mask = (np.asarray(root_weights) > 0) & (p_r > 0) & (w_now > 0)
    if not mask.any():
        return None
    pm, Km, wm = p_r[mask], K[mask], w_now[mask]

    Rt = library.inR[np.ix_(mask, cand)]  # (live regions, C)

    # Outcome 1: on-region probabilities divide out the candidate's theta;
    # off-region factors are exactly 1.
    p1 = np.where(Rt, pm[:, None] / th_c[None, :], pm[:, None])
    w1 = np.maximum(0.5 * (1.0 - p1 * p1 - Km[:, None]), 0.0)
    with np.errstate(divide="ignore"):
        lf1 = (np.log(w1) - np.log(wm)[:, None]).sum(axis=0)
    # Outcome 0: on-region regions die and leave the product; a candidate
    # covering every live region resolves the instance outright.
    l0 = np.where((~Rt).any(axis=0), 0.0, -np.inf)
    with np.errstate(divide="ignore"):
        term1 = np.log(th_c) + lf1
        term0 = np.log(1.0 - th_c) + l0
    return best_test(cand, np.logaddexp(term1, term0), eval_cost[cand])


def bisect_policy(
    belief: BernoulliBelief,
    library: Library,
    eval_cost: np.ndarray,
    oracle,
    policy_name: str = "bisect",
    world_index: int = -1,
) -> RunTrace:
    """Select/query/observe until one region is proven valid or all are
    refuted.  Mutates the belief.  At most |E| evaluations.

    Each step scores the open edges of model.library_status, the
    unobserved edges of regions with no observed-invalid edge; any other
    edge scores only round-off.  Root weights for the residual are frozen
    at entry.  When no candidate scores above ec2.SCORE_TOL (a residual
    product that underflows, or evaluation costs so large that every score
    rounds away), the policy falls back to the first open edge, which
    preserves the termination bound.
    """
    if library.num_edges != belief.num_edges:
        raise ValueError("library and belief disagree on the number of edges")
    # Only the positivity mask of the frozen root weights matters to the
    # selection rule; the conditional form cannot underflow however many
    # observations the belief already carries.
    root_weights = conditional_region_weights(belief, library)
    trace = RunTrace(policy=policy_name, world_index=world_index)

    while True:
        # Exact: beta lies strictly inside (0, 1), so only observed edges
        # sit at 0 or 1.
        theta = belief.theta_eff
        r, live, open_edges = library_status(library.inR, theta == 1.0, theta == 0.0)
        if r is not None:
            trace.terminal = Solved(r)
            trace.path_edges = library.paths[r]
            return trace
        if not live.any():
            trace.terminal = AllRegionsDead()
            return trace

        candidates = np.flatnonzero(open_edges)
        sel = select_test_bernoulli(belief, library, eval_cost, candidates, root_weights)
        edge = sel[0] if sel is not None else int(candidates[0])
        outcome = int(oracle(edge))
        trace.record(edge, outcome, float(eval_cost[edge]))
        belief.observe(edge, outcome)
