"""Closed-form decision-region determination under independent Bernoulli
edge outcomes.

The hypothesis set is the implicit product of all 2^|E| outcome vectors
weighted by a per-edge bias vector.  The one-vs-all pairwise weight of a
region admits a product closed form, which makes every greedy step O(|E| m)
instead of O(2^|E|).  The enumeration engine in :mod:`drdplan.ec2` run over
the explicit 2^|E| world set with product-Bernoulli priors is the defining
oracle for these formulas; the test suite pins them against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ec2 import best_test
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
        if np.any(self.beta <= 0) or np.any(self.beta >= 1):
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
    branches of every edge keep positive probability."""
    lo = (1.0 - alpha) / 2.0
    return np.clip(np.asarray(beta, dtype=np.float64), lo, 1.0 - lo)


def regions_matrix(regions: list[tuple[int, ...]], n_edges: int) -> np.ndarray:
    """(m, E) boolean incidence matrix of path edge sets."""
    mat = np.zeros((len(regions), n_edges), dtype=bool)
    for r, edges in enumerate(regions):
        if len(edges) == 0:
            raise ValueError(f"region {r} has no edges")
        mat[r, list(edges)] = True
    return mat


def _state(belief: BernoulliBelief, inR: np.ndarray):
    """Per-region products used by the closed-form weight.

    Returns (theta, p_r, prod_theta2_r, prod_s_r, S) where
    s_e = theta_e^2 + (1-theta_e)^2 and S = prod of all s_e.
    """
    theta = belief.theta_eff
    s = theta * theta + (1.0 - theta) * (1.0 - theta)
    th2 = theta * theta
    p_r = np.array([np.prod(theta[row]) for row in inR])
    pt2_r = np.array([np.prod(th2[row]) for row in inR])
    ps_r = np.array([np.prod(s[row]) for row in inR])
    S = float(np.prod(s))
    return theta, p_r, pt2_r, ps_r, S


def conditional_region_weights(belief: BernoulliBelief, inR: np.ndarray) -> np.ndarray:
    """Per-region weight with the squared observation mass divided out:
    (1 - p_r^2 - (S - S_r)) / 2, an O(1) quantity however long the
    observation history is.  Same zero set as the full weight."""
    _, p_r, pt2_r, ps_r, S = _state(belief, inR)
    S_r = pt2_r * (S / ps_r)
    return np.maximum(0.5 * (1.0 - p_r * p_r - (S - S_r)), 0.0)


def region_weights_bernoulli(belief: BernoulliBelief, inR: np.ndarray) -> np.ndarray:
    """One-vs-all pairwise weight of every region over the implicit
    product-Bernoulli hypothesis set, conditioned on the observations.

    In conditional terms: w = mass^2 * ((1 - p_r^2 - (S - S_r)) / 2) with
    S_r the in-region share of the squared mass.  Matches the enumeration
    engine's weight of the surviving explicit version space exactly.
    """
    mass = belief.observation_mass()
    return mass * mass * conditional_region_weights(belief, inR)


def weight_bernoulli(belief: BernoulliBelief, edges) -> float:
    """Scalar one-region weight (see region_weights_bernoulli)."""
    inR = regions_matrix([tuple(edges)], belief.num_edges)
    return float(region_weights_bernoulli(belief, inR)[0])


def select_test_bernoulli(
    belief: BernoulliBelief,
    inR: np.ndarray,
    eval_cost: np.ndarray,
    candidates,
    root_weights: np.ndarray,
) -> tuple[int, float] | None:
    """Same selection contract as the enumeration engine: argmax of the
    expected reduction of the completion residual per unit cost,
    (1 - E[residual after] / residual now) / c, ties to the lowest edge
    id, None when nothing scores above zero.  O(|candidates| * m) per
    call.

    Region weights enter in conditional form, (1 - p_r^2 - K_r) / 2 with
    K_r = S - S_r the complement's squared-mass share; K_r is held at its
    current value when projecting an outcome and regions whose posterior
    drops to zero leave the product (see the enumeration engine's
    select_test for the rationale).  Under the independence prior an
    off-region candidate leaves every surviving factor at exactly 1, so
    only edges of plausible regions can score.
    """
    cand = np.asarray(sorted(candidates), dtype=np.int64)
    if cand.size == 0:
        raise ValueError("candidates must be nonempty")
    if any(int(e) in belief.observed for e in cand):
        raise ValueError("candidates must be unobserved edges")

    theta, p_r, pt2_r, ps_r, S = _state(belief, inR)
    K = S - pt2_r * (S / ps_r)
    w_now = 0.5 * (1.0 - p_r * p_r - K)
    mask = (np.asarray(root_weights) > 0) & (p_r > 0) & (w_now > 0)
    if not mask.any():
        return None
    pm, Km, wm = p_r[mask], K[mask], w_now[mask]

    th_c = theta[cand]  # (C,) strictly inside (0, 1)
    Rt = inR[np.ix_(mask, cand)]  # (live regions, C)

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


def solved_region(belief: BernoulliBelief, regions: list[tuple[int, ...]]) -> int | None:
    """Lowest region with every edge observed valid, else None."""
    for r, edges in enumerate(regions):
        if all(belief.observed.get(e) == 1 for e in edges):
            return r
    return None


def all_regions_dead(belief: BernoulliBelief, regions: list[tuple[int, ...]]) -> bool:
    """True when every region holds an observed-invalid edge."""
    return all(
        any(belief.observed.get(e) == 0 for e in edges) for edges in regions
    )


def bisect_policy(
    belief: BernoulliBelief,
    regions: list[tuple[int, ...]],
    eval_cost: np.ndarray,
    oracle,
    policy_name: str = "bisect",
    world_index: int = -1,
) -> RunTrace:
    """Select/query/observe until one region is proven valid or all are
    refuted.  Mutates the belief.  At most |E| evaluations.

    Root weights for the residual are frozen at entry.  If the greedy score
    degenerates (numerical underflow of the residual product), the policy
    falls back to the lowest-id unobserved edge of a still-plausible region,
    which preserves the termination bound.
    """
    inR = regions_matrix(regions, belief.num_edges)
    # Only the positivity mask of the frozen root weights matters to the
    # selection rule; the conditional form cannot underflow however many
    # observations the belief already carries.
    root_weights = conditional_region_weights(belief, inR)
    trace = RunTrace(policy=policy_name, world_index=world_index)

    while True:
        r = solved_region(belief, regions)
        if r is not None:
            trace.terminal = Solved(r)
            trace.path_edges = tuple(regions[r])
            return trace
        if all_regions_dead(belief, regions):
            trace.terminal = AllRegionsDead()
            return trace

        candidates = [e for e in range(belief.num_edges) if e not in belief.observed]
        sel = select_test_bernoulli(belief, inR, eval_cost, candidates, root_weights)
        if sel is not None:
            edge = sel[0]
        else:
            edge = _fallback_edge(belief, regions)
        outcome = int(oracle(edge))
        trace.record(edge, outcome, float(eval_cost[edge]))
        belief.observe(edge, outcome)


def _fallback_edge(belief: BernoulliBelief, regions: list[tuple[int, ...]]) -> int:
    plausible = [
        edges
        for edges in regions
        if not any(belief.observed.get(e) == 0 for e in edges)
    ]
    open_edges = [
        e for edges in plausible for e in edges if e not in belief.observed
    ]
    if not open_edges:
        raise RuntimeError("no open edge on any plausible region; termination bug")
    return min(open_edges)
