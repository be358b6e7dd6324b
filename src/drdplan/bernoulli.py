"""Closed-form decision-region determination under independent Bernoulli
edge outcomes.

The hypothesis set is the implicit product of all 2^|E| outcome vectors
weighted by a per-edge bias vector.  The one-vs-all pairwise weight of a
region admits a product closed form over the region's own edges, which
makes every greedy step O(|open edges| m) instead of O(2^|E|): the
per-region products come from one gather through the library's padded edge
index (model.Library), and only the open edges, the unknown edges of
regions that are still live, are scored.  region_posterior, from those
products, is the one definition of a region's weight: select_test_bernoulli
scores from it and region_weights_bernoulli derives from it.  The
enumeration engine in
:mod:`drdplan.ec2` run over the explicit 2^|E| world set with
product-Bernoulli priors is the defining oracle for these formulas; the
test suite pins them against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ec2 import best_test, conditional_weight, live_regions, log_residual_ratio
from .model import Library, LibraryStatus
from .traces import AllRegionsDead, RunTrace, Solved


@dataclass
class BernoulliBelief:
    """Per-edge validity probabilities over an episode's edge status.

    beta holds the prior bias, strictly inside (0, 1).  status is the
    episode's edge status (drdplan.traces), held without copying, so what
    the caller evaluates into it the belief has observed; all unknown when
    None.  theta_eff is beta for unknown edges, the outcome for the rest.
    """

    beta: np.ndarray
    status: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if not np.all((self.beta > 0) & (self.beta < 1)):
            raise ValueError("bias entries must lie strictly in (0, 1)")
        if self.status is None:
            self.status = np.zeros(self.beta.shape[0], dtype=np.int8)

    @property
    def num_edges(self) -> int:
        return self.beta.shape[0]

    @property
    def theta_eff(self) -> np.ndarray:
        return np.where(self.status == 0, self.beta, self.status > 0)

    def observation_mass(self) -> float:
        """Prior probability of everything observed: np.prod over the
        observed edges, gathered in ascending edge-id order."""
        obs = self.status != 0
        return float(np.prod(np.where(self.status[obs] > 0, self.beta[obs], 1.0 - self.beta[obs])))

    def observe(self, edge: int, outcome: int) -> None:
        if self.status[edge] != 0:
            raise ValueError(f"edge {edge} was already observed")
        self.status[edge] = 1 if outcome else -1


def _state(belief: BernoulliBelief, library: Library, state=None, edge: int | None = None):
    """Per-region products used by the closed-form weight.

    Returns (theta, p_r, prod_theta2_r, prod_s_r, S) where
    s_e = theta_e^2 + (1-theta_e)^2 and S = prod of all s_e.  Each region
    product is one gather through library.index, whose pad entries read a
    trailing 1.0, so every row multiplies its own edges in ascending id
    order and the pad leaves the product unchanged.

    Built over every row when state is None.  Given the state from before
    the belief observed edge, updates it in place over the rows of the
    paths through the edge, library.through[edge], multiplied in the same
    order: every product keeps the bits a state from scratch gives it.
    """
    if state is None:
        theta = belief.theta_eff
        p_r, pt2_r, ps_r = np.empty((3, library.index.shape[0]))
        rows = slice(None)
    else:
        theta, p_r, pt2_r, ps_r, _ = state
        theta[edge] = belief.status[edge] > 0
        rows = library.through[edge]
    t = np.append(theta, 1.0)[library.index[rows]]
    t2 = t * t
    p_r[rows], pt2_r[rows] = t.prod(axis=1), t2.prod(axis=1)
    ps_r[rows] = (t2 + (1.0 - t) * (1.0 - t)).prod(axis=1)
    return theta, p_r, pt2_r, ps_r, float(np.prod(theta * theta + (1.0 - theta) * (1.0 - theta)))


def region_posterior(state):
    """(p_r, K_r) of every region from a _state: its posterior and its
    complement's squared-mass share K_r = S - S_r, with S_r the in-region
    share of the squared mass."""
    _, p_r, pt2_r, ps_r, S = state
    return p_r, S - pt2_r * (S / ps_r)


def region_weights_bernoulli(belief: BernoulliBelief, library: Library) -> np.ndarray:
    """One-vs-all pairwise weight of every region over the implicit
    product-Bernoulli hypothesis set, conditioned on the observations:
    mass^2 * ec2.conditional_weight of region_posterior, with mass the
    prior probability of the observations.  Matches the enumeration
    engine's weight of the surviving explicit version space exactly.
    """
    mass = belief.observation_mass()
    return mass * mass * conditional_weight(*region_posterior(_state(belief, library)))


def select_test_bernoulli(
    belief: BernoulliBelief,
    library: Library,
    eval_cost: np.ndarray,
    candidates,
    state=None,
) -> tuple[int, float] | None:
    """Same selection contract as the enumeration engine: argmax of the
    expected reduction of the completion residual per unit cost,
    (1 - E[residual after] / residual now) / c, ties to the lowest edge
    id, None when nothing scores above zero.  Scores exactly the given
    candidates, which must be unobserved: O(|candidates| * m) per call on
    top of the region products.

    The objective is the enumeration engine's, ec2.log_residual_ratio, of
    region_posterior; only the branch posteriors are this engine's own.
    Under the independence prior an off-region candidate leaves every
    surviving factor at exactly 1, so it scores zero up to round-off,
    about 1e-16 / c.  The SCORE_TOL cut removes that only while c is not
    tiny, so bisect_policy passes the open edges alone: the unknown edges
    of live regions.

    state, when given, is the belief's _state, carried by the caller; None
    builds it from the belief.
    """
    cand = np.sort(np.asarray(candidates, dtype=np.int64))
    if cand.size == 0:
        raise ValueError("candidates must be nonempty")
    state = _state(belief, library) if state is None else state
    if np.any(belief.status[cand] != 0):
        raise ValueError("candidates must be unobserved edges")
    th_c = state[0][cand]

    p_r, K_r = region_posterior(state)
    mask, Km, wm = live_regions(p_r, K_r)
    if not mask.any():
        return None
    pm = p_r[mask]

    Rt = library.inR[np.ix_(mask, cand)].T  # (C, live regions)

    # Outcome 1: on-region posteriors divide out the candidate's theta;
    # off-region factors are exactly 1.
    l1 = log_residual_ratio(np.where(Rt, pm / th_c[:, None], pm), Km, wm)
    # Outcome 0, log_residual_ratio in closed form (no log pass): on-region
    # regions die and leave the product, the others keep factor 1, and a
    # candidate covering every live region resolves the instance outright.
    l0 = np.where((~Rt).any(axis=1), 0.0, -np.inf)
    with np.errstate(divide="ignore"):
        term1 = np.log(th_c) + l1
        term0 = np.log(1.0 - th_c) + l0
    return best_test(cand, np.logaddexp(term1, term0), eval_cost[cand])


def bisect_policy(
    belief: BernoulliBelief,
    library: Library,
    eval_cost: np.ndarray,
    oracle,
    trace: RunTrace,
    memo: dict | None = None,
) -> RunTrace:
    """Select/query/observe until one region is proven valid or all are
    refuted.  Extends the caller's trace and the belief's status (the
    episode state of drdplan.traces) and returns the trace with its
    terminal set; edges already observed there are never evaluated again.
    At most |E| evaluations.

    Each step scores the open edges of a model.LibraryStatus of the
    belief's status: the unobserved edges of regions with no
    observed-invalid edge; any other edge scores only round-off.  The
    status and the region products (_state) are built at the episode's
    first trie node with no step yet.  That node has no children, so every
    later node of the episode is new too: after each evaluation the status
    observes the edge and the products of the paths through it are
    gathered again (_state given the state before), bit for bit the state
    built from scratch.  No root weight is read: the score is a ratio of
    residuals, and a region with weight now had weight at entry.  When no
    candidate scores above ec2.SCORE_TOL (a residual product that
    underflows, or evaluation costs so large that every score rounds
    away), the policy falls back to the first open edge, which preserves
    the termination bound.

    memo is the root of a decision trie that the episodes entering with one
    belief (bias and status) share; None gives a private one.  A node maps
    "step" to its step once computed (Solved, AllRegionsDead or an edge id)
    and each outcome, 0 or 1, to a child; the root is a node like any
    other.  A step depends only on that belief, the library, eval_cost and
    the outcomes on the way to its node, so each node's step is computed
    once.
    """
    if library.num_edges != belief.num_edges:
        raise ValueError("library and belief disagree on the number of edges")
    node = {} if memo is None else memo
    paths = state = None  # built at the first node with no step
    while True:
        if "step" not in node:
            if paths is None:
                paths = LibraryStatus(library, belief.status)
                state = _state(belief, library)
            r = paths.solved
            if r is not None:
                node["step"] = Solved(r)
            elif not paths.live.any():
                node["step"] = AllRegionsDead()
            else:
                cand = np.flatnonzero(paths.open)
                sel = select_test_bernoulli(belief, library, eval_cost, cand, state)
                node["step"] = sel[0] if sel is not None else int(cand[0])
        step = node["step"]
        if not isinstance(step, int):  # a verdict
            trace.terminal = step
            if isinstance(step, Solved):
                trace.path_edges = library.paths[step.path_index]
            return trace
        outcome = trace.evaluate(step, oracle, eval_cost, belief.status)
        if paths is not None:
            paths.observe(step, outcome)
            state = _state(belief, library, state, step)
        node = node.setdefault(outcome, {})
