"""Closed-form decision-region determination under independent Bernoulli
edge outcomes.

The hypothesis set is the implicit product of all 2^|E| outcome vectors
weighted by a per-edge bias vector, conditioned on the outcomes seen so
far.  So a belief is a bias row over the episode's edge status
(drdplan.traces), and every entry point takes that pair: one (E,) beta
and status for select_test_bernoulli, region_weights_bernoulli and
bisect_policy, which check it, and (B, E) blocks of both for
bisect_steps.  bisect_policy marks the caller's status through
RunTrace.evaluate, as every policy does.

The one-vs-all pairwise weight of a region admits a product closed form
over the region's own edges, which makes every greedy step
O(|open edges| m) instead of O(2^|E|): each region's products come from
one gather of its belief's row through the library's padded edge index
(model.Library), and only the open edges, the unknown edges of regions
that are still live, are scored.
region_posterior builds those products for any set of (row, path) pairs
and is the one definition of a region's weight: _select scores from it
and region_weights_bernoulli derives from it.

bisect_steps is the one code that decides a BISECT step, for a block of
beliefs at once: a verdict, _select's greedy choice, or the fallback edge.
select_test_bernoulli is _select's one-row case over given candidates.
set_walk uses bisect_steps to run BISECT for many worlds at once, one trie
level per pass: a run fills its tries with it, and compile-tree sums
BISECT's cost over training worlds with it to prune the tree
(drdplan.trees).  bisect_policy replays one episode along a trie and asks
bisect_steps for any step missing there.  The enumeration engine in
:mod:`drdplan.ec2` run over the explicit 2^|E| world set with
product-Bernoulli priors is the defining oracle for these formulas; the
test suite pins them against it.
"""

from __future__ import annotations

import numpy as np

from .ec2 import _blocks, best_tests, conditional_weight, live_regions
from .model import Library, LibraryStatus
from .traces import AllRegionsDead, RunTrace, Solved


def _padded(theta: np.ndarray) -> np.ndarray:
    """theta with a trailing 1.0 on its last axis, which the pad entries of
    Library.index read."""
    return np.concatenate((theta, np.ones(theta.shape[:-1] + (1,))), axis=-1)


def region_posterior(theta: np.ndarray, regions, library: Library):
    """(p, K) of each (row, path) pair of regions, two index arrays: the
    path's posterior under its row of the (B, E) edge probabilities theta,
    and its complement's squared-mass share K = S - S_r, with S the product
    of s = theta^2 + (1-theta)^2 over the row's edges and S_r the path's
    own share of it.

    The path products of theta, theta^2 and s run over one gather of the
    row of a _padded theta through library.index: each multiplies the
    path's own edges in ascending id order and the pad leaves the product
    unchanged, so a pair gets the same bits among any other pairs."""
    rows, paths = regions
    t = _padded(theta)[rows[:, None], library.index[paths]]
    t2 = t * t
    p, pt2 = t.prod(axis=-1), t2.prod(axis=-1)
    np.subtract(1.0, t, out=t)  # t is a gather of its own: reuse it for (1-t)^2 + t^2
    t *= t
    t += t2
    ps = t.prod(axis=-1)
    s = 1.0 - theta
    s *= s
    s += theta * theta
    S = s.prod(axis=-1)[rows]
    return p, S - pt2 * (S / ps)


def _belief_row(beta: np.ndarray, status: np.ndarray, library: Library):
    """(theta, regions): the belief (beta, status) as one (1, E) row of
    edge probabilities, beta at the unknown edges of status and the
    outcome at the rest, and every path of it as a region.  ValueError
    unless every bias lies strictly inside (0, 1) and beta, status and the
    library agree on |E|."""
    if not np.all((beta > 0) & (beta < 1)):
        raise ValueError("bias entries must lie strictly in (0, 1)")
    if not np.shape(beta) == np.shape(status) == (library.num_edges,):
        raise ValueError("bias, status and library disagree on the number of edges")
    m = library.index.shape[0]
    return np.where(status == 0, beta, status > 0)[None], (np.zeros(m, dtype=np.intp), np.arange(m))


def region_weights_bernoulli(beta: np.ndarray, status: np.ndarray, library: Library) -> np.ndarray:
    """One-vs-all pairwise weight of every region over the implicit
    product-Bernoulli hypothesis set under bias beta, conditioned on the
    outcomes in status: mass^2 * ec2.conditional_weight of
    region_posterior, with mass the prior probability of those outcomes
    (np.prod over the observed edges, in ascending edge id).  Matches the
    enumeration engine's weight of the surviving explicit version space
    exactly.
    """
    theta, regions = _belief_row(beta, status, library)
    obs = status != 0
    mass = float(np.prod(np.where(status[obs] > 0, beta[obs], 1.0 - beta[obs])))
    return mass * mass * conditional_weight(*region_posterior(theta, regions, library))


def _select(theta, regions, rows, cand, library: Library, eval_cost: np.ndarray):
    """The greedy step over a block of B rows (beliefs): each row's best
    candidate by ec2.best_tests, -1 where nothing scores or no region is
    live.  theta holds the rows' (B, E) edge probabilities and regions =
    (row, path) pairs, row-major, that hold every region with positive
    posterior, whose region_posterior is scored.
    The candidate pairs (rows, cand) are unobserved edges, sorted by row,
    then edge id, none repeated.

    The objective is ec2.log_residual_ratio of region_posterior; only the
    branch posteriors are this engine's own.  Outcome 1 divides the
    candidate's theta out of the posterior of each live region through
    it, and leaves every other region's factor at exactly 1: its term of
    the log ratio is an exact zero.  So each candidate's outcome-1 sum
    runs over the live regions through it alone, in ascending region
    order (one np.bincount keyed by row and edge); log_residual_ratio
    would add the zeros too, in numpy's pairwise order, which can round
    differently.  Outcome 0 kills the
    live regions through the candidate and keeps the others at factor 1:
    its log ratio is 0, or -inf when the candidate lies on every live
    region, which resolves the instance outright.  Rows are independent,
    so a block of any size gives every row the bits it gets alone.
    """
    n_rows, width = theta.shape[0], library.num_edges + 1
    p, K = region_posterior(theta, regions, library)
    mask, Km, wm = live_regions(p, K)
    live_row, live_path = regions[0][mask], regions[1][mask]
    # Each live region's edges, keyed width * row + edge as in
    # LibraryStatus.cover, and each term of the outcome-1 log ratio.
    # Row-major, so each key's regions come in ascending order; a
    # candidate reads its own key's sum and count.
    edges = (live_row[:, None], library.index[live_path])
    keys = (width * edges[0] + edges[1]).ravel()
    with np.errstate(divide="ignore"):
        term = np.log(conditional_weight(p[mask][:, None] / _padded(theta)[edges], Km[:, None]))
    term -= np.log(wm)[:, None]
    at = width * rows + cand
    l1 = np.bincount(keys, weights=term.ravel(), minlength=width * n_rows)[at]
    n_live = np.bincount(live_row, minlength=n_rows)
    l0 = np.where(np.bincount(keys, minlength=width * n_rows)[at] < n_live[rows], 0.0, -np.inf)
    th = theta[rows, cand]
    with np.errstate(divide="ignore"):
        log_expected = np.logaddexp(np.log(th) + l1, np.log(1.0 - th) + l0)
    edge, score = best_tests(rows, cand, log_expected, eval_cost[cand], n_rows)
    edge[n_live == 0] = -1
    return edge, score


def select_test_bernoulli(
    beta: np.ndarray,
    status: np.ndarray,
    library: Library,
    eval_cost: np.ndarray,
    candidates,
) -> tuple[int, float] | None:
    """Same selection contract as the enumeration engine: argmax of the
    expected reduction of the completion residual per unit cost,
    (1 - E[residual after] / residual now) / c, ties to the lowest edge
    id, None when nothing scores above zero.  Scores exactly the given
    candidates, which must be unobserved: _select over one row.
    """
    theta, regions = _belief_row(beta, status, library)
    cand = np.sort(np.asarray(candidates, dtype=np.int64))
    cand = cand[np.diff(cand, prepend=-1) > 0]  # not np.unique, which imports numpy.ma
    if cand.size == 0:
        raise ValueError("candidates must be nonempty")
    if np.any(status[cand] != 0):
        raise ValueError("candidates must be unobserved edges")
    rows = np.zeros(cand.size, dtype=np.intp)
    edge, score = _select(theta, regions, rows, cand, library, eval_cost)
    return None if edge[0] < 0 else (int(edge[0]), float(score[0]))


def bisect_steps(beta: np.ndarray, status: np.ndarray, library: Library, eval_cost: np.ndarray) -> list:
    """BISECT's step at each row of a block: B beliefs, each a (B, E) row
    of bias and of edge status.  This is the one code that decides a
    BISECT step.  A step is Solved(r) for the lowest path whose edges are
    all known valid (the shortest, by model.validate_dataset), else
    AllRegionsDead() when no path is live, else the edge to test:
    _select's choice over the row's open edges, or its first open edge
    when nothing scores.

    The open edges (model.LibraryStatus) are the unknown edges of live
    paths.  Under the independence prior any other edge leaves every
    surviving factor at exactly 1, so it scores zero up to the round-off
    of log(theta) and log(1 - theta), about 1e-16 / c, which the
    ec2.SCORE_TOL cut removes only while c is not tiny.  No open edge
    scores above SCORE_TOL when a residual product underflows or the
    evaluation costs are so large that every score rounds away; the first
    open edge then keeps the termination bound, since every step tests an
    unknown edge of a live path: at most |E| evaluations per episode.  No
    root weight is read: a score is a ratio of residuals, and a region
    with weight now had weight at entry.  Rows are independent, so a block of any size gives every row the step
    it gets alone."""
    paths = LibraryStatus(library, status)
    proven = paths.remaining == 0
    solved = np.where(proven.any(axis=1), proven.argmax(axis=1), -1)
    steps = [Solved(int(r)) if r >= 0 else AllRegionsDead() for r in solved.tolist()]
    todo = np.flatnonzero((solved < 0) & paths.live.any(axis=1))
    if todo.size:
        st = status[todo]
        theta = np.where(st == 0, beta[todo], st > 0)
        # Only the live paths can have positive posterior, so only their
        # region products are built.
        regions = np.nonzero(paths.live[todo])
        rows, cand = np.nonzero(paths.open[todo])
        edge, _ = _select(theta, regions, rows, cand, library, eval_cost)
        first = cand[np.searchsorted(rows, np.arange(todo.size))]
        for i, e in zip(todo.tolist(), np.where(edge >= 0, edge, first).tolist()):
            steps[i] = e
    return steps


def set_walk(library: Library, eval_cost: np.ndarray, outcomes: np.ndarray, roots) -> np.ndarray:
    """BISECT from many entry beliefs at once, over the worlds that reach
    each: fills each root's decision trie (see bisect_policy) along every
    path its worlds take, and returns the (len(roots), E) count of each
    root's evaluations of each edge, summed over its worlds.

    roots holds (beta, status, worlds, trie) per entry: the (E,) bias and
    int8 edge status BISECT enters with, the indices of its worlds, rows
    of outcomes (known 0/1 outcome rows), and the trie's root node.  The
    walk runs one trie level at a time: the nodes the worlds reach at that
    level are scored in blocks of rows, each block one bisect_steps call;
    then the worlds of each node that tests an edge split by their outcome
    there into its children, the next level.  A block's (rows, E) and
    (regions, Lmax) arrays hold at most half of ec2.BLOCK_ELEMENTS entries
    each, since a step holds several of them at once."""
    counts = np.zeros((len(roots), library.num_edges), dtype=np.int64)
    betas = np.array([root[0] for root in roots], dtype=np.float64)
    level = [i for i, root in enumerate(roots) if len(root[2])]
    owner = np.array(level, dtype=np.intp)  # each node's root
    status = np.array([roots[i][1] for i in level], dtype=np.int8).reshape(len(level), library.num_edges)
    worlds = [np.asarray(roots[i][2], dtype=np.intp) for i in level]
    tries = [roots[i][3] for i in level]
    width = 2 * max(library.num_edges + 1, library.index.size)
    while tries:
        steps = []
        for block in _blocks(len(tries), width):
            steps += bisect_steps(betas[owner[block]], status[block], library, eval_cost)
        for trie, step in zip(tries, steps):
            trie["step"] = step
        tests = [k for k, step in enumerate(steps) if isinstance(step, int)]
        if not tests:
            break
        edge = np.array([steps[k] for k in tests], dtype=np.intp)
        sizes = np.array([worlds[k].size for k in tests])
        np.add.at(counts, (owner[tests], edge), sizes)
        # Every tested world keyed by (its node, its outcome), in node order.
        flat = np.concatenate([worlds[k] for k in tests])
        key = 2 * np.repeat(np.arange(len(tests)), sizes) + outcomes[flat, np.repeat(edge, sizes)]
        order = np.argsort(key, kind="stable")
        starts = np.flatnonzero(np.diff(key[order], prepend=-1))
        child, outcome = np.divmod(key[order][starts], 2)
        worlds = np.split(flat[order], starts[1:])
        parent = np.array(tests, dtype=np.intp)[child]
        owner, status = owner[parent], status[parent]
        status[np.arange(child.size), edge[child]] = np.where(outcome == 1, 1, -1)
        tries = [tries[k].setdefault(o, {}) for k, o in zip(parent.tolist(), outcome.tolist())]
    return counts


def bisect_policy(
    beta: np.ndarray,
    status: np.ndarray,
    library: Library,
    eval_cost: np.ndarray,
    oracle,
    trace: RunTrace,
    memo: dict | None = None,
) -> RunTrace:
    """Query the oracle along BISECT's decision trie until one region is
    proven valid or all are refuted.  The belief is the bias beta over the
    episode's edge status (drdplan.traces), which the caller owns: each
    evaluation extends the caller's trace and marks status in place.
    Returns the trace with its terminal set; edges already observed in
    status are never evaluated again.  At most |E| evaluations (see
    bisect_steps).

    memo is the root of a decision trie shared by the episodes entering
    with one bias and status; None gives a private one.  A node maps
    "step" to its step once computed (Solved, AllRegionsDead or an edge id)
    and each outcome, 0 or 1, to a child; the root is a node like any
    other.  A step depends only on that entry, the library, eval_cost and
    the outcomes on the way to its node, so each node's step is computed
    once.  A run fills its tries for all of its worlds with set_walk before
    the first episode, so this policy replays them.  At a node with no
    step, it stores the step bisect_steps gives (beta, status) as a block
    of one row.
    """
    _belief_row(beta, status, library)  # for its checks: bisect_steps builds the row
    node = {} if memo is None else memo
    while True:
        if "step" not in node:
            node["step"] = bisect_steps(beta[None], status[None], library, eval_cost)[0]
        step = node["step"]
        if not isinstance(step, int):  # a verdict
            path = library.paths[step.path_index] if isinstance(step, Solved) else ()
            return trace.end(step, path)
        outcome = trace.evaluate(step, oracle, eval_cost, status)
        node = node.setdefault(outcome, {})
