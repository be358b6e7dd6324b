"""Offline compilation of the explicit-database policy into a decision tree.

The tree holds the DIRECT decisions alone.  Internal nodes name the edge to
evaluate and branch on its outcome.  Leaves are the verdicts direct_step
returns: Solved names a path that every surviving training world makes
valid, AllRegionsDead certifies that no library path survives the training
database, and Handoff passes control to the Bernoulli completion policy
with the count of surviving training worlds; prune_tree hands off at
each subtree that costs the training worlds more.  The completion's bias
is bias_vector of the episode's status alone and the run's alpha, which
must be the tree's (params.alpha): direct_step hands off where BISECT's
next test under that bias is worth as much as DIRECT's.

A DecisionTree is its params and its nodes in post-order, each child
before its parent, so the root is the last node; stats() counts the
nodes by kind and finds the depth in one pass over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bernoulli, ec2
from .io import FormatError, atomic_write_bytes, is_index, read_json, reading, to_json_bytes
from .model import LibraryStatus
from .traces import AllRegionsDead, Handoff, RunTrace, Solved

TREE_SCHEMA_VERSION = 3


class TreeSizeExceeded(RuntimeError):
    """Compilation grew past max_nodes; raise rather than emit a partial tree."""


@dataclass(frozen=True)
class InternalNode:
    edge: int
    child0: int  # followed when the edge evaluates invalid
    child1: int  # followed when the edge evaluates valid


@dataclass
class DecisionTree:
    nodes: list
    params: dict = field(default_factory=dict)

    def stats(self) -> dict:
        """Node counts by kind and the root's depth, in one pass."""
        stats = {"internal": 0, "solved": 0, "dead": 0, "handoff": 0}
        depths: list[int] = []
        for node in self.nodes:
            depth = 0
            if isinstance(node, InternalNode):
                stats["internal"] += 1
                depth = 1 + max(depths[node.child0], depths[node.child1])
            elif isinstance(node, Solved):
                stats["solved"] += 1
            elif isinstance(node, AllRegionsDead):
                stats["dead"] += 1
            else:
                stats["handoff"] += 1
            depths.append(depth)
        return {**stats, "depth": depths[-1]}


def bias_vector(outcomes: np.ndarray, status: np.ndarray, alpha: float) -> np.ndarray:
    """Per-edge validity bias: alpha * empirical fraction over the outcome
    rows consistent with status (the episode's int8 edge status, see
    drdplan.traces), or over all rows when none is, + (1 - alpha) * 0.5;
    edges observed in status use their outcome instead of the fraction.
    Entries stay inside [(1-a)/2, (1+a)/2] (the upper end up to one
    rounding when a < 0.5): both outcomes keep positive probability."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if len(outcomes) == 0:
        raise ValueError("bias_vector needs at least one outcome row")
    mask = ec2.consistent(outcomes, status)
    rows = np.flatnonzero(mask) if mask.any() else np.arange(len(outcomes))
    # Valid counts summed over blocks of rows (a block, not a copy of every
    # row); an integer count over the row count is the mean, bit for bit.
    count = np.zeros(outcomes.shape[1], dtype=np.int64)
    for block in ec2._blocks(rows.size, outcomes.shape[1]):
        count += outcomes[rows[block]].sum(axis=0, dtype=np.int64)
    return alpha * np.where(status == 0, count / rows.size, status > 0) + (1.0 - alpha) * 0.5


def direct_step(status: np.ndarray, problem: ec2.DrdProblem, eta: float, alpha: float = 0.9):
    """The DIRECT decision at an edge status: Solved or AllRegionsDead per
    ec2.is_solved; else Handoff(active count) when the weight of the
    active worlds, ec2.consistent(problem.outcomes, status), is at or
    below eta times the prior sum, both in unit weights (under a uniform
    prior, at most eta * N active worlds, decided exactly), when no
    candidate scores, or when BISECT's best score over the candidates is
    at least DIRECT's; else the edge id of the next test.  The compiled
    tree's leaves are these verdicts.

    The candidates are the open edges of the problem's library
    (model.LibraryStatus of status): the unknown edges of paths with no
    edge known invalid, the edges BISECT scores.  BISECT scores them under
    bias_vector(the training outcomes, status, alpha), which reads the
    active worlds' rows: the bias a completion handed off here starts
    from.  Both scores are (1 - E[residual ratio]) / cost.  An abstract
    problem, with no library, scores every unobserved edge and has no
    BISECT to hand off to."""
    verdict = ec2.is_solved(status, problem)
    if verdict is not None:
        return verdict
    active = ec2.consistent(problem.outcomes, status)
    if problem.unit[active].sum() > eta * problem.unit.sum():
        library = problem.library
        if library is None:
            candidates = np.flatnonzero(status == 0)
        else:
            candidates = np.flatnonzero(LibraryStatus(library, status).open)
        sel = None
        if candidates.size:
            sel = ec2.select_test(status, problem, candidates)
        if sel is not None and library is not None:
            # BISECT's best score here, under the bias a completion handed
            # off at status starts from.
            beta = bias_vector(problem.outcomes, status, alpha)
            rival = bernoulli.select_test_bernoulli(beta, status, library, problem.eval_cost, candidates)
            if rival is not None and rival[1] >= sel[1]:
                sel = None
        if sel is not None:
            return sel[0]
    return Handoff(int(active.sum()))


def direct_policy(
    problem: ec2.DrdProblem, oracle, eta: float, alpha: float = 0.9
) -> tuple[RunTrace, np.ndarray]:
    """Greedy explicit-database policy loop: direct_step until it returns
    a terminal (Solved, AllRegionsDead or Handoff; the caller decides what
    a handoff leads to).  Returns the trace and the final edge status.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    status = np.zeros(problem.num_tests, dtype=np.int8)
    trace = RunTrace(policy="direct")
    while True:
        step = direct_step(status, problem, eta, alpha)
        if not isinstance(step, int):
            return trace.end(step), status
        trace.evaluate(step, oracle, problem.eval_cost, status)


def compile_tree(
    problem: ec2.DrdProblem,
    eta: float,
    *,
    alpha: float = 0.9,
    max_nodes: int = 200_000,
    params: dict | None = None,
) -> DecisionTree:
    """The compiled DIRECT policy: expand_tree, then prune_tree."""
    tree = expand_tree(problem, eta, alpha=alpha, max_nodes=max_nodes, params=params)
    return prune_tree(tree, problem)


def expand_tree(
    problem: ec2.DrdProblem,
    eta: float,
    *,
    alpha: float = 0.9,
    max_nodes: int = 200_000,
    params: dict | None = None,
) -> DecisionTree:
    """Depth-first greedy expansion of the explicit-database policy.

    Node indices are assigned post-order (children before parents), so the
    serialized bytes do not depend on how sibling subtrees are scheduled.

    A node that scores tests builds the split table (ec2.split_table) of
    its own active worlds and its candidates inside ec2.select_test, and
    drops it once it has chosen.  Tables are built over fixed blocks of
    worlds and scored over fixed blocks of candidates (ec2._blocks), so the
    working memory beside the problem's own arrays is a block of
    ec2.BLOCK_ELEMENTS float64 entries and one table; it does not grow with
    the number of worlds, except by the few bytes per world of the active
    mask and index that a step builds and drops.  Block sums of integer
    counts are exact, so the tree does not depend on the block size.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")

    nodes: list = []

    def emit(node) -> int:
        if len(nodes) >= max_nodes:
            raise TreeSizeExceeded(f"decision tree exceeded max_nodes={max_nodes}")
        nodes.append(node)
        return len(nodes) - 1

    # An explicit stack in place of recursion.  Its items are an edge status
    # still to expand, a leaf (the verdict direct_step returned) to emit, or
    # the edge of a split whose two subtrees are done; their indices are then
    # the last two in `finished`.
    todo: list = [np.zeros(problem.num_tests, dtype=np.int8)]
    finished: list[int] = []
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            status = item
            item = direct_step(status, problem, eta, alpha)
            if isinstance(item, int):
                todo.append(item)
                for outcome in (1, 0):  # reversed, so child0 is built first
                    todo.append(ec2.observe(status, item, outcome))
                continue
        if isinstance(item, int):
            child1 = finished.pop()
            finished.append(emit(InternalNode(item, finished.pop(), child1)))
        else:
            finished.append(emit(item))

    (_,) = finished  # one subtree, the whole tree, its root the last node
    tree = DecisionTree(nodes=nodes, params=dict(params or {}))
    tree.params.update({"eta": float(eta), "alpha": float(alpha), "max_nodes": int(max_nodes)})
    tree.params["stats"] = tree.stats()
    return tree


def _cost(counts: np.ndarray, eval_cost: np.ndarray) -> float:
    """The total cost of evaluations counted per edge, by math.fsum: exact
    up to one rounding, in any order of summation."""
    return math.fsum(np.repeat(eval_cost, counts).tolist())


def prune_tree(tree: DecisionTree, problem: ec2.DrdProblem) -> DecisionTree:
    """Replace, top down, every subtree that costs more on the training
    worlds than handing off to BISECT at its root.  An abstract problem,
    with no library and so no BISECT, keeps its tree.

    Costs are sums over the feasible training worlds (those in some
    region) consistent with the status at a node v.  a_v is the cost of
    the subtree from v on, as a run pays it: the tests at v and below, the
    check of the path at a solved leaf (a feasible world there lies on
    that path, so every unknown edge of it is evaluated) and BISECT's
    completion at a handoff leaf (the dead leaves hold no feasible world).
    b_v is BISECT's cost from v, under bias_vector(the training outcomes,
    the status at v, the tree's alpha), as a Handoff at v runs it.  From
    the root, an internal node v becomes Handoff(its consistent training
    worlds' count) when b_v <= a_v; otherwise its internal children are
    considered.  So on the training worlds the pruned tree costs no more
    than the expansion, and no more than BISECT from the root.

    The completions of all handoff leaves are one bernoulli.set_walk, and
    so are the BISECT walks of each level of considered nodes.  Each cost
    is one math.fsum over its evaluations, so the order of the walk cannot
    decide a comparison.  The nodes stay in post-order, child0's subtree
    first, where a subtree is a run of nodes that ends at its root: pruning
    cuts runs, so an unpruned tree keeps its bytes.
    """
    library = problem.library
    if library is None:
        return tree
    alpha, nodes, eval_cost = tree.params["alpha"], tree.nodes, problem.eval_cost
    outcomes, feasible = problem.outcomes, problem.membership.any(axis=1)

    # The status at each node.  Its worlds are found from it when read, so
    # the world indices of every node are never held at once.
    root = len(nodes) - 1
    status = {root: np.zeros(problem.num_tests, dtype=np.int8)}
    for i in range(len(nodes) - 1, -1, -1):  # parents follow their children
        if isinstance(node := nodes[i], InternalNode):
            for outcome, child in ((0, node.child0), (1, node.child1)):
                status[child] = ec2.observe(status[i], node.edge, outcome)

    def worlds(i: int) -> np.ndarray:
        """The feasible training worlds consistent with the status at node i."""
        return np.flatnonzero(ec2.consistent(outcomes, status[i]) & feasible)

    def walk(at: list) -> np.ndarray:
        """BISECT's evaluation counts from each node in at, over its
        feasible worlds: one set walk."""
        roots = [(bias_vector(outcomes, status[i], alpha), status[i], worlds(i), {}) for i in at]
        return bernoulli.set_walk(library, eval_cost, outcomes, roots)

    # a_v from per-edge evaluation counts, children before parents.
    handoffs = [i for i, node in enumerate(nodes) if isinstance(node, Handoff)]
    counts = dict(zip(handoffs, walk(handoffs)))
    a = {}
    for i, node in enumerate(nodes):
        n = np.zeros(problem.num_tests, dtype=np.int64)
        if isinstance(node, InternalNode):
            n += counts.pop(node.child0) + counts.pop(node.child1)
            n[node.edge] += worlds(i).size
            a[i] = _cost(n, eval_cost)
        elif isinstance(node, Solved):
            path = np.array(library.paths[node.path_index])
            n[path[status[i][path] == 0]] = worlds(i).size
        elif isinstance(node, Handoff):
            n = counts[i]
        counts[i] = n

    pruned = {}
    level = [root] if isinstance(nodes[root], InternalNode) else []
    while level:
        below = []
        for i, n in zip(level, walk(level)):
            if _cost(n, eval_cost) <= a[i]:
                pruned[i] = Handoff(int(ec2.consistent(outcomes, status[i]).sum()))
            else:
                below += [c for c in (nodes[i].child0, nodes[i].child1)
                          if isinstance(nodes[c], InternalNode)]
        level = below
    if not pruned:
        return tree

    first = []  # per node, the first node of its subtree's run
    for i, node in enumerate(nodes):
        first.append(first[node.child0] if isinstance(node, InternalNode) else i)
    keep, out = np.ones(len(nodes), dtype=bool), list(nodes)
    for i, leaf in pruned.items():
        keep[first[i]:i], out[i] = False, leaf
    new = (np.cumsum(keep) - 1).tolist()
    out = [InternalNode(node.edge, new[node.child0], new[node.child1])
           if isinstance(node, InternalNode) else node for node, k in zip(out, keep) if k]
    tree = DecisionTree(nodes=out, params=dict(tree.params))
    tree.params["stats"] = tree.stats()
    return tree


def compile_from_dataset(
    dataset, eta: float, *, alpha: float = 0.9, max_nodes: int = 200_000
) -> DecisionTree:
    from .io import dataset_hash

    problem = ec2.problem_from_dataset(dataset, dataset.train)
    return compile_tree(
        problem,
        eta,
        alpha=alpha,
        max_nodes=max_nodes,
        params={"dataset_hash": dataset_hash(dataset), "n_train": int(len(dataset.train))},
    )


def execute_tree(
    tree: DecisionTree, oracle, eval_cost: np.ndarray, trace: RunTrace, status: np.ndarray
) -> object:
    """Follow branches by querying the oracle, recording each test in the
    caller's trace and marking it in status (the episode state of
    drdplan.traces); returns the leaf reached."""
    node = tree.nodes[-1]
    while isinstance(node, InternalNode):
        outcome = trace.evaluate(node.edge, oracle, eval_cost, status)
        node = tree.nodes[node.child1 if outcome else node.child0]
    return node


def tree_to_bytes(tree: DecisionTree) -> bytes:
    records = []
    for node in tree.nodes:
        if isinstance(node, InternalNode):
            records.append({"type": "internal", "edge": node.edge,
                            "child": [node.child0, node.child1]})
        elif isinstance(node, Solved):
            records.append({"type": "solved", "region": node.path_index})
        elif isinstance(node, AllRegionsDead):
            records.append({"type": "dead"})
        elif isinstance(node, Handoff):
            records.append({"type": "handoff", "active_count": node.active_count})
        else:
            raise TypeError(f"unknown node type {type(node)!r}")
    doc = {
        "schema_version": TREE_SCHEMA_VERSION,
        "params": tree.params,
        "root": len(tree.nodes) - 1,
        "nodes": records,
    }
    return to_json_bytes(doc)


def _node_from_json(rec, i: int):
    t = rec["type"]
    if t == "dead":
        return AllRegionsDead()
    if t == "internal":
        node = InternalNode(rec["edge"], *rec["child"])
    elif t == "solved":
        node = Solved(rec["region"])
    elif t == "handoff":
        node = Handoff(rec["active_count"])
    else:
        raise FormatError(f"unknown node type {t!r}")
    if not all(map(is_index, vars(node).values())):
        raise FormatError(f"node {i} has a field that is not an integer >= 0")
    if t == "internal" and not (node.child0 < i and node.child1 < i):
        raise FormatError(f"node {i} has a child that does not precede it")
    return node


def tree_from_bytes(data: bytes) -> DecisionTree:
    """Parse a tree file.  Its nodes must be in post-order: each child
    precedes its parent, the root is the last node, and every other node
    is the child of exactly one node."""
    doc = read_json(data, "tree file", TREE_SCHEMA_VERSION)
    with reading("bad tree file"):
        nodes = [_node_from_json(rec, i) for i, rec in enumerate(doc["nodes"])]
        root, params = doc["root"], doc["params"]
    if not is_index(root) or root != len(nodes) - 1:
        raise FormatError(f"tree root {root!r} is not its last node")
    children = [c for n in nodes if isinstance(n, InternalNode) for c in (n.child0, n.child1)]
    if sorted(children) != list(range(root)):
        raise FormatError("a tree node other than the root is not the child of exactly one node")
    if not isinstance(params, dict):
        raise FormatError("tree params must be a JSON object")
    return DecisionTree(nodes=nodes, params=params)


def save_tree(tree: DecisionTree, path: str) -> None:
    atomic_write_bytes(path, tree_to_bytes(tree))


def load_tree(path: str) -> DecisionTree:
    with open(path, "rb") as f:
        return tree_from_bytes(f.read())
