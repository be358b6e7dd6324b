"""Offline compilation of the explicit-database policy into a decision tree.

Internal nodes name the edge to evaluate and branch on its outcome.  Leaves
either name a proven-valid path (Solved), certify that no library path
survives the training database (Dead), or hand off to the Bernoulli
completion policy with a bias vector mixing the empirical edge-validity
fraction of the surviving training worlds with an uninformed 0.5 term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import ec2
from .io import atomic_write_bytes
from .traces import AllRegionsDead, RunTrace, Solved

TREE_SCHEMA_VERSION = 1


class TreeSizeExceeded(RuntimeError):
    """Compilation grew past max_nodes; raise rather than emit a partial tree."""


@dataclass(frozen=True)
class InternalNode:
    edge: int
    child0: int  # followed when the edge evaluates invalid
    child1: int  # followed when the edge evaluates valid


@dataclass(frozen=True)
class SolvedLeaf:
    region: int


@dataclass(frozen=True)
class DeadLeaf:
    pass


@dataclass(frozen=True)
class HandoffLeaf:
    bias: tuple[float, ...]
    active_count: int


@dataclass
class DecisionTree:
    nodes: list
    root: int
    params: dict = field(default_factory=dict)

    def depth(self) -> int:
        # Post-order: both children of a node come before it in the list.
        depths: list[int] = []
        for node in self.nodes:
            if isinstance(node, InternalNode):
                depths.append(1 + max(depths[node.child0], depths[node.child1]))
            else:
                depths.append(0)
        return depths[self.root]

    def leaf_counts(self) -> dict:
        counts = {"internal": 0, "solved": 0, "dead": 0, "handoff": 0}
        for node in self.nodes:
            if isinstance(node, InternalNode):
                counts["internal"] += 1
            elif isinstance(node, SolvedLeaf):
                counts["solved"] += 1
            elif isinstance(node, DeadLeaf):
                counts["dead"] += 1
            else:
                counts["handoff"] += 1
        return counts


def bias_vector(rows: np.ndarray, observed: dict, alpha: float) -> np.ndarray:
    """Per-edge validity bias: alpha * empirical fraction over the outcome
    rows + (1 - alpha) * 0.5; observed edges use the outcome instead of the
    fraction.  Entries stay inside [(1-a)/2, 1-(1-a)/2]."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if len(rows) == 0:
        raise ValueError("bias_vector needs at least one outcome row")
    theta = rows.mean(axis=0).astype(np.float64)
    for e, o in observed.items():
        theta[e] = float(o)
    return alpha * theta + (1.0 - alpha) * 0.5


def compile_tree(
    problem: ec2.DrdProblem,
    eta: float,
    alpha: float,
    max_nodes: int = 200_000,
    params: dict | None = None,
) -> DecisionTree:
    """Depth-first greedy expansion of the explicit-database policy.

    Node indices are assigned post-order (children before parents), so the
    serialized bytes do not depend on how sibling subtrees are scheduled.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    if problem.num_hypotheses == 0:
        raise ValueError("training set is empty")

    nodes: list = []
    root_weight = float(problem.prior.sum())
    all_edges = range(problem.num_tests)

    def emit(node) -> int:
        if len(nodes) >= max_nodes:
            raise TreeSizeExceeded(f"decision tree exceeded max_nodes={max_nodes}")
        nodes.append(node)
        return len(nodes) - 1

    def handoff(vs: ec2.VersionSpace, worlds: np.ndarray) -> HandoffLeaf:
        bias = bias_vector(problem.outcomes[worlds], vs.observed, alpha)
        return HandoffLeaf(tuple(bias), vs.active_count)

    def leaf_or_edge(vs: ec2.VersionSpace):
        """The leaf that ends this branch, or the edge to split it on."""
        status = ec2.is_solved(vs, problem)
        if isinstance(status, Solved):
            return SolvedLeaf(status.path_index)
        if isinstance(status, AllRegionsDead):
            return DeadLeaf()
        if vs.active_weight() > eta * root_weight:
            candidates = [e for e in all_edges if e not in vs.observed]
            sel = ec2.select_test(vs, problem, candidates) if candidates else None
            if sel is not None:
                return sel[0]
        return handoff(vs, vs.active)

    # An explicit stack in place of recursion.  Its items are a version space
    # still to expand, a leaf to emit, or the edge of a split whose two
    # subtrees are done; their indices are then the last two in `finished`.
    todo: list = [problem.root_version_space()]
    finished: list[int] = []
    while todo:
        item = todo.pop()
        if isinstance(item, ec2.VersionSpace):
            vs = item
            item = leaf_or_edge(vs)
            if isinstance(item, int):
                todo.append(item)
                for outcome in (1, 0):  # reversed, so child0 is built first
                    child = ec2.observe(vs, problem, item, outcome)
                    # Training never realizes this outcome here: hand off with
                    # the parent's fractions and the branching edge pinned.
                    todo.append(child if child.active.any() else handoff(child, vs.active))
                continue
        if isinstance(item, int):
            child1 = finished.pop()
            finished.append(emit(InternalNode(item, finished.pop(), child1)))
        else:
            finished.append(emit(item))

    (root,) = finished
    tree = DecisionTree(nodes=nodes, root=root, params=dict(params or {}))
    tree.params.update({"eta": float(eta), "alpha": float(alpha), "max_nodes": int(max_nodes)})
    tree.params["stats"] = {**tree.leaf_counts(), "depth": tree.depth()}
    return tree


def compile_from_dataset(
    dataset, eta: float, alpha: float, max_nodes: int = 200_000
) -> DecisionTree:
    from .io import dataset_hash

    problem = ec2.problem_from_dataset(dataset, dataset.train)
    return compile_tree(
        problem,
        eta,
        alpha,
        max_nodes,
        params={"dataset_hash": dataset_hash(dataset), "n_train": int(len(dataset.train))},
    )


def execute_tree(
    tree: DecisionTree,
    oracle,
    eval_cost: np.ndarray,
    policy_name: str = "tree",
    world_index: int = -1,
) -> tuple[object, RunTrace]:
    """Follow branches by querying the oracle; returns (leaf, trace)."""
    trace = RunTrace(policy=policy_name, world_index=world_index)
    node = tree.nodes[tree.root]
    while isinstance(node, InternalNode):
        outcome = int(oracle(node.edge))
        trace.record(node.edge, outcome, float(eval_cost[node.edge]))
        node = tree.nodes[node.child1 if outcome else node.child0]
    return node, trace


def tree_to_bytes(tree: DecisionTree) -> bytes:
    records = []
    for node in tree.nodes:
        if isinstance(node, InternalNode):
            records.append({"type": "internal", "edge": node.edge,
                            "child": [node.child0, node.child1]})
        elif isinstance(node, SolvedLeaf):
            records.append({"type": "solved", "region": node.region})
        elif isinstance(node, DeadLeaf):
            records.append({"type": "dead"})
        elif isinstance(node, HandoffLeaf):
            records.append({"type": "handoff", "bias": list(node.bias),
                            "active_count": node.active_count})
        else:
            raise TypeError(f"unknown node type {type(node)!r}")
    doc = {
        "schema_version": TREE_SCHEMA_VERSION,
        "params": tree.params,
        "root": tree.root,
        "nodes": records,
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


class TreeFormatError(ValueError):
    """Malformed or wrong-version tree file."""


def tree_from_bytes(data: bytes) -> DecisionTree:
    try:
        doc = json.loads(data.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TreeFormatError(f"bad tree file: {exc}") from exc
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != TREE_SCHEMA_VERSION:
        raise TreeFormatError(f"unsupported tree schema_version {version!r}")
    nodes: list = []
    try:
        for rec in doc["nodes"]:
            t = rec["type"]
            if t == "internal":
                nodes.append(InternalNode(rec["edge"], rec["child"][0], rec["child"][1]))
            elif t == "solved":
                nodes.append(SolvedLeaf(rec["region"]))
            elif t == "dead":
                nodes.append(DeadLeaf())
            elif t == "handoff":
                nodes.append(HandoffLeaf(tuple(rec["bias"]), rec["active_count"]))
            else:
                raise TreeFormatError(f"unknown node type {t!r}")
        root, params = doc["root"], doc["params"]
    except (KeyError, IndexError, TypeError) as exc:
        raise TreeFormatError(f"bad tree file: {exc!r}") from exc
    if not isinstance(params, dict):
        raise TreeFormatError("tree params must be a JSON object")
    return DecisionTree(nodes=nodes, root=root, params=params)


def save_tree(tree: DecisionTree, path: str) -> None:
    atomic_write_bytes(path, tree_to_bytes(tree))


def load_tree(path: str) -> DecisionTree:
    with open(path, "rb") as f:
        return tree_from_bytes(f.read())
