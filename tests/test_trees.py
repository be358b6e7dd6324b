"""Decision-tree compilation, execution and serialization."""

import sys

import numpy as np
import pytest

from drdplan import ec2, trees
from drdplan.scenarios import ScenarioSpec, generate_dataset
from drdplan.trees import (
    DeadLeaf,
    DecisionTree,
    HandoffLeaf,
    InternalNode,
    SolvedLeaf,
    TreeFormatError,
    TreeSizeExceeded,
    bias_vector,
    compile_from_dataset,
    compile_tree,
    execute_tree,
    load_tree,
    save_tree,
    tree_from_bytes,
    tree_to_bytes,
)

from conftest import make_worked_problem


def small_dataset():
    spec = ScenarioSpec(kind="forest", rows=6, cols=6, seed=1, n_discs=4)
    return generate_dataset(spec, 40, 60, 10, test_fraction=0.2, seed=1)


# --- bias_vector -----------------------------------------------------------

def test_bias_vector_values():
    outcomes = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.uint8)
    theta = bias_vector(outcomes, {}, alpha=0.9)
    assert abs(theta[0] - 0.95) <= 1e-12  # both worlds valid at edge 0
    assert abs(theta[1] - 0.5) <= 1e-12  # fraction 0.5 is the fixed point
    # Observed edges pin the mixture to the outcome.
    theta0 = bias_vector(outcomes[1:], {2: 0}, alpha=0.9)
    assert abs(theta0[2] - 0.05) <= 1e-12


def test_bias_vector_rejects_bad_inputs():
    prob = make_worked_problem()
    with pytest.raises(ValueError):
        bias_vector(prob.outcomes, {}, alpha=1.0)
    with pytest.raises(ValueError):
        bias_vector(prob.outcomes[:0], {}, alpha=0.9)


# --- compile_tree ----------------------------------------------------------

def test_eta_one_single_handoff_leaf():
    prob = make_worked_problem()
    tree = compile_tree(prob, eta=1.0, alpha=0.9)
    assert len(tree.nodes) == 1
    leaf = tree.nodes[tree.root]
    assert isinstance(leaf, HandoffLeaf)
    assert leaf.active_count == 3
    # Root bias of the single test: fraction 1/3 mixed with 0.5.
    assert abs(leaf.bias[0] - (0.9 / 3.0 + 0.05)) <= 1e-12


def test_single_region_everything_solved_leaf():
    membership = np.ones((4, 1), dtype=np.uint8)
    outcomes = np.random.default_rng(0).integers(0, 2, (4, 3)).astype(np.uint8)
    prob = ec2.DrdProblem(membership, outcomes, np.ones(3), np.full(4, 0.25))
    tree = compile_tree(prob, eta=0.05, alpha=0.9)
    assert len(tree.nodes) == 1
    assert tree.nodes[tree.root] == SolvedLeaf(0)


def test_worked_instance_tree_shape():
    prob = make_worked_problem()
    tree = compile_tree(prob, eta=0.0, alpha=0.9)
    assert len(tree.nodes) == 3
    root = tree.nodes[tree.root]
    assert isinstance(root, InternalNode) and root.edge == 0
    assert tree.nodes[root.child0] == SolvedLeaf(1)  # outcome 0 leaves {h2, h3}
    assert tree.nodes[root.child1] == SolvedLeaf(0)  # outcome 1 isolates h1
    assert tree.params["stats"] == {
        "internal": 1, "solved": 2, "dead": 0, "handoff": 0, "depth": 1,
    }


def test_max_nodes_exceeded():
    prob = make_worked_problem()
    with pytest.raises(TreeSizeExceeded):
        compile_tree(prob, eta=0.0, alpha=0.9, max_nodes=1)


def test_compile_rejects_empty_training():
    ds = small_dataset()
    ds.train = ds.train[:0]
    with pytest.raises(ValueError):
        compile_from_dataset(ds, 0.05, 0.9)


def test_compile_deterministic_bytes():
    ds = small_dataset()
    t1 = compile_from_dataset(ds, 0.05, 0.9)
    t2 = compile_from_dataset(ds, 0.05, 0.9)
    assert tree_to_bytes(t1) == tree_to_bytes(t2)


def test_compiled_tree_invariants():
    ds = small_dataset()
    tree = compile_from_dataset(ds, 0.05, 0.9)
    n_edges = ds.graph.num_edges
    assert tree.params["stats"]["depth"] <= n_edges
    assert tree.params["n_train"] == len(ds.train)

    # Edge ids along every root-to-leaf path are distinct; handoff bias
    # entries stay inside the clamp band or at the observed-edge pins.
    def walk(i, seen):
        node = tree.nodes[i]
        if isinstance(node, InternalNode):
            assert node.edge not in seen
            walk(node.child0, seen | {node.edge})
            walk(node.child1, seen | {node.edge})
        elif isinstance(node, HandoffLeaf):
            for theta in node.bias:
                assert 0.05 - 1e-12 <= theta <= 0.95 + 1e-12

    walk(tree.root, set())


def test_training_worlds_reach_consistent_leaves():
    ds = small_dataset()
    tree = compile_from_dataset(ds, 0.0, 0.9)
    for h in ds.train:
        oracle = lambda e: int(ds.theta[h, e])
        leaf, trace = execute_tree(tree, oracle, ds.graph.eval_cost)
        if isinstance(leaf, SolvedLeaf):
            assert ds.membership[h, leaf.region] == 1
        elif isinstance(leaf, DeadLeaf):
            assert ds.membership[h].sum() == 0
        else:
            # eta = 0: a handoff can only come from NoUsefulTest on the
            # surviving training worlds.
            survivors = np.ones(len(ds.train), dtype=bool)
            for e, o, _ in trace.records:
                survivors &= ds.theta[ds.train][:, e] == o
            assert survivors.any()
            prob = ec2.problem_from_dataset(ds, ds.train[survivors])
            vs = prob.root_version_space()
            cand = [e for e in range(ds.graph.num_edges) if e not in trace.evaluated]
            assert ec2.select_test(vs, prob, cand) is None


def test_compile_and_depth_leave_recursion_limit_alone():
    ds = small_dataset()
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        tree = compile_from_dataset(ds, 0.0, 0.9)
        assert tree.depth() == tree.params["stats"]["depth"]
        # A chain deeper than the recursion limit: depth is one pass over
        # the post-order node list.
        nodes = [DeadLeaf()]
        for i in range(3000):
            nodes += [DeadLeaf(), InternalNode(0, 2 * i, 2 * i + 1)]
        assert DecisionTree(nodes=nodes, root=len(nodes) - 1).depth() == 3000
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


# --- execute_tree ----------------------------------------------------------

def test_execute_single_leaf_no_evaluations():
    tree = DecisionTree(nodes=[SolvedLeaf(2)], root=0)
    leaf, trace = execute_tree(tree, lambda e: 1, np.ones(3))
    assert leaf == SolvedLeaf(2)
    assert trace.records == [] and trace.total_cost == 0.0


def test_execute_accumulates_cost():
    prob = make_worked_problem()
    tree = compile_tree(prob, eta=0.0, alpha=0.9)
    leaf, trace = execute_tree(tree, lambda e: 1, np.full(1, 2.5))
    assert leaf == SolvedLeaf(0)
    assert trace.total_cost == 2.5


def test_execute_is_total_on_off_database_outcomes():
    # A world outside the training database still reaches some leaf, because
    # internal nodes always carry children for both outcomes.
    ds = small_dataset()
    tree = compile_from_dataset(ds, 0.0, 0.9)
    leaf, trace = execute_tree(tree, lambda e: 0, ds.graph.eval_cost)
    assert leaf is not None
    assert len({r[0] for r in trace.records}) == len(trace.records)


# --- serialization ---------------------------------------------------------

def test_tree_roundtrip(tmp_path):
    ds = small_dataset()
    tree = compile_from_dataset(ds, 0.05, 0.9)
    path = str(tmp_path / "t.json")
    save_tree(tree, path)
    back = load_tree(path)
    assert back.nodes == tree.nodes
    assert back.root == tree.root
    assert tree_to_bytes(back) == tree_to_bytes(tree)


def test_tree_format_errors():
    with pytest.raises(TreeFormatError):
        tree_from_bytes(b"not json")
    with pytest.raises(TreeFormatError, match="schema_version"):
        tree_from_bytes(b'{"schema_version": 42, "nodes": [], "root": 0, "params": {}}')
    with pytest.raises(TreeFormatError, match="node type"):
        tree_from_bytes(
            b'{"schema_version": 1, "nodes": [{"type": "mystery"}], "root": 0, "params": {}}'
        )
