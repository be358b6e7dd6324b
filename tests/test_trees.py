"""Decision-tree compilation, execution and serialization."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from drdplan import ec2, trees
from drdplan.bench import POLICIES, run_policy
from drdplan.bernoulli import bisect_policy, select_test_bernoulli
from drdplan.io import FormatError, dataset_hash, load_dataset, save_dataset, to_json_bytes
from drdplan.model import Library, LibraryStatus
from drdplan.scenarios import ScenarioSpec, generate_dataset
from drdplan.trees import (
    DecisionTree,
    InternalNode,
    TreeSizeExceeded,
    bias_vector,
    compile_from_dataset,
    compile_tree,
    execute_tree,
    expand_tree,
    load_tree,
    prune_tree,
    save_tree,
    tree_from_bytes,
    tree_to_bytes,
)
from drdplan.traces import AllRegionsDead, Handoff, RunTrace, Solved, traces_to_json

from conftest import make_worked_problem, random_regions, regions_membership


def run_tree(tree, oracle, eval_cost):
    """execute_tree on a fresh episode state; returns (leaf, trace)."""
    trace = RunTrace(policy="tree")
    leaf = execute_tree(tree, oracle, eval_cost, trace, np.zeros(len(eval_cost), np.int8))
    return leaf, trace


def status_of(n_edges, observed):
    """An int8 edge status with the given {edge: outcome} observations."""
    status = np.zeros(n_edges, np.int8)
    for e, o in observed.items():
        status[e] = 1 if o else -1
    return status


def small_dataset():
    spec = ScenarioSpec(kind="forest", rows=6, cols=6, seed=1, n_discs=4)
    return generate_dataset(spec, 40, 60, 10, test_fraction=0.2)


# --- bias_vector -----------------------------------------------------------

def test_bias_vector_values():
    outcomes = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.uint8)
    theta = bias_vector(outcomes, status_of(3, {}), alpha=0.9)
    assert abs(theta[0] - 0.95) <= 1e-12  # both worlds valid at edge 0
    assert abs(theta[1] - 0.5) <= 1e-12  # fraction 0.5 is the fixed point
    # Observed edges pin the mixture to the outcome.
    theta0 = bias_vector(outcomes[1:], status_of(3, {2: 0}), alpha=0.9)
    assert abs(theta0[2] - 0.05) <= 1e-12


def test_bias_vector_bounds():
    """Entries stay inside [(1 - alpha)/2, (1 + alpha)/2], the ends reached
    by fractions 0 and 1 and by observed edges, so both outcomes of every
    edge keep positive probability."""
    rows = np.array([[0, 1, 0, 1, 1], [0, 1, 1, 1, 0]], dtype=np.uint8)
    status = status_of(5, {3: 0, 4: 1})
    for alpha in (0.1, 0.5, 0.9, 0.999):
        theta = bias_vector(rows, status, alpha)
        assert np.allclose(theta, [(1 - alpha) / 2, (1 + alpha) / 2, 0.5,
                                   (1 - alpha) / 2, (1 + alpha) / 2])
        assert np.all((theta > 0) & (theta < 1))
    for alpha in (np.nan, 0.0, 1.0, 2.0, -0.5):
        with pytest.raises(ValueError):
            bias_vector(rows, status, alpha)


def test_bias_vector_falls_back_to_all_rows():
    """A status that no outcome row matches gives the fraction over all
    rows."""
    outcomes = np.array([[1, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]], dtype=np.uint8)
    status = status_of(4, {0: 0, 1: 1})
    assert not ec2.consistent(outcomes, status).any()
    want = 0.9 * np.where(status == 0, outcomes.mean(axis=0), status > 0) + (1 - 0.9) * 0.5
    assert bias_vector(outcomes, status, 0.9).tolist() == want.tolist()


def test_bias_vector_reads_the_consistent_rows():
    """For random statuses, bias_vector of all the outcomes equals the
    mixture over the rows consistent with the status, bit for bit."""
    rng = np.random.default_rng(41)
    matched = 0
    for _ in range(300):
        n, e = int(rng.integers(1, 30)), int(rng.integers(1, 12))
        outcomes = (rng.random((n, e)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        seen = rng.random(e) < rng.uniform(0.0, 0.8)
        # Observed outcomes from some row (so rows match) or drawn at random.
        source = outcomes[rng.integers(n)] if rng.random() < 0.7 else rng.integers(0, 2, e)
        status = np.where(seen, np.where(source == 1, 1, -1), 0).astype(np.int8)
        alpha = float(rng.uniform(0.05, 0.95))
        rows = np.array([row for row in outcomes
                         if all(row[k] == (status[k] > 0) for k in np.flatnonzero(seen))])
        assert ec2.consistent(outcomes, status).sum() == len(rows)
        if len(rows):
            matched += 1
            want = alpha * np.where(status == 0, rows.mean(axis=0), status > 0) + (1 - alpha) * 0.5
            assert bias_vector(outcomes, status, alpha).tobytes() == want.tobytes()
    assert matched > 200


def test_bias_vector_rejects_bad_inputs():
    prob = make_worked_problem()
    with pytest.raises(ValueError):
        bias_vector(prob.outcomes, status_of(1, {}), alpha=1.0)
    with pytest.raises(ValueError):
        bias_vector(prob.outcomes[:0], status_of(1, {}), alpha=0.9)


# --- compile_tree ----------------------------------------------------------

def test_eta_one_single_handoff_leaf():
    prob = make_worked_problem()
    tree = compile_tree(prob, eta=1.0)
    assert len(tree.nodes) == 1
    leaf = tree.nodes[tree.root]
    assert leaf == Handoff(3)


def test_single_region_everything_solved_leaf():
    membership = np.ones((4, 1), dtype=np.uint8)
    outcomes = np.random.default_rng(0).integers(0, 2, (4, 3)).astype(np.uint8)
    prob = ec2.DrdProblem(membership, outcomes, np.ones(3), np.full(4, 0.25))
    tree = compile_tree(prob, eta=0.05)
    assert len(tree.nodes) == 1
    assert tree.nodes[tree.root] == Solved(0)


def test_worked_instance_tree_shape():
    prob = make_worked_problem()
    tree = compile_tree(prob, eta=0.0)
    assert len(tree.nodes) == 3
    root = tree.nodes[tree.root]
    assert isinstance(root, InternalNode) and root.edge == 0
    assert tree.nodes[root.child0] == Solved(1)  # outcome 0 leaves {h2, h3}
    assert tree.nodes[root.child1] == Solved(0)  # outcome 1 isolates h1
    assert tree.params["stats"] == {
        "internal": 1, "solved": 2, "dead": 0, "handoff": 0, "depth": 1,
    }


def test_max_nodes_exceeded():
    prob = make_worked_problem()
    with pytest.raises(TreeSizeExceeded):
        compile_tree(prob, eta=0.0, max_nodes=1)


def test_compile_rejects_empty_training():
    ds = small_dataset()
    ds.train = ds.train[:0]
    with pytest.raises(ValueError):
        compile_from_dataset(ds, 0.05)


def test_compile_deterministic_bytes():
    ds = small_dataset()
    t1 = compile_from_dataset(ds, 0.05)
    t2 = compile_from_dataset(ds, 0.05)
    assert tree_to_bytes(t1) == tree_to_bytes(t2)


def test_compiled_tree_invariants():
    ds = small_dataset()
    tree = compile_from_dataset(ds, 0.05)
    n_edges = ds.graph.num_edges
    assert tree.params["stats"]["depth"] <= n_edges
    assert tree.params["n_train"] == len(ds.train)

    # Edge ids along every root-to-leaf path are distinct; every handoff
    # leaf keeps at least one training world.
    def walk(i, seen):
        node = tree.nodes[i]
        if isinstance(node, InternalNode):
            assert node.edge not in seen
            walk(node.child0, seen | {node.edge})
            walk(node.child1, seen | {node.edge})
        elif isinstance(node, Handoff):
            assert node.active_count >= 1

    walk(tree.root, set())


def test_training_worlds_reach_consistent_leaves():
    # The expansion's leaves are DIRECT's verdicts (pruning adds handoffs
    # of its own, tested below).
    handoffs = 0
    for ds in (small_dataset(), *rule_datasets()):
        problem = ec2.problem_from_dataset(ds, ds.train)
        tree = expand_tree(problem, 0.0)
        for h in ds.train:
            oracle = lambda e: int(ds.theta[h, e])
            leaf, trace = run_tree(tree, oracle, ds.graph.eval_cost)
            if isinstance(leaf, Solved):
                assert ds.membership[h, leaf.path_index] == 1
            elif isinstance(leaf, AllRegionsDead):
                assert ds.membership[h].sum() == 0
            else:
                # eta = 0: a handoff comes from no open edge scoring on the
                # surviving training worlds, or from BISECT's test scoring
                # at least as much as DIRECT's.
                status = status_of(ds.graph.num_edges, {e: o for e, o, _ in trace.records})
                sel, rival, active = scores_at(problem, status, 0.9)
                assert active >= 1
                assert sel is None or (rival is not None and rival[1] >= sel[1])
                handoffs += 1
    assert handoffs > 0  # the handoff branch ran


def test_compile_and_depth_leave_recursion_limit_alone():
    ds = small_dataset()
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        tree = compile_from_dataset(ds, 0.0)
        assert tree.depth() == tree.params["stats"]["depth"]
        # A chain deeper than the recursion limit: depth is one pass over
        # the post-order node list.
        nodes = [AllRegionsDead()]
        for i in range(3000):
            nodes += [AllRegionsDead(), InternalNode(0, 2 * i, 2 * i + 1)]
        assert DecisionTree(nodes=nodes, root=len(nodes) - 1).depth() == 3000
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


# --- execute_tree ----------------------------------------------------------

def test_execute_single_leaf_no_evaluations():
    tree = DecisionTree(nodes=[Solved(2)], root=0)
    leaf, trace = run_tree(tree, lambda e: 1, np.ones(3))
    assert leaf == Solved(2)
    assert trace.records == [] and trace.total_cost == 0.0


def test_execute_accumulates_cost():
    prob = make_worked_problem()
    tree = compile_tree(prob, eta=0.0)
    leaf, trace = run_tree(tree, lambda e: 1, np.full(1, 2.5))
    assert leaf == Solved(0)
    assert trace.total_cost == 2.5


def test_execute_is_total_on_off_database_outcomes():
    # A world outside the training database still reaches some leaf, because
    # internal nodes always carry children for both outcomes.
    ds = small_dataset()
    tree = compile_from_dataset(ds, 0.0)
    leaf, trace = run_tree(tree, lambda e: 0, ds.graph.eval_cost)
    assert leaf is not None
    assert len({r[0] for r in trace.records}) == len(trace.records)


def test_execute_marks_status_at_exactly_the_recorded_edges():
    ds = small_dataset()
    tree = compile_from_dataset(ds, 0.0)
    for h in range(ds.num_worlds):
        trace = RunTrace(policy="tree", world_index=h)
        status = np.zeros(ds.graph.num_edges, np.int8)
        execute_tree(tree, lambda e: int(ds.theta[h, e]), ds.graph.eval_cost, trace, status)
        want = np.zeros_like(status)
        for e, o, _ in trace.records:
            want[e] = 1 if o else -1
        assert np.array_equal(status, want)


# --- serialization ---------------------------------------------------------

def test_tree_roundtrip(tmp_path):
    ds = small_dataset()
    tree = compile_from_dataset(ds, 0.05)
    path = str(tmp_path / "t.json")
    save_tree(tree, path)
    back = load_tree(path)
    assert back.nodes == tree.nodes
    assert back.root == tree.root
    assert tree_to_bytes(back) == tree_to_bytes(tree)


def test_tree_format_errors():
    with pytest.raises(FormatError):
        tree_from_bytes(b"not json")
    with pytest.raises(FormatError, match="schema_version"):
        tree_from_bytes(b'{"schema_version": 42, "nodes": [], "root": 0, "params": {}}')
    with pytest.raises(FormatError, match="node type"):
        tree_from_bytes(
            b'{"schema_version": 3, "nodes": [{"type": "mystery"}], "root": 0, "params": {}}'
        )
    # Schema 1 stored a bias vector in every handoff leaf; it is not read.
    with pytest.raises(FormatError, match="schema_version"):
        tree_from_bytes(
            b'{"schema_version": 1, "nodes": [{"type": "handoff", "bias": [0.5],'
            b' "active_count": 1}], "root": 0, "params": {"alpha": 0.9}}'
        )


def test_direct_policy_matches_compiled_tree():
    """DIRECT run online and DIRECT compiled offline are one policy: on
    every database world they evaluate the same edges and end alike."""
    rng = np.random.default_rng(23)
    episodes = 0
    for _ in range(120):
        n, e = int(rng.integers(1, 25)), int(rng.integers(1, 8))
        outcomes = (rng.random((n, e)) < rng.uniform(0.2, 0.9)).astype(np.uint8)
        regions = random_regions(rng, e, int(rng.integers(1, 6)))
        problem = ec2.DrdProblem(
            membership=regions_membership(outcomes, regions),
            outcomes=outcomes,
            eval_cost=rng.integers(1, 3, e).astype(np.float64),  # integer costs tie often
            prior=rng.uniform(0.1, 1.0, n),
        )
        for eta in (0.0, 0.05, 0.3, 1.0):
            tree = compile_tree(problem, eta)
            for h in range(n):
                oracle = lambda edge, row=outcomes[h]: int(row[edge])
                trace, _ = trees.direct_policy(problem, oracle, eta)
                leaf, tree_trace = run_tree(tree, oracle, problem.eval_cost)
                assert trace.records == tree_trace.records
                assert trace.terminal == leaf
                episodes += 1
    assert episodes > 1000


def test_direct_policy_matches_compiled_tree_uniform_prior():
    """The twin of the test above under the uniform prior, where every
    mass is an integer count and tests with equal counts tie exactly: the
    compiled tree must break those ties as direct_policy does."""
    rng = np.random.default_rng(29)
    episodes = 0
    for _ in range(120):
        n, e = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        outcomes = (rng.random((n, e)) < rng.uniform(0.2, 0.9)).astype(np.uint8)
        regions = random_regions(rng, e, int(rng.integers(1, 6)))
        problem = ec2.DrdProblem(
            membership=regions_membership(outcomes, regions),
            outcomes=outcomes,
            eval_cost=rng.integers(1, 3, e).astype(np.float64),
            prior=np.full(n, 1.0 / n),
        )
        for eta in (0.0, 0.05, 0.3):
            tree = compile_tree(problem, eta)
            for h in range(n):
                oracle = lambda edge, row=outcomes[h]: int(row[edge])
                trace, _ = trees.direct_policy(problem, oracle, eta)
                leaf, tree_trace = run_tree(tree, oracle, problem.eval_cost)
                assert trace.records == tree_trace.records
                assert trace.terminal == leaf
                episodes += 1
    assert episodes > 1000


# --- DIRECT's candidates and its handoff to BISECT ---------------------------

def rule_datasets():
    """Forest datasets whose trees split, hand off for the cost-aware rule,
    and end solved and dead."""
    for seed, size, n in ((2, 6, 120), (3, 7, 120), (1, 6, 300), (2, 7, 300), (5, 8, 200),
                          (3, 8, 300)):
        spec = ScenarioSpec(kind="forest", rows=size, cols=size, seed=seed, n_discs=4)
        yield generate_dataset(spec, n, 60, 12, test_fraction=0.2)


def walk_with_status(tree, n_edges):
    """Every node of the tree with the edge status on the way to it."""
    todo = [(tree.root, np.zeros(n_edges, np.int8))]
    while todo:
        i, status = todo.pop()
        node = tree.nodes[i]
        yield node, status
        if isinstance(node, InternalNode):
            for outcome, child in ((-1, node.child0), (1, node.child1)):
                branch = status.copy()
                branch[node.edge] = outcome
                todo.append((child, branch))


def scores_at(problem, status, alpha):
    """DIRECT's and BISECT's best (edge, score) over the open edges at a
    status, each None when nothing scores."""
    active = ec2.consistent(problem.outcomes, status)
    cand = np.flatnonzero(LibraryStatus(problem.library, status).open)
    beta = bias_vector(problem.outcomes[active], status, alpha)
    rival = select_test_bernoulli(beta, status, problem.library, problem.eval_cost, cand)
    return ec2.select_test(status, problem, cand), rival, int(active.sum())


def test_direct_tests_only_open_edges_and_hands_off_when_bisect_scores_as_much():
    eta, alpha = 0.05, 0.9
    splits = rule_handoffs = 0
    for ds in rule_datasets():
        problem = ec2.problem_from_dataset(ds, ds.train)
        tree = expand_tree(problem, eta, alpha=alpha)
        for node, status in walk_with_status(tree, ds.graph.num_edges):
            if isinstance(node, InternalNode):
                assert LibraryStatus(problem.library, status).open[node.edge]
                sel, rival, _ = scores_at(problem, status, alpha)
                assert sel[0] == node.edge
                assert rival is None or rival[1] < sel[1]
                splits += 1
            elif isinstance(node, Handoff):
                sel, rival, active = scores_at(problem, status, alpha)
                assert active == node.active_count
                if active > eta * len(ds.train) and sel is not None:
                    # Neither the eta threshold nor a lack of useful tests:
                    # the cost-aware rule handed off.
                    assert rival is not None and rival[1] >= sel[1]
                    rule_handoffs += 1
    assert splits > 20 and rule_handoffs > 5


def test_direct_policy_matches_compiled_tree_of_a_dataset():
    """The online loop and the expanded tree take the same open-edge,
    cost-aware steps on every training world."""
    for ds in rule_datasets():
        problem = ec2.problem_from_dataset(ds, ds.train)
        tree = expand_tree(problem, 0.05)
        for h in range(problem.num_hypotheses):
            oracle = lambda edge, row=problem.outcomes[h]: int(row[edge])
            trace, _ = trees.direct_policy(problem, oracle, 0.05)
            leaf, tree_trace = run_tree(tree, oracle, problem.eval_cost)
            assert trace.records == tree_trace.records
            assert trace.terminal == leaf


def bisect_reference(ds, rows, status, worlds, alpha=0.9):
    """Per-episode BISECT from status under bias_vector(rows, status,
    alpha), each world with a private, unfilled trie."""
    library = Library.of(ds)
    beta = bias_vector(rows, status, alpha)
    return [bisect_policy(beta, status.copy(), library, ds.graph.eval_cost,
                          lambda e, row=ds.theta[h]: int(row[e]), RunTrace("bisect", int(h)))
            for h in worlds]


def test_root_handoff_makes_direct_bisect_equal_bisect():
    """bisect hands off at the root: its run writes the traces of
    per-episode BISECT under the bias of every training world, byte for
    byte, so the filled tries decide as the online path does; and
    direct+bisect on a one-leaf handoff tree writes them too."""
    for ds in rule_datasets():
        zeros = np.zeros(ds.graph.num_edges, np.int8)
        want = traces_to_json(bisect_reference(ds, ds.theta[ds.train], zeros,
                                               range(ds.num_worlds)))
        assert to_json_bytes(traces_to_json(run_policy("bisect", ds, "all"))) == to_json_bytes(want)
        tree = compile_from_dataset(ds, 1.0)
        assert tree.nodes == [Handoff(len(ds.train))]
        got = traces_to_json(run_policy("direct+bisect", ds, "all", tree))
        assert to_json_bytes([{**t, "policy": "bisect"} for t in got]) == to_json_bytes(want)


# --- pruning -----------------------------------------------------------------

def feasible_cost(traces, ds):
    """Total cost over the traces of feasible worlds."""
    return math.fsum(c for t in traces if ds.membership[t.world_index].any()
                     for _, _, c in t.records)


def test_pruned_tree_costs_no_more_than_expansion_or_bisect():
    pruned_any = False
    for ds in rule_datasets():
        problem = ec2.problem_from_dataset(ds, ds.train)
        params = {"dataset_hash": dataset_hash(ds)}
        expanded = expand_tree(problem, 0.05, params=params)
        pruned = compile_tree(problem, 0.05, params=params)
        pruned_any |= len(pruned.nodes) < len(expanded.nodes)
        cost = {name: feasible_cost(run_policy(policy, ds, "train", tree), ds)
                for name, policy, tree in (("expanded", "direct+bisect", expanded),
                                           ("pruned", "direct+bisect", pruned),
                                           ("bisect", "bisect", None))}
        assert cost["pruned"] <= cost["expanded"] and cost["pruned"] <= cost["bisect"], cost
    assert pruned_any


def test_pruned_nodes_cost_no_less_by_handing_off():
    """Top down from the root, every internal node of the expansion that
    the pruned tree replaces by a handoff had b_v <= a_v, and every one it
    keeps had b_v > a_v: b_v is per-episode BISECT from v, a_v the
    expansion's direct+bisect episodes from v on, both over the feasible
    training worlds at v."""
    decided = {True: 0, False: 0}
    for ds in rule_datasets():
        problem = ec2.problem_from_dataset(ds, ds.train)
        expanded = expand_tree(problem, 0.05)
        pruned = prune_tree(expanded, problem)
        train_theta = ds.theta[ds.train]
        episode = POLICIES["direct+bisect"](ds, expanded, ds.train, 0, 0.9, [])
        full = {}
        for h in ds.train[ds.membership[ds.train].any(axis=1)]:
            status = np.zeros(ds.graph.num_edges, np.int8)
            full[int(h)] = episode(lambda e, row=ds.theta[h]: int(row[e]), RunTrace("d", h), status)
        todo = [(expanded.root, pruned.root, np.zeros(ds.graph.num_edges, np.int8), 0)]
        while todo:
            i, j, status, depth = todo.pop()
            node, kept = expanded.nodes[i], pruned.nodes[j]
            if not isinstance(node, InternalNode):
                continue
            reach = ec2.consistent(train_theta, status)
            worlds = [h for h in ds.train[reach] if int(h) in full]
            a = math.fsum(c for h in worlds for _, _, c in full[int(h)].records[depth:])
            b = feasible_cost(bisect_reference(ds, train_theta[reach], status, worlds), ds)
            if isinstance(kept, Handoff):
                assert kept.active_count == reach.sum() and b <= a
                decided[True] += 1
                continue
            assert kept.edge == node.edge and b > a
            decided[False] += 1
            for outcome, ci, cj in ((-1, node.child0, kept.child0), (1, node.child1, kept.child1)):
                branch = status.copy()
                branch[node.edge] = outcome
                todo.append((ci, cj, branch, depth + 1))
    assert decided[True] > 0 and decided[False] > 0


def test_abstract_problem_trees_are_not_pruned():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n, e = int(rng.integers(2, 30)), int(rng.integers(1, 8))
        outcomes = (rng.random((n, e)) < rng.uniform(0.2, 0.9)).astype(np.uint8)
        problem = ec2.DrdProblem(regions_membership(outcomes, random_regions(rng, e, 4)),
                                 outcomes, np.ones(e), np.full(n, 1.0 / n))
        expanded = expand_tree(problem, 0.0)
        assert prune_tree(expanded, problem) is expanded
        assert tree_to_bytes(compile_tree(problem, 0.0)) == tree_to_bytes(expanded)


def test_load_and_problem_memory_per_world(tmp_path):
    """The traced peak of load_dataset plus problem_from_dataset per world,
    at N and 4N worlds of one 7x7 forest (|E| = 156, m = 20).  Both 0/1
    matrices stay uint8, so the loaded rows and the problem's copy of the
    training rows take under 2 * (|E| + m) = 352 bytes per world; the bound
    leaves 64 more for decoding and fixed costs.  A float64 copy of the
    membership would add 7 bytes per training world and path, 126 here."""
    spec = ScenarioSpec(kind="forest", rows=7, cols=7, seed=3)
    paths = {}
    for n in (10, 2000, 8000):
        paths[n] = str(tmp_path / f"{n}.bin")
        save_dataset(generate_dataset(spec, n, 60, 20), paths[n])
    load_dataset(paths[10])  # one-time costs of a first load stay out of the peaks
    for n in (2000, 8000):
        tracemalloc.start()
        try:
            ds = load_dataset(paths[n])
            ec2.problem_from_dataset(ds, ds.train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * (2 * (156 + 20) + 64), n


def test_compile_memory_does_not_grow_with_worlds():
    """The memory compile_tree allocates beside the problem's own arrays,
    at N and 4N worlds of one 7x7 forest (|E| = 156, m = 20), in each of
    its two passes.  A split table cast from all the worlds at once takes
    8 bytes per world and edge, 9 MB at 7,200 training worlds.  Built over
    blocks, expand_tree's peak is a block of float64 scratch
    (8 * BLOCK_ELEMENTS bytes, 1 MB) with its uint8 gather and weighted
    regions, one node's (2, candidates, 1 + m) table and the tree's own
    objects; prune_tree's is a set walk's blocks and the world indices of
    the nodes it walks at once.  Both stay under three blocks at either
    size.  What still grows is the active mask and index that a step builds
    and drops, a few dozen bytes per world (the stack holds an E-byte edge
    status per pending node).  One root ec2.is_solved call, which sums
    membership over blocks of the active rows, grows by its mask and index
    alone, under 10 bytes per world."""
    spec = ScenarioSpec(kind="forest", rows=7, cols=7, seed=3)
    peaks = {"is_solved": [], "expand_tree": [], "prune_tree": []}
    for n in (2000, 8000):
        ds = generate_dataset(spec, n, 60, 20)
        problem = ec2.problem_from_dataset(ds, ds.train)
        root = np.zeros(problem.num_tests, np.int8)
        tracemalloc.start()
        try:
            ec2.is_solved(root, problem)
            peaks["is_solved"].append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            tree = trees.expand_tree(problem, 0.05)
            peaks["expand_tree"].append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            trees.prune_tree(tree, problem)  # compile_tree's second pass
            peaks["prune_tree"].append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block = 8 * ec2.BLOCK_ELEMENTS
    for name, (small, large) in peaks.items():
        assert max(small, large) < 3 * block, name
        assert large - small < 80 * 6000, name  # bytes per added world
    small, large = peaks["is_solved"]
    assert large - small < 10 * 6000


def test_compile_tree_bytes_do_not_depend_on_the_block(monkeypatch):
    ds = small_dataset()
    want = tree_to_bytes(compile_from_dataset(ds, 0.0))
    monkeypatch.setattr(ec2, "BLOCK_ELEMENTS", 1)
    assert tree_to_bytes(compile_from_dataset(ds, 0.0)) == want
