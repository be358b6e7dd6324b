"""Benchmark harness: policy runs, normalized costs, sweep, report files."""

import hashlib
import json
import multiprocessing
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from drdplan import baselines, bench, bernoulli, ec2, rng as rng_mod, trees
from drdplan.bench import (
    ContractError,
    build_report,
    load_runs,
    normalized_cost,
    report_to_csv,
    run_policy,
    save_runs,
    sweep_to_csv,
    sweep_training_size,
    trace_success,
)
from drdplan.io import dataset_hash
from drdplan.scenarios import ScenarioSpec, generate_dataset
from drdplan.traces import AllRegionsDead, RunTrace, Solved

from conftest import random_regions, regions_membership


def make_ds(kind="forest", seed=1, n=40):
    spec = ScenarioSpec(kind=kind, rows=6, cols=6, seed=seed, n_discs=4)
    return generate_dataset(spec, n, 60, 10, test_fraction=0.25)


@pytest.fixture(scope="module")
def ds():
    return make_ds()


@pytest.fixture(scope="module")
def tree(ds):
    return trees.compile_from_dataset(ds, 0.05)


def test_tree_policies_require_tree(ds):
    with pytest.raises(ContractError):
        run_policy("direct+bisect", ds, "test", tree=None)


def test_dataset_hash_contract(ds):
    other = make_ds(seed=2)
    wrong_tree = trees.compile_from_dataset(other, 0.05)
    with pytest.raises(ContractError):
        run_policy("direct+bisect", ds, "test", wrong_tree)


def test_unknown_policy_rejected(ds):
    with pytest.raises(ValueError):
        run_policy("mystery", ds, "test")


def test_all_policies_run_and_are_sound(ds, tree):
    for policy in bench.POLICY_IDS:
        traces = run_policy(policy, ds, "test", tree, seed=0)
        assert len(traces) == len(ds.test)
        for t in traces:
            edges = [r[0] for r in t.records]
            assert len(edges) == len(set(edges))
            assert len(edges) <= ds.graph.num_edges
            if trace_success(t, ds):
                world = ds.theta[t.world_index]
                assert all(world[e] == 1 for e in t.path_edges)


def test_direct_bisect_sound_on_every_test_world(ds, tree):
    for t in run_policy("direct+bisect", ds, "test", tree):
        h = t.world_index
        if ds.membership[h].any():
            assert isinstance(t.terminal, Solved)
            assert trace_success(t, ds)
        else:
            assert isinstance(t.terminal, AllRegionsDead)
            evaluated = {e: o for e, o, _ in t.records}
            for p in ds.paths:
                assert any(
                    evaluated.get(e) == 0 and ds.theta[h, e] == 0 for e in p.edge_ids
                )


def test_direct_only_never_evaluates_after_leaf(ds, tree):
    depth = tree.params["stats"]["depth"]
    for t in run_policy("direct-only", ds, "test", tree):
        assert len(t.records) <= depth


# The deterministic policies, which keep a per-run memo of their decisions.
MEMOIZED = ["bisect", "direct+bisect", "lazysp-graph"]


@pytest.mark.parametrize("policy", bench.POLICY_IDS)
def test_jobs_parallelism_agrees(ds, tree, policy):
    # Each forked worker fills its own copy of the run's memo, and each
    # episode builds its own library status.
    serial = run_policy(policy, ds, "test", tree, jobs=1)
    parallel = run_policy(policy, ds, "test", tree, jobs=4)
    assert serial == parallel


@pytest.fixture(scope="module", params=["forest", "twowall"])
def memo_case(request):
    case = make_ds(request.param, seed=3, n=60)
    return case, trees.compile_from_dataset(case, 0.05)


def _fresh_memo_per_world(policy, case, tree):
    """The run's traces with a new per-run memo for every world."""
    out = []
    for h in range(case.num_worlds):
        episode = bench.POLICIES[policy](case, tree, case.train, 0, 0.9, [h])
        status = np.zeros(case.graph.num_edges, dtype=np.int8)
        out.append(episode(bench._world_oracle(case, h), RunTrace(policy, h), status))
    return out


@pytest.mark.parametrize("policy", MEMOIZED)
def test_shared_memo_traces_equal_fresh_memo_traces(memo_case, policy):
    case, tree = memo_case
    shared = run_policy(policy, case, "all", tree)
    assert shared == _fresh_memo_per_world(policy, case, tree)


def _spy(monkeypatch, module, name, key_of):
    """Record key_of(args) of every call of module.name."""
    keys = []
    original = getattr(module, name)

    def spy(*args):
        keys.append(key_of(*args))
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return keys


@pytest.mark.parametrize("policy", ["bisect", "direct+bisect"])
def test_bisect_selects_once_per_decision_state(memo_case, policy, monkeypatch):
    # A decision state is the bias BISECT entered with and the status now.
    # The fill before the first episode scores each in exactly one row of
    # one bisect_steps block; the episodes replay the tries and score none:
    # no bisect_steps call comes after the fill.
    case, tree = memo_case
    keys = []
    steps, walk = bernoulli.bisect_steps, bernoulli.set_walk
    filled = []  # len(keys) when each set_walk returned

    def spy(beta, status, *rest):
        keys.extend((b.tobytes(), s.tobytes()) for b, s in zip(beta, status))
        return steps(beta, status, *rest)

    def spy_walk(*args):
        counts = walk(*args)
        filled.append(len(keys))
        return counts

    monkeypatch.setattr(bernoulli, "bisect_steps", spy)
    monkeypatch.setattr(bernoulli, "set_walk", spy_walk)
    run_policy(policy, case, "all", tree)
    assert filled == [len(keys)] and len(keys) == len(set(keys))
    shared = len(keys)
    keys.clear()
    _fresh_memo_per_world(policy, case, tree)
    assert shared < len(keys)


def test_lazysp_graph_searches_once_per_invalid_set(memo_case, monkeypatch):
    case, tree = memo_case
    keys = _spy(monkeypatch, baselines, "shortest_path_edges",
                lambda graph, usable: tuple(np.flatnonzero(~usable)))
    run_policy("lazysp-graph", case, "all", tree)
    assert len(keys) == len(set(keys))
    shared = len(keys)
    keys.clear()
    _fresh_memo_per_world("lazysp-graph", case, tree)
    assert shared < len(keys)


def test_empty_split_rejected_before_any_world(ds, monkeypatch):
    def never(*args):
        raise AssertionError("a world ran")

    monkeypatch.setattr(bench, "_world_oracle", never)
    empty = replace(ds, train=np.arange(ds.num_worlds), test=ds.test[:0])
    for policy in bench.POLICY_IDS:
        with pytest.raises(ValueError, match="test split has no worlds"):
            run_policy(policy, empty, "test")


def test_unknown_split_rejected(ds, monkeypatch):
    def never(*args):
        raise AssertionError("a world ran")

    monkeypatch.setattr(bench, "_world_oracle", never)
    for split in ("tset", "", "ALL"):
        with pytest.raises(ValueError, match="split"):
            run_policy("lazysp-set", ds, split)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each pool run_policy opens, and CPUs to patch:
    the fork context's Pool records its size and maps serially, so nothing
    forks."""
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    class Fork:
        Pool = SerialPool

    def cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Fork)
    return sizes, cpus


def test_pool_never_has_more_workers_than_worlds(ds, tree, pool_sizes):
    sizes, cpus = pool_sizes
    serial = run_policy("direct+bisect", ds, "test", tree, jobs=1)
    n = len(ds.test)
    cpus(n + 100)
    for jobs, want in ((n + 30, [n]), (n, [n]), (2, [2])):
        sizes.clear()
        traces = run_policy("direct+bisect", ds, "test", tree, jobs=jobs)
        assert sizes == want
        assert [t.records for t in traces] == [t.records for t in serial]
        assert [t.terminal for t in traces] == [t.terminal for t in serial]


def test_pool_never_has_more_workers_than_cpus(ds, tree, pool_sizes):
    sizes, cpus = pool_sizes
    serial = run_policy("direct+bisect", ds, "test", tree, jobs=1)
    for n_cpus, want in ((3, [3]), (1, [])):
        cpus(n_cpus)
        sizes.clear()
        assert run_policy("direct+bisect", ds, "test", tree, jobs=64) == serial
        assert sizes == want


# sha256 of the compiled tree and of every policy's canonical traces on the
# fixture above, and of the two tree policies' traces on a fixture whose
# expanded tree has 5 handoff leaves.  Refactors must leave these bytes
# alone.  The tree was re-pinned at dataset schema 2, whose dataset hash it
# records, and the tree, bisect and both tree policies at tree schema 3,
# whose DIRECT tests only open library edges and hands off when BISECT's
# next test is worth as much, and whose bisect takes the bias of a handoff
# at the root.  The tree and both tree policies were re-pinned again when
# compile-tree began to prune by measured cost, which hands off at this
# fixture's root; the handoff fixture's pins, on its expanded tree, held.
PINNED = {
    "tree": "7f7e9c69180badb0725ffc2e7467bfbc85a009395e3072f3fd88f7123e7fef5b",
    "lazysp-graph": "74c40618a9fe11503cc84f5b67f77f8363ba2da4d89648c7f9b9c9a6239ff806",
    "lazysp-set": "802e31005fa50aeb5819293094bc52559714342d9ee5cd0a0b6d7719c4a9d21d",
    "random": "2ca28a2881696ab9120215440db9db403b4d15b4872aafd7925aaa47059a3d76",
    "bisect": "40333540215db76f2e70e617a16b13ddb966a50bc18d1df6b04490413da9540e",
    "direct+bisect": "a900bcd185cdc60377299082ebb75999419f55f30889738fa4da1e296f01f648",
    "direct-only": "323e967f41aa1df7c610cd865c91c812c29ac06bed7af9c256960d5e327f8a58",
}
HANDOFF_PINNED = {
    "direct+bisect": "30a45688f9904c16f3cc66c6bfba96e7684491eb9a2f7d35cbb492d01aea46bb",
    "direct-only": "255f0003182024352271e0e73610d8cd255108939d44a9482b7a263f718f8945",
}


def _traces_sha256(policy, ds, tree, split="test"):
    docs = bench.traces_to_json(run_policy(policy, ds, split, tree, seed=0))
    blob = json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def test_artifact_bytes_pinned(ds, tree):
    got = {"tree": hashlib.sha256(trees.tree_to_bytes(tree)).hexdigest()}
    got.update({policy: _traces_sha256(policy, ds, tree) for policy in bench.POLICY_IDS})
    assert got == PINNED
    handoff_ds = make_ds(seed=2, n=80)
    handoff_tree = trees.expand_tree(ec2.problem_from_dataset(handoff_ds, handoff_ds.train), 0.05,
                                     params={"dataset_hash": dataset_hash(handoff_ds)})
    assert handoff_tree.params["stats"]["handoff"] == 5
    got = {policy: _traces_sha256(policy, handoff_ds, handoff_tree) for policy in HANDOFF_PINNED}
    assert got == HANDOFF_PINNED


# sha256 of a whole run file, header and traces, of the fixture above; its
# worlds end solved and dead.  Recorded before the run-file codec moved
# into drdplan.traces and the canonical writer into drdplan.io,
# re-pinned at dataset schema 2 with the params that run writes, again
# at tree schema 3, and again when compile-tree began to prune.
RUN_FILE_PINNED = "ba09623d132b561d3a49b309cf9e194dd16b1feff052b3a185b3b48e26323ff5"


def test_run_file_bytes_pinned(ds, tree, tmp_path):
    path = str(tmp_path / "direct+bisect.json")
    traces = run_policy("direct+bisect", ds, "test", tree, seed=0)
    save_runs(path, "direct+bisect", ds, traces, seed=0,
              params={"alpha": 0.9, "split": "test"})
    with open(path, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == RUN_FILE_PINNED


# sha256 of the canonical traces of the two library-status baselines over
# every world of generate_dataset(ScenarioSpec(kind, size, size, seed=11),
# 40, 60, 12, test_fraction=0.25), pinned before LibraryStatus replaced the
# per-step rescan of the (m, E) incidence matrix.
LIBRARY_STATUS_PINNED = {
    ("forest", 6, "random"): "f90069e283a6d17c5da4af5f373f3071f73bc0a8782663e0a5bcf196269bab98",
    ("forest", 6, "lazysp-set"): "3ca2132c0bd43e73ba4472551108dcfa7c2337c9240a2d4b532317860bf5f4e6",
    ("forest", 7, "random"): "9f95cf814f73a5f8edc06ef93b9d34e6c38a352f082abe9c60729de52a18e73c",
    ("forest", 7, "lazysp-set"): "480d8a36ca4461b7f8b4a9b692678d52cc486908702bc8b10e58b500fdb653d0",
    ("twowall", 6, "random"): "fe2e7c07e466e0b81b9fa6a4108c62309be8408e5dd99e065ce039bf525ad8f8",
    ("twowall", 6, "lazysp-set"): "36382bb00370d6e83428c5fc5fc76fc78ef535c728885f29b48f35f7d5aaeefd",
    ("twowall", 7, "random"): "ab2455b1f9e7e99e9c9e6d853375d939557c34e06747cafe065ec50e2b52dc91",
    ("twowall", 7, "lazysp-set"): "a383bc20162890f3094d79c9da8537cf6354120272c69fc1f1fe526da45d7342",
}


@pytest.mark.parametrize("kind,size", [("forest", 6), ("forest", 7), ("twowall", 6), ("twowall", 7)])
def test_library_status_traces_pinned(kind, size):
    case = generate_dataset(ScenarioSpec(kind=kind, rows=size, cols=size, seed=11), 40, 60, 12,
                            test_fraction=0.25)
    for policy in ("random", "lazysp-set"):
        got = _traces_sha256(policy, case, None, split="all")
        assert got == LIBRARY_STATUS_PINNED[kind, size, policy], policy


def test_surviving_mask_is_the_set_routed_to_each_leaf():
    """The training worlds consistent with what an episode saw on its way to
    a leaf are exactly the training worlds the tree routes to that leaf, so
    a bias built at run time from them is the one DIRECT hands off with."""
    rng = np.random.default_rng(5)
    handoffs = 0
    for _ in range(60):
        n, e = int(rng.integers(1, 40)), int(rng.integers(2, 10))
        outcomes = (rng.random((n, e)) < rng.uniform(0.2, 0.9)).astype(np.uint8)
        regions = random_regions(rng, e, int(rng.integers(1, 10)))
        problem = ec2.DrdProblem(
            membership=regions_membership(outcomes, regions),
            outcomes=outcomes,
            eval_cost=rng.integers(1, 3, e).astype(np.float64),
            prior=np.full(n, 1.0 / n),
        )
        for eta in (0.0, 0.3, 0.6):
            tree = trees.compile_tree(problem, eta)
            handoffs += tree.leaf_counts()["handoff"]
            leaf_of, status_of = [], []
            for h in range(n):
                status = np.zeros(e, np.int8)
                leaf_of.append(id(trees.execute_tree(
                    tree, lambda edge, row=outcomes[h]: int(row[edge]),
                    problem.eval_cost, RunTrace("tree", h), status,
                )))
                status_of.append(status)
            for h in range(n):
                routed = np.array([leaf == leaf_of[h] for leaf in leaf_of])
                assert np.array_equal(ec2.consistent(outcomes, status_of[h]), routed)
    assert handoffs >= 50


# --- normalized_cost -------------------------------------------------------

def test_normalized_cost_self_is_zero():
    costs = np.array([3.0, 5.0, 8.0])
    assert normalized_cost(costs, costs, 1000, seed=0) == (0.0, 0.0)


def test_normalized_cost_double_is_one():
    costs = np.array([3.0, 5.0, 8.0])
    lo, hi = normalized_cost(2 * costs, costs, 1000, seed=0)
    assert lo == 1.0 and hi == 1.0


def test_normalized_cost_deterministic():
    rng = np.random.default_rng(0)
    a, r = rng.uniform(1, 10, 30), rng.uniform(1, 10, 30)
    assert normalized_cost(a, r, 2000, seed=3) == normalized_cost(a, r, 2000, seed=3)
    assert normalized_cost(a, r, 2000, seed=3) != normalized_cost(a, r, 2000, seed=4)


def test_normalized_cost_rejects_bad_input():
    with pytest.raises(ValueError):
        normalized_cost([1.0], [1.0], 100, 0)  # too short
    with pytest.raises(ValueError):
        normalized_cost([1.0, 2.0], [1.0, 0.0], 100, 0)  # zero reference
    for n in (0, -5):  # no resamples
        with pytest.raises(ValueError, match="bootstrap"):
            normalized_cost([1.0, 2.0], [1.0, 1.0], n, 0)


def _single_draw_ci(a, r, bootstrap_n, seed):
    """normalized_cost's CI from one (bootstrap_n, n) index draw."""
    ratios = np.asarray(a) / np.asarray(r) - 1.0
    gen = rng_mod.substream(seed, rng_mod.STREAM_BOOTSTRAP)
    idx = gen.integers(0, len(ratios), size=(bootstrap_n, len(ratios)))
    # Row means do not depend on how the rows are sliced; slicing keeps the
    # gather at n = 1000 to 8 MB.
    means = np.concatenate([ratios[idx[i:i + 1000]].mean(axis=1)
                            for i in range(0, bootstrap_n, 1000)])
    return float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))


@pytest.mark.parametrize("n", [2, 7, 163, 1000])
@pytest.mark.parametrize("bootstrap_n", [1, 999, 10_000])
def test_normalized_cost_blocks_equal_a_single_draw(n, bootstrap_n):
    rng = np.random.default_rng(n)
    a, r = rng.uniform(1, 10, n), rng.uniform(1, 10, n)
    assert normalized_cost(a, r, bootstrap_n, seed=5) == _single_draw_ci(a, r, bootstrap_n, 5)


def test_normalized_cost_memory_is_bounded():
    # A single draw at n = 1000 holds an 80 MB index matrix and its 80 MB
    # gather; the blocks hold two 2 MB ones.
    rng = np.random.default_rng(0)
    a, r = rng.uniform(1, 10, 1000), rng.uniform(1, 10, 1000)
    tracemalloc.start()
    try:
        normalized_cost(a, r, 10_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# --- sweep -----------------------------------------------------------------

def test_sweep_shape_and_nesting(ds):
    results = sweep_training_size(ds, [10, 30], eta=0.05, alpha=0.9)
    assert [r["n_train"] for r in results] == [10, 30]
    for r in results:
        assert set(r) >= {
            "mean_cost", "var_cost", "failure_rate_direct_only",
            "failure_rate_direct_bisect", "n_feasible_test", "tree_stats",
        }
        assert r["failure_rate_direct_bisect"] == 0.0
    csv = sweep_to_csv(results)
    assert csv.splitlines()[0].startswith("n_train,")
    assert len(csv.splitlines()) == 3


def test_sweep_rejects_bad_sizes(ds):
    with pytest.raises(ValueError):
        sweep_training_size(ds, [30, 10], 0.05, 0.9)
    with pytest.raises(ValueError):
        sweep_training_size(ds, [10, 10_000], 0.05, 0.9)


# --- run files and report --------------------------------------------------

def test_runs_roundtrip_and_report(ds, tree, tmp_path):
    docs = []
    for policy in ("direct+bisect", "lazysp-set"):
        traces = run_policy(policy, ds, "test", tree, seed=0)
        path = str(tmp_path / f"{policy}.json")
        save_runs(path, policy, ds, traces, seed=0)
        doc = load_runs(path)
        back = doc["traces"]
        assert [t.records for t in back] == [t.records for t in traces]
        assert [t.terminal for t in back] == [t.terminal for t in traces]
        docs.append(doc)

    report = build_report(docs, "direct+bisect", bootstrap_n=500, seed=0)
    (entry,) = report["datasets"].values()
    ref = entry["policies"]["direct+bisect"]
    assert ref["ci"] == [0.0, 0.0]
    assert entry["policies"]["lazysp-set"]["n_paired"] == ref["n_paired"]

    csv = report_to_csv(report)
    lines = csv.splitlines()
    assert lines[0] == "policy,forest_ci_low,forest_ci_high"
    assert len(lines) == 3
    ref_row = next(l for l in lines if l.startswith("direct+bisect"))
    assert ref_row == "direct+bisect,0.000000,0.000000"


def test_report_requires_reference(ds, tree, tmp_path):
    traces = run_policy("lazysp-set", ds, "test", tree, seed=0)
    path = str(tmp_path / "r.json")
    save_runs(path, "lazysp-set", ds, traces, seed=0)
    with pytest.raises(ValueError, match="reference"):
        build_report([load_runs(path)], "direct+bisect", 100, 0)
