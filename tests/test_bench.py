"""Benchmark harness: policy runs, normalized costs, sweep, report files."""

import hashlib
import json

import numpy as np
import pytest

from drdplan import bench, trees
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
from drdplan.scenarios import ScenarioSpec, generate_dataset
from drdplan.traces import AllRegionsDead, Solved


def make_ds(kind="forest", seed=1, n=40):
    spec = ScenarioSpec(kind=kind, rows=6, cols=6, seed=seed, n_discs=4)
    return generate_dataset(spec, n, 60, 10, test_fraction=0.25, seed=seed)


@pytest.fixture(scope="module")
def ds():
    return make_ds()


@pytest.fixture(scope="module")
def tree(ds):
    return trees.compile_from_dataset(ds, 0.05, 0.9)


def test_tree_policies_require_tree(ds):
    with pytest.raises(ContractError):
        run_policy("direct+bisect", ds, "test", tree=None)


def test_dataset_hash_contract(ds):
    other = make_ds(seed=2)
    wrong_tree = trees.compile_from_dataset(other, 0.05, 0.9)
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
            evaluated = t.evaluated
            for p in ds.paths:
                assert any(
                    evaluated.get(e) == 0 and ds.theta[h, e] == 0 for e in p.edge_ids
                )


def test_direct_only_never_evaluates_after_leaf(ds, tree):
    depth = tree.params["stats"]["depth"]
    for t in run_policy("direct-only", ds, "test", tree):
        assert len(t.records) <= depth


def test_jobs_parallelism_agrees(ds, tree):
    serial = run_policy("direct+bisect", ds, "test", tree, jobs=1)
    parallel = run_policy("direct+bisect", ds, "test", tree, jobs=4)
    assert [t.records for t in serial] == [t.records for t in parallel]
    assert [t.terminal for t in serial] == [t.terminal for t in parallel]


# sha256 of the compiled tree and of every policy's canonical traces on the
# fixture above.  Refactors must leave these bytes alone.
PINNED = {
    "tree": "6d47786cb356a4c6ec04645f5b4c87434bdb20db71f837a219c51ce660738cbf",
    "lazysp-graph": "74c40618a9fe11503cc84f5b67f77f8363ba2da4d89648c7f9b9c9a6239ff806",
    "lazysp-set": "802e31005fa50aeb5819293094bc52559714342d9ee5cd0a0b6d7719c4a9d21d",
    "random": "2ca28a2881696ab9120215440db9db403b4d15b4872aafd7925aaa47059a3d76",
    "bisect": "e5f19b30f123657ccb106ed9c13ebb5d42aac9f353340073c916b0e36124c5b6",
    "direct+bisect": "d42e9d291f0178841986ae60e1e86d81148b2ae0371d9db77c61fb2ab5b26c27",
    "direct-only": "100124745f443682d72e7a4e7374bc0592ca897571dfa2a0f269d652cd436a12",
}


def test_artifact_bytes_pinned(ds, tree):
    got = {"tree": hashlib.sha256(trees.tree_to_bytes(tree)).hexdigest()}
    for policy in bench.POLICY_IDS:
        docs = bench.traces_to_json(run_policy(policy, ds, "test", tree, seed=0))
        blob = json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()
        got[policy] = hashlib.sha256(blob).hexdigest()
    assert got == PINNED


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
        back = bench.traces_from_json(doc["traces"])
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
