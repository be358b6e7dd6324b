"""The benchmark's own tests, on the seconds-long smoke sizes.

    python3 -m pytest -q perfbench/check_harness.py

They are kept out of the repository's default test collection because
they run the whole pipeline several times.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import harness  # noqa: E402
import oracle  # noqa: E402
from workloads import DATASET, POLICIES, SMOKE, WORKLOADS, select  # noqa: E402


def _spec(kind: str) -> list[tuple[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def _names(result) -> list[tuple[str, str]]:
    return [(name, unit) for name, _, unit in result["metrics"]]


def test_workloads_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(SMOKE)


@pytest.mark.parametrize("name", list(SMOKE))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = harness.run_workload(SMOKE[name], 0, 0, False, SRC, str(tmp_path))
    assert result["correct"], result["problems"]
    assert result["attempted"] == 5 * round(SMOKE[name].worlds * SMOKE[name].test_fraction)
    assert _names(result) == _spec("end_to_end")
    assert all(value > 0 for _, value, _ in result["metrics"])
    assert os.listdir(tmp_path) == []


def test_traced_run_reports_every_layer_metric_and_keeps_spans(tmp_path):
    w = SMOKE["forest-deep"]
    result = harness.run_workload(w, 0, 0, True, SRC, str(tmp_path))
    assert result["correct"], result["problems"]
    assert _names(result) == _spec("per_layer")
    metrics = {name: value for name, value, _ in result["metrics"]}
    assert metrics["scenarios.library_candidates"] == w.k
    assert metrics["scenarios.library_paths"] == w.paths
    assert metrics["bernoulli.bisect_policy_calls"] > 0
    assert metrics["io.dataset_hash_calls"] > 0
    with open(tmp_path / f"{w.name}-seed0.spans.json") as f:
        spans = json.load(f)["spans"]
    assert {"cli.gen", "bench.run_policy", "ec2.select_test"} <= {s[0] for s in spans}


def test_digests_repeat_and_follow_the_seeds(tmp_path):
    w = SMOKE["paper-twowall"]
    first = harness.run_workload(w, 1, 0, False, SRC, str(tmp_path))["digests"]
    again = harness.run_workload(w, 1, 0, False, SRC, str(tmp_path))["digests"]
    other = harness.run_workload(w, 2, 0, False, SRC, str(tmp_path))["digests"]
    held_out = harness.run_workload(select(w.name, True, True), 1, 0, False, SRC, str(tmp_path))
    assert first == again
    assert first[DATASET] == other[DATASET]
    assert first["runs/random.json:traces"] != other["runs/random.json:traces"]
    assert held_out["correct"] and held_out["digests"][DATASET] != first[DATASET]


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("runs") / "w")
    harness.run_pipeline(SMOKE["forest-deep"], 0, work)
    world = oracle.read_dataset(os.path.join(work, DATASET))
    return world, harness.load_runs(work)


def _first(doc, kind):
    return next(i for i, t in enumerate(doc["traces"]) if t["terminal"]["kind"] == kind)


def _tampered(doc, kind, edit):
    doc = copy.deepcopy(doc)
    edit(doc["traces"][_first(doc, kind)])
    return doc


def test_oracle_accepts_the_verifying_policies(smoke_runs):
    world, runs = smoke_runs
    for p in POLICIES:
        if p != "direct-only":
            assert not any(oracle.check_run(world, runs[p]).values()), p


def test_oracle_finds_the_unverified_claims_the_program_flags(smoke_runs):
    world, runs = smoke_runs
    errors = oracle.check_run(world, runs["direct-only"], verified=False)
    flagged = {t["world_index"] for t in runs["direct-only"]["traces"] if not t["verified"]}
    assert flagged and {h for h, e in errors.items() if e} == flagged


def test_oracle_rejects_wrong_verdicts_and_records(smoke_runs):
    world, runs = smoke_runs
    graph_run, library_run = runs["lazysp-graph"], runs["bisect"]
    connected = next(
        i for i, t in enumerate(graph_run["traces"]) if oracle.connected(world, t["world_index"])
    )

    def flip(t):
        e, o, c = t["records"][0]
        t["records"][0] = [e, 1 - o, c]

    def claim_infeasible(doc):
        doc = copy.deepcopy(doc)
        doc["traces"][connected]["terminal"] = {"kind": "infeasible"}
        return doc

    bad = [
        _tampered(library_run, "solved", flip),
        _tampered(library_run, "solved", lambda t: t["records"].append(t["records"][0])),
        _tampered(library_run, "solved", lambda t: t["records"][0].__setitem__(2, 2.0)),
        _tampered(library_run, "solved", lambda t: t["terminal"].update(kind="dead")),
        _tampered(library_run, "dead", lambda t: t.update(
            terminal={"kind": "solved", "path_index": 0}, path_edges=list(world.paths[0]))),
        _tampered(graph_run, "solved", lambda t: t.update(path_edges=t["path_edges"][:-1])),
        claim_infeasible(graph_run),
        dict(library_run, traces=library_run["traces"][1:]),
    ]
    for doc in bad:
        assert sum(e is not None for e in oracle.check_run(world, doc).values()) == 1


def _checkout(tmp_path, with_src: bool) -> str:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if with_src:
        shutil.copytree(SRC, root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return str(root)


def _run(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root, capture_output=True,
        text=True, timeout=170,
    )


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = _run(root, "--workload", "forest-deep", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_all_workloads_run_in_one_command(tmp_path):
    root = _checkout(tmp_path, with_src=True)
    proc = _run(root, "--workload", "all", "--size", "smoke", "--seed", "0", "--seconds", "0",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w}.{name}" for w in WORKLOADS for name, _ in _spec("end_to_end")
    }
    assert os.listdir(os.path.join(root, ".perfbench_work")) == []
