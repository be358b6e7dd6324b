"""Run one workload through the drdplan command line in-process, check
every episode with the independent oracle, and measure it.

Untraced runs give the end-to-end metrics; a traced run gives the
per-layer metrics from spans around the program's public functions.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stdout
from io import StringIO

import numpy as np

import oracle
from tracing import Tracer
from workloads import DATASET, POLICIES, REFERENCE, RUNS, STAGES, TABLE, TREE, UNVERIFIED, Workload

# Set-up is sampled at least this often per run, and then again while the
# run's --seconds last, up to the cap.
MIN_SETUPS, MAX_SETUPS = 5, 15

# What every `drdplan run` pays before its first episode: a fresh
# interpreter imports the package, loads (and validates) the dataset and
# the tree, and checks the tree's dataset hash.
SETUP_SCRIPT = """\
import sys
import drdplan.cli
from drdplan.io import dataset_hash, load_dataset
from drdplan.trees import load_tree
ds = load_dataset(sys.argv[1])
tree = load_tree(sys.argv[2])
sys.exit(tree.params["dataset_hash"] != dataset_hash(ds))
"""


class BenchmarkError(RuntimeError):
    """The pipeline could not be run to the end."""


def run_pipeline(w: Workload, run_seed: int, workdir: str, tracer: Tracer | None = None) -> dict:
    """gen -> compile-tree -> six runs -> report through drdplan.cli.main,
    with the wall time of each stage and of the whole pipeline."""
    from drdplan import cli

    os.makedirs(workdir)
    here = os.getcwd()
    times = {}
    os.chdir(workdir)
    try:
        with redirect_stdout(StringIO()):
            gc.collect()
            t0 = time.perf_counter()
            for stage, commands in w.stages(run_seed):
                t = time.perf_counter()
                with tracer.span(f"cli.{stage}") if tracer else nullcontext():
                    for argv in commands:
                        code = cli.main(argv)
                        if code:
                            raise BenchmarkError(f"drdplan {' '.join(argv)} exited with {code}")
                times[f"{stage}_s"] = time.perf_counter() - t
            times["pipeline_s"] = time.perf_counter() - t0
    finally:
        os.chdir(here)
    return times


def setup_times(src: str, workdir: str, until: float) -> list[float]:
    """Wall times of fresh set-up processes on the workload's artifacts."""
    env = dict(os.environ, PYTHONPATH=src)
    samples: list[float] = []
    while len(samples) < MIN_SETUPS or (time.perf_counter() < until and len(samples) < MAX_SETUPS):
        t = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_SCRIPT, DATASET, TREE], cwd=workdir, env=env)
        # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would round set-up times; the timer stops a hung process.
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - t)
        if code:
            raise BenchmarkError(f"set-up process exited with {code}")
    return samples


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(workdir: str, name: str) -> bytes:
    with open(os.path.join(workdir, name), "rb") as f:
        return f.read()


def load_runs(workdir: str) -> dict[str, dict]:
    return {p: json.loads(_read(workdir, f"{RUNS}/{p}.json")) for p in POLICIES}


def digests(workdir: str, runs: dict[str, dict]) -> dict[str, str]:
    """sha256 of the dataset, the tree, each run file's traces and the
    report: equal digests mean the pipeline behaved identically."""
    out = {DATASET: _sha256(_read(workdir, DATASET)), TREE: _sha256(_read(workdir, TREE))}
    for p, doc in runs.items():
        canonical = json.dumps(doc["traces"], sort_keys=True, separators=(",", ":"))
        out[f"{RUNS}/{p}.json:traces"] = _sha256(canonical.encode())
    out[TABLE] = _sha256(_read(workdir, TABLE))
    return out


def _mean_cost(doc: dict, worlds: set[int]) -> float:
    costs = [sum(c for _, _, c in t["records"]) for t in doc["traces"] if t["world_index"] in worlds]
    return float(np.mean(costs))


def end_to_end(times: dict, setups: list[float], world: oracle.World, runs: dict) -> list[tuple]:
    feasible = {h for h in world.test if oracle.feasible(world, h)}
    return [
        ("setup_s", statistics.median(setups), "s"),
        ("pipeline_s", times["pipeline_s"], "s"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        (f"eval_cost.{_slug(REFERENCE)}", _mean_cost(runs[REFERENCE], feasible), "cost"),
    ]


def _slug(policy: str) -> str:
    return policy.replace("+", "-")


def per_layer(
    tracer: Tracer, workdir: str, world: oracle.World, runs: dict, errors: dict, times: dict,
    overhead_s: float,
) -> list[tuple]:
    layers = tracer.layers()
    empty = [0.0]

    def calls(name):
        return layers[name].calls if name in layers else 0

    def self_s(name):
        return layers[name].self_s if name in layers else 0.0

    def pct(name, q, scale):
        return float(np.percentile(layers[name].durations if name in layers else empty, q)) * scale

    tree = json.loads(_read(workdir, TREE))
    n_test = len(runs[REFERENCE]["traces"])
    policy_s = {p: 0.0 for p in POLICIES}
    for _, tag, start, end, _ in (s for s in tracer.spans if s[0] == "bench.run_policy"):
        policy_s[tag] += end - start
    handoffs = sum(
        1
        for i, s in enumerate(tracer.spans)
        if s[0] == "bernoulli.bisect_policy"
        and tracer.ancestor(i, "bench.run_policy")[1] == REFERENCE
    )
    # Stage wall times come from the untraced pipeline.  They are layer
    # metrics: on a shared 2-vCPU machine a single stage spreads too widely
    # from run to run to gate on (see README.md).
    out = [(f"{stage}_s", times[f"{stage}_s"], "s") for stage in STAGES]
    out += [
        ("scenarios.sample_world_s", self_s("scenarios.sample_world"), "s"),
        ("scenarios.build_path_library_s", self_s("scenarios.build_path_library"), "s"),
        ("scenarios.library_candidates", tracer.counts["scenarios.Path"], "count"),
        ("scenarios.library_paths", len(world.paths), "count"),
        ("model.compute_membership_s", self_s("model.compute_membership"), "s"),
        ("model.validate_dataset_s", self_s("model.validate_dataset"), "s"),
        ("io.dataset_to_bytes_s", self_s("io.dataset_to_bytes"), "s"),
        ("io.dataset_from_bytes_s", self_s("io.dataset_from_bytes"), "s"),
        ("io.dataset_hash_calls", calls("io.dataset_hash"), "count"),
        ("io.dataset_hash_s", self_s("io.dataset_hash"), "s"),
        ("io.dataset_bytes", os.path.getsize(os.path.join(workdir, DATASET)), "bytes"),
        ("ec2.select_test_calls", calls("ec2.select_test"), "count"),
        ("ec2.select_test_us.p50", pct("ec2.select_test", 50, 1e6), "us"),
        ("ec2.select_test_us.p90", pct("ec2.select_test", 90, 1e6), "us"),
        ("ec2.select_test_s", self_s("ec2.select_test"), "s"),
        ("ec2.observe_calls", calls("ec2.observe"), "count"),
        ("ec2.is_solved_s", self_s("ec2.is_solved"), "s"),
        ("trees.compile_tree_s", self_s("trees.compile_tree"), "s"),
        ("trees.nodes", len(tree["nodes"]), "count"),
        ("trees.depth", tree["params"]["stats"]["depth"], "count"),
        ("trees.handoff_leaves", tree["params"]["stats"]["handoff"], "count"),
        ("trees.bias_vector_calls", calls("trees.bias_vector"), "count"),
        ("trees.bias_vector_s", self_s("trees.bias_vector"), "s"),
        ("trees.execute_tree_us.p50", pct("trees.execute_tree", 50, 1e6), "us"),
        ("trees.tree_bytes", os.path.getsize(os.path.join(workdir, TREE)), "bytes"),
        ("bernoulli.bisect_policy_calls", calls("bernoulli.bisect_policy"), "count"),
        ("bernoulli.select_test_bernoulli_calls", calls("bernoulli.select_test_bernoulli"), "count"),
        ("bernoulli.select_test_bernoulli_us.p50", pct("bernoulli.select_test_bernoulli", 50, 1e6), "us"),
        ("bernoulli.select_test_bernoulli_us.p90", pct("bernoulli.select_test_bernoulli", 90, 1e6), "us"),
        ("bernoulli.select_test_bernoulli_s", self_s("bernoulli.select_test_bernoulli"), "s"),
        ("bernoulli.select_test_bernoulli_none", tracer.nones["bernoulli.select_test_bernoulli"], "count"),
        ("baselines.shortest_path_edges_calls", calls("baselines.shortest_path_edges"), "count"),
        ("baselines.shortest_path_edges_us.p50", pct("baselines.shortest_path_edges", 50, 1e6), "us"),
        ("baselines.shortest_path_edges_us.p90", pct("baselines.shortest_path_edges", 90, 1e6), "us"),
        ("baselines.shortest_path_edges_s", self_s("baselines.shortest_path_edges"), "s"),
        ("baselines.lazysp_graph_ms.p50", pct("baselines.lazysp_graph", 50, 1e3), "ms"),
        ("baselines.lazysp_graph_ms.p90", pct("baselines.lazysp_graph", 90, 1e3), "ms"),
        ("baselines.lazysp_set_ms.p50", pct("baselines.lazysp_set", 50, 1e3), "ms"),
        ("baselines.random_policy_ms.p50", pct("baselines.random_policy", 50, 1e3), "ms"),
        ("baselines.random_policy_ms.p90", pct("baselines.random_policy", 90, 1e3), "ms"),
    ]
    out += [(f"bench.ms_per_world.{_slug(p)}", 1e3 * policy_s[p] / n_test, "ms") for p in POLICIES]
    out += [
        (f"bench.evals_per_world.{_slug(p)}", float(np.mean([len(t["records"]) for t in runs[p]["traces"]])), "count")
        for p in POLICIES
    ]
    out += [
        ("bench.save_runs_s", self_s("bench.save_runs"), "s"),
        ("bench.load_runs_s", self_s("bench.load_runs"), "s"),
        ("bench.build_report_s", self_s("bench.build_report"), "s"),
        ("bench.normalized_cost_s", self_s("bench.normalized_cost"), "s"),
        (f"bench.handoff_rate.{_slug(REFERENCE)}", handoffs / n_test, "ratio"),
    ]
    out += [(f"bench.fail_rate.{_slug(p)}", _error_share(errors[p]), "ratio") for p in UNVERIFIED]
    out.append(("trace.overhead_s", overhead_s, "s"))
    return out


def _error_share(errors: dict[int, str | None]) -> float:
    return sum(e is not None for e in errors.values()) / len(errors)


def run_workload(w: Workload, seed: int, seconds: int, trace: bool, src: str, base: str) -> dict:
    """One benchmark run in a scratch directory under ``base``, removed
    at the end.  Returns the result and what is printed before it."""
    until = time.perf_counter() + seconds
    work = os.path.join(base, f"{w.name}-seed{seed}-{os.getpid()}")
    try:
        plain = os.path.join(work, "plain")
        times = run_pipeline(w, seed, plain)
        runs = load_runs(plain)
        world = oracle.read_dataset(os.path.join(plain, DATASET))
        errors = {p: oracle.check_run(world, doc, p not in UNVERIFIED) for p, doc in runs.items()}
        digest = digests(plain, runs)
        notes = []
        if trace:
            tracer = Tracer()
            traced = os.path.join(work, "traced")
            with tracer.installed():
                traced_times = run_pipeline(w, seed, traced, tracer)
            tracer.write(os.path.join(base, f"{w.name}-seed{seed}.spans.json"))
            if digests(traced, load_runs(traced)) != digest:
                notes.append("traced pipeline produced different artifacts")
            overhead = traced_times["pipeline_s"] - times["pipeline_s"]
            metrics = per_layer(tracer, traced, world, runs, errors, times, overhead)
        else:
            metrics = end_to_end(times, setup_times(src, plain, until), world, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked = [p for p in POLICIES if p not in UNVERIFIED]
    attempted = sum(len(errors[p]) for p in checked)
    failures = [f"{p} world {h}: {e}" for p in checked for h, e in sorted(errors[p].items()) if e]
    return {
        "correct": not failures and not notes,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "stages": {f"{stage}_s": times[f"{stage}_s"] for stage in STAGES},
        "digests": digest,
        "problems": notes + failures,
    }
