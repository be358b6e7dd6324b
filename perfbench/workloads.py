"""Benchmark workloads: one sampled grid dataset each, run through the whole
user pipeline (gen -> compile-tree -> six runs -> report).

The dataset seed is part of a workload's definition, because the layer
costs a workload is chosen for (a 9-node tree, a 111-node tree, a 21x21
grid) belong to one dataset.  The benchmark's ``--seed`` is the seed of
the run and report stages: the random policy's substreams and the
bootstrap resamples.  ``held_out_seed`` is a second dataset seed of the
same configuration, kept for checking that a claimed gain also holds on
data it was not tuned on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# The six policy ids of the pipeline, fixed here so that a change to the
# program's policy list cannot silently change the benchmark.
POLICIES = (
    "lazysp-graph",
    "lazysp-set",
    "random",
    "bisect",
    "direct+bisect",
    "direct-only",
)
REFERENCE = "direct+bisect"
# The tree-only ablation claims a path without verifying it, so its wrong
# claims are measured, not counted as failures.
UNVERIFIED = ("direct-only",)

STAGES = ("gen", "compile", "run", "report")
DATASET = "dataset.bin"
TREE = "tree.json"
RUNS = "runs"
TABLE = "table.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    grid: str
    worlds: int
    paths: int
    k: int
    test_fraction: float
    seed: int
    held_out_seed: int

    def stages(self, run_seed: int) -> list[tuple[str, list[list[str]]]]:
        """(stage name, CLI argument lists) in pipeline order, with the
        artifact paths relative to the working directory so that the
        artifacts do not depend on where the benchmark runs."""
        gen = [
            "gen", "--scenario", self.scenario, "--grid", self.grid,
            "--worlds", str(self.worlds), "--paths", str(self.paths),
            "--k", str(self.k), "--test-fraction", str(self.test_fraction),
            "--seed", str(self.seed), "--out", DATASET,
        ]
        compile_tree = ["compile-tree", "--dataset", DATASET, "--out", TREE]
        runs = [
            ["run", "--dataset", DATASET, "--policy", p, "--tree", TREE,
             "--jobs", "1", "--seed", str(run_seed), "--out", RUNS]
            for p in POLICIES
        ]
        report = [
            "report", "--runs", RUNS, "--reference", REFERENCE,
            "--seed", str(run_seed), "--out", TABLE,
        ]
        return list(zip(STAGES, ([gen], [compile_tree], runs, [report])))


# Every workload has at least 100 test worlds, so a p90 over episodes keeps
# at least 10 samples beyond it.
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline case (criterion 6): the path library is about
        # half the pipeline, the tree has 9 nodes, lazysp-graph is half of run.
        Workload("paper-twowall", "twowall", "11x11", 1000, 100, 2000, 0.1, 42, 43),
        # Weakly correlated worlds give the deepest tree (111 nodes, depth
        # 26, 50 handoffs): compilation and the BISECT completion dominate,
        # the library is about 5% of the pipeline.
        Workload("forest-deep", "forest", "11x11", 2000, 100, 200, 0.1, 5, 6),
        # The 21x21 scale point: 4x the edges, a quarter of the worlds; a
        # change that scales worse in |E| shows here.
        Workload("grid21-forest", "forest", "21x21", 500, 100, 200, 0.2, 5, 6),
    )
}

# Seconds-long versions of the same pipelines, for the harness's own tests.
SMOKE = {
    "paper-twowall": Workload("paper-twowall", "twowall", "6x6", 80, 20, 300, 0.25, 42, 43),
    "forest-deep": Workload("forest-deep", "forest", "7x7", 80, 10, 60, 0.25, 5, 6),
    "grid21-forest": Workload("grid21-forest", "forest", "8x8", 60, 10, 60, 0.25, 5, 6),
}


def select(name: str, smoke: bool = False, held_out: bool = False) -> Workload:
    """A workload at full or smoke size, with its own or its held-out
    dataset seed."""
    w = (SMOKE if smoke else WORKLOADS)[name]
    return replace(w, seed=w.held_out_seed) if held_out else w
