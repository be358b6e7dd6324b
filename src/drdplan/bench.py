"""Benchmark harness: run policies over dataset splits, account evaluation
cost, and reduce per-world costs to normalized-cost confidence intervals
and training-size ablation curves.

``POLICIES`` is the one table of policy ids: lazysp-graph, lazysp-set,
random, bisect, direct+bisect, direct-only.  Each id maps to a per-run
function that checks its inputs, builds what every world of the run shares
(bias vector, path library, training rows) and returns the episode,
``episode(oracle, trace, status) -> RunTrace``.  run_policy builds what one
world needs (its oracle, a fresh trace and an all-unknown edge status) and
the episode extends the trace and status.  The last two ids require a
compiled decision tree whose recorded dataset hash and alpha match the
dataset and the run's alpha.  Every completion of direct+bisect takes its
bias from its status alone (trees.bias_vector of the training outcomes,
which reads the worlds consistent with the episode so far), and bisect
runs direct+bisect on a one-leaf tree that hands off at the root.  bisect
and direct+bisect fill their BISECT tries for all of the run's worlds
before the first episode, in the parent of any --jobs fork
(bernoulli.set_walk); lazysp-graph memoizes its searches per run (see
lazysp_graph), and each forked --jobs worker fills its own copy.
"""

from __future__ import annotations

import os

import numpy as np

from . import baselines, bernoulli, ec2, rng as _rng, trees
from .io import FormatError, atomic_write_bytes, dataset_hash, read_json, reading, to_json_bytes
from .model import Dataset, Library
from .traces import AllRegionsDead, Handoff, RunTrace, Solved, traces_from_json, traces_to_json

RUNS_SCHEMA_VERSION = 1

# Bootstrap resamples are drawn this many at a time from the one substream;
# the draws and the CIs equal those of a single (bootstrap_n, n) draw, while
# the index block stays BOOTSTRAP_BLOCK x n.
BOOTSTRAP_BLOCK = 256


class ContractError(RuntimeError):
    """Inputs violate a cross-artifact contract (e.g. tree/dataset hash)."""


def _world_oracle(dataset: Dataset, h: int):
    row = dataset.theta[h]

    def oracle(edge: int) -> int:
        return int(row[edge])

    return oracle


def _checked_tree(
    dataset: Dataset, tree: trees.DecisionTree | None, policy: str, alpha: float, digest: str
):
    """The tree, once its recorded dataset hash and alpha match the
    dataset's hash (digest) and the run's alpha and its nodes fit the
    dataset: every edge and region in range, and no edge tested twice on
    a root-to-leaf path."""
    if tree is None:
        raise ContractError(f"policy {policy} requires a compiled tree")
    want = tree.params.get("dataset_hash")
    if want is None:
        raise ContractError("tree records no dataset hash")
    if not isinstance(want, str):
        raise FormatError(f"tree dataset_hash {want!r} is not a string")
    if want != digest:
        raise ContractError(
            f"tree was compiled for dataset {want[:12]}..., got {digest[:12]}..."
        )
    tree_alpha = tree.params.get("alpha")
    if not isinstance(tree_alpha, float):
        raise FormatError(f"tree alpha {tree_alpha!r} is not a number")
    if tree_alpha != alpha:
        raise ContractError(f"tree was compiled with alpha {tree_alpha}, the run has {alpha}")
    n_edges, n_paths = dataset.graph.num_edges, dataset.num_paths
    below = []  # per node, the edges tested in its subtree, as a bit set
    for i, node in enumerate(tree.nodes):
        tested = 0
        if isinstance(node, trees.InternalNode):
            tested = below[node.child0] | below[node.child1]
            if node.edge >= n_edges:
                raise FormatError(f"tree node {i} names edge {node.edge} of {n_edges}")
            if tested >> node.edge & 1:
                raise FormatError(f"tree node {i} tests edge {node.edge} again below it")
            tested |= 1 << node.edge
        elif isinstance(node, Solved) and node.path_index >= n_paths:
            raise FormatError(f"tree node {i} names path {node.path_index} of {n_paths}")
        below.append(tested)
    return tree


# Each policy id maps to a per-run function of (dataset, tree, train_idx,
# seed, alpha, worlds) that returns the episode, (oracle, trace, status) ->
# RunTrace; worlds are the run's world indices.  The tree policies get
# their tree checked by run_policy (_checked_tree).  Episodes look up the
# functions they call through their modules at call time, so that a
# wrapper installed on a module attribute sees every call.


def _lazysp_graph(dataset, tree, train_idx, seed, alpha, worlds):
    paths = {}  # invalid edges -> optimistic shortest path
    return lambda oracle, trace, status: baselines.lazysp_graph(
        dataset.graph, oracle, trace, status, paths
    )


def _lazysp_set(dataset, tree, train_idx, seed, alpha, worlds):
    library = Library.of(dataset)
    order = baselines.shortest_first(library, dataset.graph)
    return lambda oracle, trace, status: baselines.lazysp_set(
        library, order, dataset.graph, oracle, trace, status
    )


def _random(dataset, tree, train_idx, seed, alpha, worlds):
    library = Library.of(dataset)
    return lambda oracle, trace, status: baselines.random_policy(
        library, dataset.graph, seed, oracle, trace, status
    )


def _bisect(dataset, tree, train_idx, seed, alpha, worlds):
    # Standalone baseline: direct+bisect on a one-leaf tree that hands off
    # at the root, where every training world is consistent.
    if len(train_idx) == 0:
        raise ValueError("dataset has no training split")
    root = trees.DecisionTree([Handoff(len(train_idx))], 0)
    return _direct_bisect(dataset, root, train_idx, seed, alpha, worlds)


def _direct_bisect(dataset, tree, train_idx, seed, alpha, worlds):
    """The tree, the check of a solved leaf, then BISECT.  Before the
    first episode, every world of the run goes through the tree and the
    check, and the worlds left to complete are grouped by their status
    then; one bernoulli.set_walk fills every group's completion trie over
    its worlds, so each episode's bisect_policy replays its trie."""
    train_theta = dataset.theta[train_idx]
    library = Library.of(dataset)
    eval_cost = dataset.graph.eval_cost
    completions = {}  # status when BISECT takes over -> (bias, trie)

    def tree_phase(oracle, trace: RunTrace, status: np.ndarray) -> bool:
        """Run the tree and check a solved leaf's path; True when that
        ends the episode."""
        leaf = trees.execute_tree(tree, oracle, eval_cost, trace, status)
        if isinstance(leaf, Solved):
            # Off-database safety: prove the named path against the live world.
            path = library.paths[leaf.path_index]
            if baselines.check_path(path, status, oracle, eval_cost, trace):
                trace.terminal = leaf
                trace.path_edges = path
                return True
        return False

    def completion(status: np.ndarray):
        # A handoff, a refuted solved leaf, or a dead leaf whose verdict must
        # be witnessed on the live world: its bias comes from the status.
        if (key := status.tobytes()) not in completions:
            completions[key] = (trees.bias_vector(train_theta, status, alpha), {})
        return completions[key]

    groups = {}  # status after the tree -> (status, worlds)
    for h in worlds:
        status = np.zeros(dataset.graph.num_edges, dtype=np.int8)
        if not tree_phase(_world_oracle(dataset, h), RunTrace("fill", h), status):
            groups.setdefault(status.tobytes(), (status, []))[1].append(h)
    roots = []
    for status, hs in groups.values():
        beta, trie = completion(status)
        roots.append((beta, status, np.array(hs), trie))
    bernoulli.set_walk(library, eval_cost, dataset.theta, roots)

    def episode(oracle, trace: RunTrace, status: np.ndarray) -> RunTrace:
        if tree_phase(oracle, trace, status):
            return trace
        beta, trie = completion(status)
        return bernoulli.bisect_policy(beta, status, library, eval_cost, oracle, trace, trie)

    return episode


def _direct_only(dataset, tree, train_idx, seed, alpha, worlds):
    train_theta = dataset.theta[train_idx]
    train_memb = dataset.membership[train_idx]
    eval_cost = dataset.graph.eval_cost

    def episode(oracle, trace: RunTrace, status: np.ndarray) -> RunTrace:
        h = trace.world_index
        leaf = trees.execute_tree(tree, oracle, eval_cost, trace, status)
        region = None
        if isinstance(leaf, Solved):
            region = leaf.path_index
        elif isinstance(leaf, Handoff):
            plausible = np.nonzero(train_memb[ec2.consistent(train_theta, status)].any(axis=0))[0]
            region = int(plausible[0]) if plausible.size else None
        if region is None:
            trace.terminal = AllRegionsDead()
            trace.verified = not dataset.membership[h].any()
            return trace
        path = dataset.paths[region].edge_ids
        trace.terminal = Solved(region)
        trace.path_edges = tuple(path)
        trace.verified = bool(dataset.theta[h][list(path)].all())
        return trace

    return episode


POLICIES = {
    "lazysp-graph": _lazysp_graph,
    "lazysp-set": _lazysp_set,
    "random": _random,
    "bisect": _bisect,
    "direct+bisect": _direct_bisect,
    "direct-only": _direct_only,
}
POLICY_IDS = tuple(POLICIES)
TREE_POLICIES = ("direct+bisect", "direct-only")

# The per-world run in progress, inherited by forked pool workers.
_POOL_WORLD = None


def _pool_run(h: int) -> RunTrace:
    return _POOL_WORLD(h)


def run_policy(
    policy: str,
    dataset: Dataset,
    split: str = "test",
    tree: trees.DecisionTree | None = None,
    seed: int = 0,
    jobs: int = 1,
    alpha: float = 0.9,
    train_idx: np.ndarray | None = None,
    digest: str | None = None,
) -> list[RunTrace]:
    """Run one policy over every world of the split: test, train or all.
    Each world gets its oracle, a fresh RunTrace and an all-unknown int8
    edge status, which the policy's episode extends.  alpha must lie in
    (0, 1) for every policy, NaN refused, before any world runs.  A tree
    policy checks its tree against digest, the dataset's hash (computed
    when None)."""
    global _POOL_WORLD
    if policy not in POLICIES:
        raise ValueError(f"unknown policy id {policy!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    splits = {"test": dataset.test, "train": dataset.train, "all": np.arange(dataset.num_worlds)}
    if split not in splits:
        raise ValueError(f"unknown split {split!r}: expected test, train or all")
    worlds = splits[split]
    if len(worlds) == 0:
        raise ValueError(f"the {split} split has no worlds")
    if train_idx is None:
        train_idx = dataset.train
    if policy in TREE_POLICIES:
        digest = dataset_hash(dataset) if digest is None else digest
        tree = _checked_tree(dataset, tree, policy, alpha, digest)
    episode = POLICIES[policy](dataset, tree, train_idx, seed, alpha, worlds)
    n_edges = dataset.graph.num_edges

    def world(h: int) -> RunTrace:
        status = np.zeros(n_edges, dtype=np.int8)
        return episode(_world_oracle(dataset, h), RunTrace(policy, h), status)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    jobs = min(jobs, len(worlds), cpus)
    if jobs <= 1:
        return [world(int(h)) for h in worlds]

    import multiprocessing  # only here: every command would pay for its import

    _POOL_WORLD = world
    try:
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            return pool.map(_pool_run, [int(h) for h in worlds])
    finally:
        _POOL_WORLD = None


def normalized_cost(
    costs_alg, costs_ref, bootstrap_n: int = 10_000, seed: int = 0
):
    """95% percentile-bootstrap CI of the mean paired ratio-minus-one.

    Statistic: mean over worlds of (cost_alg / cost_ref - 1); resampling is
    over worlds.  Pairs with cost_ref == 0 must be filtered by the caller.
    costs_alg may also be a (P, n) stack of P policies' costs on the same
    worlds: each block of resamples is drawn once and applied to every
    row, and the result is the list of the P CIs, each the one its row
    gets alone.
    """
    a = np.asarray(costs_alg, dtype=np.float64)
    r = np.asarray(costs_ref, dtype=np.float64)
    if a.shape[-1:] != r.shape or a.ndim > 2 or r.size < 2:
        raise ValueError("need paired cost vectors of equal length >= 2")
    if np.any(r == 0):
        raise ValueError("reference costs must be nonzero (filter zero pairs first)")
    if bootstrap_n < 1:
        raise ValueError("bootstrap_n must be at least 1")
    ratios = np.atleast_2d(a / r - 1.0)
    gen = _rng.substream(seed, _rng.STREAM_BOOTSTRAP)
    means = np.empty((len(ratios), bootstrap_n))
    for start in range(0, bootstrap_n, BOOTSTRAP_BLOCK):
        rows = min(BOOTSTRAP_BLOCK, bootstrap_n - start)
        idx = gen.integers(0, r.size, size=(rows, r.size))
        for row, out in zip(ratios, means):
            out[start:start + rows] = row[idx].mean(axis=1)
    cis = [(float(np.percentile(m, 2.5)), float(np.percentile(m, 97.5))) for m in means]
    return cis if a.ndim == 2 else cis[0]


def trace_success(trace: RunTrace, dataset: Dataset) -> bool:
    """Solved with a path that is genuinely valid in the world."""
    if not isinstance(trace.terminal, Solved):
        return False
    if not trace.verified:
        return False
    world = dataset.theta[trace.world_index]
    return bool(world[list(trace.path_edges)].all()) if trace.path_edges else False


def sweep_training_size(
    dataset: Dataset,
    sizes,
    eta: float,
    alpha: float,
    max_nodes: int = 200_000,
    jobs: int = 1,
) -> list[dict]:
    """Training-size ablation: recompile on nested training prefixes, report
    mean/variance of the combined policy's cost and both failure rates on
    the fixed test split (feasible worlds only for cost and failure)."""
    sizes = list(sizes)
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must strictly increase, got {sizes}")
    if sizes[-1] > len(dataset.train):
        raise ValueError("largest size exceeds the training split")
    feasible = dataset.membership[dataset.test].any(axis=1)
    if not feasible.any():
        raise ValueError("the test split has no feasible world to average over")
    ds_hash = dataset_hash(dataset)
    results = []
    for size in sizes:
        sub = dataset.train[:size]
        problem = ec2.problem_from_dataset(dataset, sub)
        tree = trees.compile_tree(
            problem, eta, alpha=alpha, max_nodes=max_nodes, params={"dataset_hash": ds_hash}
        )
        combined = run_policy("direct+bisect", dataset, "test", tree, jobs=jobs, alpha=alpha,
                              train_idx=sub, digest=ds_hash)
        tree_only = run_policy("direct-only", dataset, "test", tree, jobs=jobs, alpha=alpha,
                               train_idx=sub, digest=ds_hash)
        costs = np.array([t.total_cost for t in combined])[feasible]
        ok_combined = np.array([trace_success(t, dataset) for t in combined])[feasible]
        ok_tree = np.array([trace_success(t, dataset) for t in tree_only])[feasible]
        results.append(
            {
                "n_train": int(size),
                "mean_cost": float(costs.mean()),
                "var_cost": float(costs.var(ddof=1)) if len(costs) > 1 else 0.0,
                "failure_rate_direct_only": float(1.0 - ok_tree.mean()),
                "failure_rate_direct_bisect": float(1.0 - ok_combined.mean()),
                "n_feasible_test": int(feasible.sum()),
                "tree_stats": tree.params["stats"],
            }
        )
    return results


# ---------------------------------------------------------------------------
# Run-file persistence and report assembly


def save_runs(
    path: str,
    policy: str,
    dataset: Dataset,
    traces: list[RunTrace],
    seed: int,
    params: dict | None = None,
    digest: str | None = None,
) -> None:
    """Write a run file; digest is the dataset's hash, computed when None."""
    feasible = {int(h): bool(dataset.membership[h].any()) for h in {t.world_index for t in traces}}
    scenario = dataset.provenance.get("scenario")
    label = scenario.get("kind") if isinstance(scenario, dict) else None
    doc = {
        "schema_version": RUNS_SCHEMA_VERSION,
        "policy": policy,
        "dataset_hash": dataset_hash(dataset) if digest is None else digest,
        "dataset_label": label if isinstance(label, str) else "dataset",
        "seed": int(seed),
        "params": params or {},
        "feasible": feasible,
        "traces": traces_to_json(traces),
    }
    atomic_write_bytes(path, to_json_bytes(doc))


def load_runs(path: str) -> dict:
    """A run file parsed once: its header keys as written, ``feasible``
    keyed by world index and ``traces`` as RunTraces.  FormatError for bad
    JSON, a wrong schema, a feasible map that does not name exactly the
    traced worlds, or anything build_report cannot read."""
    with open(path, "rb") as f:
        doc = read_json(f.read(), f"run file {path}", RUNS_SCHEMA_VERSION)
    for key, kind in (("policy", str), ("dataset_hash", str), ("dataset_label", str),
                      ("feasible", dict), ("traces", list)):
        if not isinstance(doc.get(key), kind):
            raise FormatError(f"bad run file {path}: {key!r} is missing or not a {kind.__name__}")
    with reading(f"bad run file {path}"):
        # Keys are canonical decimal world indices: no two name one world.
        feasible = {int(h): ok for h, ok in doc["feasible"].items()
                    if str(int(h)) == h and type(ok) is bool}
        if len(feasible) != len(doc["feasible"]):
            raise FormatError("feasible is not canonical world index: bool")
        doc["feasible"], doc["traces"] = feasible, traces_from_json(doc["traces"])
    worlds = {t.world_index for t in doc["traces"]}
    if len(worlds) != len(doc["traces"]):
        raise FormatError(f"bad run file {path}: two traces name one world_index")
    if doc["feasible"].keys() != worlds:
        raise FormatError(f"bad run file {path}: feasible does not name exactly the traced worlds")
    return doc


def build_report(
    run_docs: list[dict],
    reference: str,
    bootstrap_n: int = 10_000,
    seed: int = 0,
) -> dict:
    """Normalized-cost CIs of every policy against the reference, per
    dataset, paired on the feasible worlds both policies ran.
    ContractError when two run files hold one policy for one dataset, or
    when a policy pairs with the reference on fewer than two worlds, where
    no CI exists."""
    by_ds: dict[str, dict[str, dict]] = {}
    labels: dict[str, str] = {}
    for doc in run_docs:
        key, policy = doc["dataset_hash"], doc["policy"]
        labels[key] = doc["dataset_label"]
        policies = by_ds.setdefault(key, {})
        if policy in policies:
            raise ContractError(
                f"two run files of policy {policy!r} for dataset {labels[key]}"
            )
        policies[policy] = doc

    report = {
        "reference": reference,
        "bootstrap_n": int(bootstrap_n),
        "bootstrap_seed": int(seed),
        "statistic": "mean paired (cost/ref - 1), percentile bootstrap over worlds",
        "edge_selector": "forward",
        "datasets": {},
    }
    for key, policies in sorted(by_ds.items()):
        if reference not in policies:
            raise ValueError(f"reference policy {reference!r} missing for dataset {labels[key]}")
        ref_doc = policies[reference]
        ref_costs = {t.world_index: t.total_cost for t in ref_doc["traces"]}
        feasible = ref_doc["feasible"]
        entry = {"label": labels[key], "policies": {}}
        paired = {}  # the worlds a policy pairs on -> its name and costs there
        for name, doc in sorted(policies.items()):
            costs = {t.world_index: t.total_cost for t in doc["traces"]}
            succ = {
                t.world_index: isinstance(t.terminal, Solved) and t.verified
                for t in doc["traces"]
            }
            common = sorted(
                h for h in costs
                if h in ref_costs and feasible.get(h, False) and ref_costs[h] > 0
            )
            excluded = sorted(h for h in costs if h in ref_costs and feasible.get(h, False) and ref_costs[h] == 0)
            if len(common) < 2:
                raise ContractError(
                    f"dataset {labels[key]}: policy {name!r} pairs with the reference on "
                    f"{len(common)} feasible world(s), fewer than the 2 a CI needs"
                )
            entry["policies"][name] = {
                "mean_cost": float(np.mean([costs[h] for h in common])),
                "success_rate": float(np.mean([succ[h] for h in common])),
                "n_paired": len(common),
                "n_excluded_zero_ref": len(excluded),
                "infeasible_rate": float(np.mean([not feasible.get(t.world_index, False) for t in doc["traces"]])),
            }
            paired.setdefault(tuple(common), []).append((name, [costs[h] for h in common]))
        # Policies paired on the same worlds share each bootstrap draw.
        for common, group in paired.items():
            cis = normalized_cost([c for _, c in group], [ref_costs[h] for h in common],
                                  bootstrap_n, seed)
            for (name, _), ci in zip(group, cis):
                entry["policies"][name]["ci"] = list(ci)
        report["datasets"][key] = entry
    return report


def report_to_csv(report: dict) -> str:
    """Wide table mirroring the benchmark table layout: one row per policy,
    one (low, high) column pair per dataset.  A label that two datasets
    share gets its dataset-hash prefix, so no column name repeats."""
    keys = sorted(report["datasets"])
    labels = [report["datasets"][k]["label"] for k in keys]
    labels = [f"{l}-{k[:12]}" if labels.count(l) > 1 else l for l, k in zip(labels, keys)]
    policies = sorted({p for k in keys for p in report["datasets"][k]["policies"]})
    lines = ["policy," + ",".join(f"{l}_ci_low,{l}_ci_high" for l in labels)]
    for pol in policies:
        cells = [pol]
        for k in keys:
            entry = report["datasets"][k]["policies"].get(pol)
            if entry is None:  # the policy has no run file for this dataset
                cells += ["", ""]
            else:
                cells += [f"{entry['ci'][0]:.6f}", f"{entry['ci'][1]:.6f}"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def sweep_to_csv(results: list[dict]) -> str:
    lines = ["n_train,mean_cost,var_cost,failure_rate_direct_only,failure_rate_direct_bisect"]
    for row in results:
        lines.append(
            f"{row['n_train']},{row['mean_cost']:.6f},{row['var_cost']:.6f},"
            f"{row['failure_rate_direct_only']:.6f},{row['failure_rate_direct_bisect']:.6f}"
        )
    return "\n".join(lines) + "\n"
