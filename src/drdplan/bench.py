"""Benchmark harness: run policies over dataset splits, account evaluation
cost, and reduce per-world costs to normalized-cost confidence intervals
and training-size ablation curves.

``POLICIES`` is the one table of policy ids: lazysp-graph, lazysp-set,
random, bisect, direct+bisect, direct-only.  Each id maps to a per-run
function that checks its inputs, builds what every world of the run shares
(bias vector, path library, training rows) and returns the episode for one
world.  The last two ids require a compiled decision tree whose recorded
dataset hash matches the dataset.
"""

from __future__ import annotations

import json
import multiprocessing

import numpy as np

from . import baselines, bernoulli, ec2, rng as _rng, trees
from .io import atomic_write_bytes, dataset_hash
from .model import Dataset, Library
from .traces import AllRegionsDead, Infeasible, RunTrace, Solved

RUNS_SCHEMA_VERSION = 1


class ContractError(RuntimeError):
    """Inputs violate a cross-artifact contract (e.g. tree/dataset hash)."""


class RunsFormatError(ValueError):
    """Malformed or wrong-version run file."""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _world_oracle(dataset: Dataset, h: int):
    row = dataset.theta[h]

    def oracle(edge: int) -> int:
        return int(row[edge])

    return oracle


def _surviving(train_theta: np.ndarray, observed: dict) -> np.ndarray:
    """Mask over the training rows of worlds consistent with the observations."""
    mask = np.ones(len(train_theta), dtype=bool)
    for e, o in observed.items():
        mask &= train_theta[:, e] == o
    return mask


def _checked_tree(dataset: Dataset, tree: trees.DecisionTree | None, policy: str):
    """The tree, once its recorded dataset hash matches the dataset and its
    nodes fit it: edges and regions in range, and each handoff bias a
    length-|E| vector of probabilities strictly inside (0, 1)."""
    if tree is None:
        raise ContractError(f"policy {policy} requires a compiled tree")
    want = tree.params.get("dataset_hash")
    if want is None:
        raise ContractError("tree records no dataset hash")
    if not isinstance(want, str):
        raise trees.TreeFormatError(f"tree dataset_hash {want!r} is not a string")
    have = dataset_hash(dataset)
    if want != have:
        raise ContractError(
            f"tree was compiled for dataset {want[:12]}..., got {have[:12]}..."
        )
    n_edges, n_paths = dataset.graph.num_edges, dataset.num_paths
    for i, node in enumerate(tree.nodes):
        if isinstance(node, trees.InternalNode) and node.edge >= n_edges:
            fault = f"names edge {node.edge} of {n_edges}"
        elif isinstance(node, trees.SolvedLeaf) and node.region >= n_paths:
            fault = f"names path {node.region} of {n_paths}"
        elif isinstance(node, trees.HandoffLeaf) and not (
            len(node.bias) == n_edges
            and all(_is_number(b) and 0.0 < b < 1.0 for b in node.bias)
        ):
            fault = f"has a bias that is not {n_edges} values inside (0, 1)"
        else:
            continue
        raise trees.TreeFormatError(f"tree node {i} {fault}")
    return tree


# Each policy id maps to a per-run function of (dataset, tree, train_idx,
# seed, alpha) that returns the per-world episode, h -> RunTrace.


def _library(dataset: Dataset, edge_lengths=None) -> Library:
    return Library.build(
        [p.edge_ids for p in dataset.paths], dataset.graph.num_edges, edge_lengths
    )


def _lazysp_graph(dataset, tree, train_idx, seed, alpha):
    return lambda h: baselines.lazysp_graph(
        dataset.graph, _world_oracle(dataset, h), world_index=h
    )


def _lazysp_set(dataset, tree, train_idx, seed, alpha):
    library = _library(dataset, dataset.graph.exact_length())
    return lambda h: baselines.lazysp_set(
        library, dataset.graph, _world_oracle(dataset, h), world_index=h
    )


def _random(dataset, tree, train_idx, seed, alpha):
    library = _library(dataset)
    return lambda h: baselines.random_policy(
        library, dataset.graph, _world_oracle(dataset, h), seed, world_index=h
    )


def _bisect(dataset, tree, train_idx, seed, alpha):
    # Standalone baseline: training column means, clipped, as bias.
    beta = bernoulli.clamp_bias(dataset.theta[train_idx].mean(axis=0), alpha)
    library = _library(dataset)

    def episode(h: int) -> RunTrace:
        return bernoulli.bisect_policy(
            bernoulli.BernoulliBelief(beta=beta), library, dataset.graph.eval_cost,
            _world_oracle(dataset, h), "bisect", h,
        )

    return episode


def _direct_bisect(dataset, tree, train_idx, seed, alpha):
    tree = _checked_tree(dataset, tree, "direct+bisect")
    alpha = tree.params.get("alpha")
    if not (_is_number(alpha) and 0.0 < alpha < 1.0):
        raise trees.TreeFormatError(f"tree alpha {alpha!r} is not inside (0, 1)")
    alpha = float(alpha)
    train_theta = dataset.theta[train_idx]
    library = _library(dataset)
    eval_cost = dataset.graph.eval_cost

    def episode(h: int) -> RunTrace:
        oracle = _world_oracle(dataset, h)
        leaf, trace = trees.execute_tree(tree, oracle, eval_cost, "direct+bisect", h)
        if isinstance(leaf, trees.HandoffLeaf):
            bias = np.asarray(leaf.bias)
        else:
            if isinstance(leaf, trees.SolvedLeaf):
                # Off-database safety: prove the named path against the live world.
                path = dataset.paths[leaf.region].edge_ids
                status = np.zeros(len(eval_cost), dtype=np.int8)
                for e, o in trace.evaluated.items():
                    status[e] = 1 if o else -1
                if baselines.check_path(path, status, oracle, eval_cost, trace):
                    trace.terminal = Solved(leaf.region)
                    trace.path_edges = tuple(path)
                    return trace
            # A refuted solved leaf, or a dead leaf whose verdict must be
            # witnessed on the live world: bias from the training worlds
            # consistent with what was seen (all of them if none is).
            observed = trace.evaluated
            mask = _surviving(train_theta, observed)
            rows = train_theta[mask] if mask.any() else train_theta
            bias = trees.bias_vector(rows, observed, alpha)
        belief = bernoulli.BernoulliBelief(
            beta=bernoulli.clamp_bias(bias, alpha), observed=trace.evaluated
        )
        sub = bernoulli.bisect_policy(belief, library, eval_cost, oracle, trace.policy, h)
        trace.records.extend(sub.records)
        trace.terminal = sub.terminal
        trace.path_edges = sub.path_edges
        return trace

    return episode


def _direct_only(dataset, tree, train_idx, seed, alpha):
    tree = _checked_tree(dataset, tree, "direct-only")
    train_theta = dataset.theta[train_idx]
    train_memb = dataset.membership[train_idx]

    def episode(h: int) -> RunTrace:
        leaf, trace = trees.execute_tree(
            tree, _world_oracle(dataset, h), dataset.graph.eval_cost, "direct-only", h
        )
        region = None
        if isinstance(leaf, trees.SolvedLeaf):
            region = leaf.region
        elif isinstance(leaf, trees.HandoffLeaf):
            plausible = np.nonzero(
                train_memb[_surviving(train_theta, trace.evaluated)].any(axis=0)
            )[0]
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

# The episode of the run in progress, inherited by forked pool workers.
_POOL_EPISODE = None


def _pool_run(h: int) -> RunTrace:
    return _POOL_EPISODE(h)


def run_policy(
    policy: str,
    dataset: Dataset,
    split: str = "test",
    tree: trees.DecisionTree | None = None,
    seed: int = 0,
    jobs: int = 1,
    alpha: float = 0.9,
    train_idx: np.ndarray | None = None,
) -> list[RunTrace]:
    """Run one policy over every world of the chosen split."""
    global _POOL_EPISODE
    if policy not in POLICIES:
        raise ValueError(f"unknown policy id {policy!r}")
    if train_idx is None:
        train_idx = dataset.train
    episode = POLICIES[policy](dataset, tree, train_idx, seed, alpha)
    worlds = {"test": dataset.test, "train": dataset.train}.get(split)
    if worlds is None:
        worlds = np.arange(dataset.num_worlds)

    if jobs <= 1:
        return [episode(int(h)) for h in worlds]

    _POOL_EPISODE = episode
    try:
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            return pool.map(_pool_run, [int(h) for h in worlds])
    finally:
        _POOL_EPISODE = None


def normalized_cost(
    costs_alg, costs_ref, bootstrap_n: int = 10_000, seed: int = 0
) -> tuple[float, float]:
    """95% percentile-bootstrap CI of the mean paired ratio-minus-one.

    Statistic: mean over worlds of (cost_alg / cost_ref - 1); resampling is
    over worlds.  Pairs with cost_ref == 0 must be filtered by the caller.
    """
    a = np.asarray(costs_alg, dtype=np.float64)
    r = np.asarray(costs_ref, dtype=np.float64)
    if a.shape != r.shape or a.size < 2:
        raise ValueError("need paired cost vectors of equal length >= 2")
    if np.any(r == 0):
        raise ValueError("reference costs must be nonzero (filter zero pairs first)")
    if bootstrap_n < 1:
        raise ValueError("bootstrap_n must be at least 1")
    ratios = a / r - 1.0
    gen = _rng.substream(seed, _rng.STREAM_BOOTSTRAP)
    idx = gen.integers(0, len(ratios), size=(bootstrap_n, len(ratios)))
    means = ratios[idx].mean(axis=1)
    return float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))


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
    if sizes != sorted(sizes):
        raise ValueError("sizes must be increasing")
    if sizes[-1] > len(dataset.train):
        raise ValueError("largest size exceeds the training split")
    ds_hash = dataset_hash(dataset)
    feasible = dataset.membership[dataset.test].any(axis=1)
    results = []
    for size in sizes:
        sub = dataset.train[:size]
        problem = ec2.problem_from_dataset(dataset, sub)
        tree = trees.compile_tree(
            problem, eta, alpha, max_nodes,
            params={"dataset_hash": ds_hash},
        )
        combined = run_policy("direct+bisect", dataset, "test", tree, jobs=jobs, train_idx=sub)
        tree_only = run_policy("direct-only", dataset, "test", tree, jobs=jobs, train_idx=sub)
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


def _terminal_to_json(t) -> dict:
    if isinstance(t, Solved):
        return {"kind": "solved", "path_index": t.path_index}
    if isinstance(t, AllRegionsDead):
        return {"kind": "dead", "off_database": t.off_database}
    if isinstance(t, Infeasible):
        return {"kind": "infeasible"}
    raise TypeError(f"cannot serialize terminal {t!r}")


def _terminal_from_json(d: dict):
    kind = d["kind"]
    if kind == "solved" and (d["path_index"] is None or type(d["path_index"]) is int):
        return Solved(d["path_index"])
    if kind == "dead" and type(off := d.get("off_database", False)) is bool:
        return AllRegionsDead(off)
    if kind == "infeasible":
        return Infeasible()
    raise ValueError(f"bad terminal {d!r}")


def traces_to_json(traces: list[RunTrace]) -> list[dict]:
    return [
        {
            "policy": t.policy,
            "world_index": t.world_index,
            "records": [[e, o, c] for e, o, c in t.records],
            "terminal": _terminal_to_json(t.terminal),
            "path_edges": list(t.path_edges),
            "verified": t.verified,
        }
        for t in traces
    ]


def _trace_from_json(d: dict) -> RunTrace:
    policy, h, verified = d["policy"], d["world_index"], d.get("verified", True)
    records = [(e, o, c) for e, o, c in d["records"]]
    path_edges = tuple(d["path_edges"])
    if not (isinstance(policy, str) and type(h) is int and type(verified) is bool):
        raise TypeError("policy, world_index or verified has the wrong type")
    if not all(type(e) is int and type(o) is int and type(c) is float for e, o, c in records):
        raise TypeError("records are not [edge, outcome, cost] triples")
    if not all(type(e) is int for e in path_edges):
        raise TypeError("path_edges are not edge ids")
    return RunTrace(policy=policy, world_index=h, records=records,
                    terminal=_terminal_from_json(d["terminal"]),
                    path_edges=path_edges, verified=verified)


def traces_from_json(docs: list[dict]) -> list[RunTrace]:
    """The traces of a run file, checked strictly: RunsFormatError names
    the first trace with a missing key or a value of the wrong type."""
    out = []
    for i, d in enumerate(docs):
        try:
            out.append(_trace_from_json(d))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise RunsFormatError(f"trace {i}: {exc!r}") from exc
    return out


def save_runs(
    path: str,
    policy: str,
    dataset: Dataset,
    traces: list[RunTrace],
    seed: int,
    params: dict | None = None,
) -> None:
    feasible = {int(h): bool(dataset.membership[h].any()) for h in {t.world_index for t in traces}}
    doc = {
        "schema_version": RUNS_SCHEMA_VERSION,
        "policy": policy,
        "dataset_hash": dataset_hash(dataset),
        "dataset_label": dataset.provenance.get("scenario", {}).get("kind", "dataset"),
        "seed": int(seed),
        "params": params or {},
        "feasible": feasible,
        "traces": traces_to_json(traces),
    }
    atomic_write_bytes(path, (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode())


def load_runs(path: str) -> dict:
    """A run file parsed once: its header keys as written, ``feasible``
    keyed by world index and ``traces`` as RunTraces.  RunsFormatError
    for bad JSON, a wrong schema, or anything build_report cannot read."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        doc = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RunsFormatError(f"bad run file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema_version") != RUNS_SCHEMA_VERSION:
        raise RunsFormatError(f"unsupported runs schema in {path}")
    for key, kind in (("policy", str), ("dataset_hash", str), ("dataset_label", str),
                      ("feasible", dict), ("traces", list)):
        if not isinstance(doc.get(key), kind):
            raise RunsFormatError(f"bad run file {path}: {key!r} is missing or not a {kind.__name__}")
    feasible = doc["feasible"]
    if not all(h.isdecimal() and type(ok) is bool for h, ok in feasible.items()):
        raise RunsFormatError(f"bad run file {path}: feasible is not world index: bool")
    doc["feasible"] = {int(h): ok for h, ok in feasible.items()}
    try:
        doc["traces"] = traces_from_json(doc["traces"])
    except RunsFormatError as exc:
        raise RunsFormatError(f"bad run file {path}: {exc}") from exc
    return doc


def build_report(
    run_docs: list[dict],
    reference: str,
    bootstrap_n: int = 10_000,
    seed: int = 0,
) -> dict:
    """Normalized-cost CIs of every policy against the reference, per
    dataset, paired on the feasible worlds both policies ran."""
    by_ds: dict[str, dict[str, dict]] = {}
    labels: dict[str, str] = {}
    for doc in run_docs:
        key = doc["dataset_hash"]
        labels[key] = doc["dataset_label"]
        by_ds.setdefault(key, {})[doc["policy"]] = doc

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
            pol = {
                "mean_cost": float(np.mean([costs[h] for h in common])) if common else None,
                "success_rate": float(np.mean([succ[h] for h in common])) if common else None,
                "n_paired": len(common),
                "n_excluded_zero_ref": len(excluded),
                "infeasible_rate": float(np.mean([not feasible.get(t.world_index, False) for t in doc["traces"]])),
            }
            if len(common) >= 2:
                lo, hi = normalized_cost(
                    [costs[h] for h in common], [ref_costs[h] for h in common], bootstrap_n, seed
                )
                pol["ci"] = [lo, hi]
            else:
                pol["ci"] = None
            entry["policies"][name] = pol
        report["datasets"][key] = entry
    return report


def report_to_csv(report: dict) -> str:
    """Wide table mirroring the benchmark table layout: one row per policy,
    one (low, high) column pair per dataset."""
    keys = sorted(report["datasets"])
    labels = [report["datasets"][k]["label"] for k in keys]
    policies = sorted({p for k in keys for p in report["datasets"][k]["policies"]})
    lines = ["policy," + ",".join(f"{l}_ci_low,{l}_ci_high" for l in labels)]
    for pol in policies:
        cells = [pol]
        for k in keys:
            entry = report["datasets"][k]["policies"].get(pol)
            ci = entry["ci"] if entry else None
            if ci is None:
                cells += ["", ""]
            else:
                cells += [f"{ci[0]:.6f}", f"{ci[1]:.6f}"]
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
