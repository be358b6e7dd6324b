"""Command-line pipeline: gen -> compile-tree -> run -> report, plus sweep.

Exit codes: 0 success, 2 usage error, 3 data error (unreadable or malformed
input files), 4 contract error (inputs that do not belong together, illegal
parameter combinations), 5 resource error (node budget exceeded, or out of
memory).  Output
files are written to a temp file and renamed, never left partial.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from . import bench, scenarios, trees
from .bench import ContractError
from .io import FormatError, atomic_write_bytes, dataset_hash, load_dataset, save_dataset
from .trees import TreeSizeExceeded

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONTRACT = 4
EXIT_RESOURCE = 5

_EPILOG = (
    "exit codes: 0 ok, 2 usage, 3 data (bad input file), "
    "4 contract (mismatched inputs), 5 resource (node budget exceeded, out of memory)"
)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 11x11, got {text!r}") from exc


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _parse_sizes(text: str) -> list[int]:
    return [_positive_int(x.strip()) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drdplan", epilog=_EPILOG)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a scenario dataset", epilog=_EPILOG)
    g.add_argument("--scenario", required=True, choices=scenarios.KINDS)
    g.add_argument("--grid", required=True, type=_parse_grid, help="rows x cols, e.g. 11x11")
    g.add_argument("--worlds", required=True, type=int, help="number of sampled worlds N")
    g.add_argument("--paths", required=True, type=int, help="library size m")
    g.add_argument("--k", required=True, type=int, help="k-shortest paths before subsampling")
    g.add_argument("--test-fraction", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=0, help="root seed for all substreams")
    g.add_argument("--discs", type=int, default=6, help="forest: number of discs")
    g.add_argument("--disc-radius", type=float, default=0.7, help="forest: disc radius")
    g.add_argument("--gap-width", type=int, default=None,
                   help="wall kinds: gap width in cells (default 3; twowall 2; baffle cols//2)")
    g.add_argument("--out", required=True)

    c = sub.add_parser("compile-tree", help="compile the offline decision tree", epilog=_EPILOG)
    c.add_argument("--dataset", required=True)
    c.add_argument("--eta", type=float, default=0.05,
                   help="handoff threshold on the surviving training fraction (default 0.05)")
    c.add_argument("--alpha", type=float, default=0.9,
                   help="completion bias weight under which a node hands off to BISECT; "
                   "recorded in the tree, whose runs must use the same --alpha (default 0.9)")
    c.add_argument("--max-nodes", type=_positive_int, default=200_000)
    c.add_argument("--out", required=True)

    r = sub.add_parser("run", help="run a policy over a dataset split", epilog=_EPILOG)
    r.add_argument("--dataset", required=True)
    r.add_argument("--policy", required=True, choices=bench.POLICY_IDS)
    r.add_argument("--tree", default=None)
    r.add_argument("--split", default="test", choices=("test", "train", "all"))
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--jobs", type=_positive_int, default=1)
    r.add_argument("--alpha", type=float, default=0.9,
                   help="bias mixture weight on the empirical fraction for bisect and "
                   "direct+bisect; every policy exits 4 unless it lies in (0, 1), and a "
                   "tree policy unless it equals the tree's (default 0.9)")
    r.add_argument("--out", required=True, help="output directory for run files")

    s = sub.add_parser("sweep", help="training-size ablation", epilog=_EPILOG)
    s.add_argument("--dataset", required=True)
    s.add_argument("--sizes", required=True, type=_parse_sizes, help="e.g. 100,300,1000")
    s.add_argument("--eta", type=float, default=0.05)
    s.add_argument("--alpha", type=float, default=0.9,
                   help="bias mixture weight, for compiling and running (default 0.9)")
    s.add_argument("--max-nodes", type=_positive_int, default=200_000)
    s.add_argument("--jobs", type=_positive_int, default=1)
    s.add_argument("--out", required=True, help="curve CSV output path")
    s.add_argument("--json", default=None, help="optional full-result JSON path")

    p = sub.add_parser("report", help="normalized-cost table from run files", epilog=_EPILOG)
    p.add_argument("--runs", required=True, help="directory of run JSON files")
    p.add_argument("--reference", default="direct+bisect")
    p.add_argument("--bootstrap", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV table output path")
    p.add_argument("--json", default=None, help="optional full-report JSON path")
    return parser


def _cmd_gen(args) -> int:
    spec = scenarios.ScenarioSpec(
        kind=args.scenario,
        rows=args.grid[0],
        cols=args.grid[1],
        seed=args.seed,
        n_discs=args.discs,
        disc_radius=args.disc_radius,
        gap_width=args.gap_width,
    )
    ds = scenarios.generate_dataset(spec, args.worlds, args.k, args.paths, args.test_fraction)
    digest = save_dataset(ds, args.out)
    print(f"wrote {args.out}: N={ds.num_worlds} |E|={ds.graph.num_edges} "
          f"m={ds.num_paths} coverage={ds.provenance['train_coverage']:.3f} "
          f"hash={digest[:12]}")
    return EXIT_OK


def _cmd_compile_tree(args) -> int:
    ds = load_dataset(args.dataset)
    if len(ds.train) == 0:
        raise ContractError("dataset has no training split")
    tree = trees.compile_from_dataset(ds, args.eta, alpha=args.alpha, max_nodes=args.max_nodes)
    trees.save_tree(tree, args.out)
    stats = tree.params["stats"]
    print(f"wrote {args.out}: nodes={len(tree.nodes)} depth={stats['depth']} "
          f"solved={stats['solved']} handoff={stats['handoff']} dead={stats['dead']}")
    return EXIT_OK


def _check_out_dir(path: str) -> None:
    """NotADirectoryError now, before any world runs, when path or its
    nearest existing ancestor is not a directory."""
    p = os.path.abspath(path)
    while not os.path.exists(p):
        p = os.path.dirname(p)
    if not os.path.isdir(p):
        raise NotADirectoryError(errno.ENOTDIR, "not a directory", p)


def _cmd_run(args) -> int:
    _check_out_dir(args.out)
    ds = load_dataset(args.dataset)
    tree = trees.load_tree(args.tree) if args.tree else None
    digest = dataset_hash(ds)
    traces = bench.run_policy(
        args.policy, ds, args.split, tree, seed=args.seed, jobs=args.jobs, alpha=args.alpha,
        digest=digest,
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"{args.policy}.json")
    params = {"alpha": args.alpha, "split": args.split}
    bench.save_runs(out_path, args.policy, ds, traces, args.seed, params=params, digest=digest)
    costs = [t.total_cost for t in traces]
    print(f"wrote {out_path}: {len(traces)} worlds, mean cost {np.mean(costs):.2f}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    ds = load_dataset(args.dataset)
    results = bench.sweep_training_size(
        ds, args.sizes, args.eta, args.alpha, args.max_nodes, jobs=args.jobs
    )
    atomic_write_bytes(args.out, bench.sweep_to_csv(results).encode())
    if args.json:
        doc = {"eta": args.eta, "alpha": args.alpha, "dataset_hash": dataset_hash(ds),
               "results": results}
        atomic_write_bytes(args.json, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode())
    for row in results:
        print(f"n_train={row['n_train']}: mean={row['mean_cost']:.2f} "
              f"var={row['var_cost']:.2f} "
              f"fail(direct-only)={row['failure_rate_direct_only']:.3f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    paths = sorted(
        os.path.join(args.runs, f) for f in os.listdir(args.runs) if f.endswith(".json")
    )
    if not paths:
        raise FormatError(f"no run files in {args.runs}")
    docs = [bench.load_runs(p) for p in paths]
    report = bench.build_report(docs, args.reference, args.bootstrap, args.seed)
    atomic_write_bytes(args.out, bench.report_to_csv(report).encode())
    if args.json:
        atomic_write_bytes(args.json, (json.dumps(report, sort_keys=True, indent=2) + "\n").encode())
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "compile-tree": _cmd_compile_tree,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TreeSizeExceeded, MemoryError) as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ContractError, ValueError) as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
