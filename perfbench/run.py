"""drdplan benchmark: the user pipeline gen -> compile-tree -> six runs ->
report on a fixed grid workload, end to end or layer by layer.

    python3 perfbench/run.py --workload paper-twowall --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

It builds nothing: it imports drdplan from the checkout's own src/ and
writes only under .perfbench_work/ in the checkout.  --seed seeds the run
and report stages; the dataset seed belongs to the workload (see
workloads.py).  --trace 0 times the stages with tracing off and prints the
end-to-end metrics; --trace 1 runs the pipeline untraced and then traced,
prints the per-layer metrics, and keeps the spans in
.perfbench_work/<workload>-seed<seed>.spans.json.  The last line of output
is one JSON object: correct, attempted, failed and metrics.  The exit code
is 0 only when every episode passed the independent oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASE = os.path.join(ROOT, ".perfbench_work")

from workloads import WORKLOADS, select  # noqa: E402  (HERE is on sys.path)


def machine() -> dict:
    import networkx
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_all(args) -> int:
    """Each workload in a fresh process, so that memory peaks and warm
    caches do not carry over; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        if args.held_out:
            argv.append("--held-out")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"perfbench: workload {name} exited with {proc.returncode} and no result",
                  file=sys.stderr)
            return 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="seed of the run and report stages")
    parser.add_argument("--seconds", type=int, default=30,
                        help="measure at least this long (set-up is sampled until it is over)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: seconds-long grids for the harness's own tests")
    parser.add_argument("--held-out", action="store_true",
                        help="use the workload's held-out dataset seed")
    args = parser.parse_args(argv)

    # One BLAS thread: the measurement is of one core's work, and a second
    # BLAS thread on a shared 2-core machine made compile_s spread several
    # times wider.  Set before numpy is imported; child processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "drdplan", "__init__.py")):
        print(f"perfbench: no drdplan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    import harness

    w = select(args.workload, args.size == "smoke", args.held_out)
    os.makedirs(BASE, exist_ok=True)
    try:
        result = harness.run_workload(w, args.seed, args.seconds, bool(args.trace), SRC, BASE)
    except harness.BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {w.name} dataset_seed={w.seed} run_seed={args.seed} trace={args.trace}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    for name, digest in result["digests"].items():
        print(f"digest {name} {digest}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"episode_fail_rate {result['failed'] / result['attempted']:.6f} "
          f"({result['failed']} of {result['attempted']} episodes)")
    for name, value in result["stages"].items():
        print(f"stage {name} {value} s")
    for name, value, unit in result["metrics"]:
        print(f"metric {name} {value} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in result["metrics"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
