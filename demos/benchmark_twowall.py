"""Small-scale TwoWall benchmark: all policies vs the compiled-tree pipeline.

Run:  python3 demos/benchmark_twowall.py          (about half a minute)

This is a shrunken version of the acceptance benchmark (N=300 instead of
1000).  The full-size pipeline via the CLI:

  drdplan gen --scenario twowall --grid 11x11 --worlds 1000 --paths 100 \
      --k 2000 --seed 42 --out twowall.bin
  drdplan compile-tree --dataset twowall.bin --eta 0.05 --out t.json
  drdplan run --dataset twowall.bin --policy direct+bisect --tree t.json --alpha 0.9 --out runs
  drdplan run --dataset twowall.bin --policy lazysp-graph  --tree t.json --out runs
  drdplan report --runs runs --out table.csv
"""

import numpy as np

from drdplan import trees
from drdplan.bench import POLICY_IDS, normalized_cost, run_policy
from drdplan.scenarios import ScenarioSpec, generate_dataset


def main() -> None:
    spec = ScenarioSpec(kind="twowall", rows=11, cols=11, seed=42)
    print("generating TwoWall dataset (N=300, m=100)...")
    ds = generate_dataset(spec, 300, 2000, 100, test_fraction=0.1)
    print("compiling decision tree (eta=0.05)...")
    tree = trees.compile_from_dataset(ds, 0.05)
    stats = tree.params["stats"]
    print(f"tree: {len(tree.nodes)} nodes, depth {stats['depth']}, "
          f"{stats['solved']} solved / {stats['handoff']} handoff leaves\n")

    costs = {}
    for policy in POLICY_IDS:
        traces = run_policy(policy, ds, "test", tree, seed=0, alpha=0.9)
        costs[policy] = {t.world_index: t.total_cost for t in traces}

    ref = costs["direct+bisect"]
    paired = [h for h in ref if ds.membership[h].any() and ref[h] > 0]
    print(f"{len(paired)} feasible test worlds, normalized against direct+bisect:")
    print(f"{'policy':14s} {'mean cost':>10s} {'CI low':>8s} {'CI high':>8s}")
    for policy in POLICY_IDS:
        c = costs[policy]
        mean = float(np.mean([c[h] for h in paired]))
        lo, hi = normalized_cost(
            [c[h] for h in paired], [ref[h] for h in paired], 2000, seed=0
        )
        print(f"{policy:14s} {mean:10.2f} {lo:8.2f} {hi:8.2f}")


if __name__ == "__main__":
    main()
