"""Training-size ablation: cost and failure-rate curves vs database size.

Run:  python3 demos/training_size_sweep.py        (about half a minute)

Recompiles the decision tree on nested prefixes of the training split and
reports, on a fixed test split: mean/variance of the combined
tree-then-completion policy's evaluation cost, and the failure rate of the
tree-only ablation (which claims a path at handoff leaves without
verifying).  The tree-only failure rate stays above zero; the combined
policy never fails on feasible worlds.

Equivalent CLI:
  drdplan sweep --dataset d.bin --sizes 50,150,400 --out curve.csv
"""

from drdplan.bench import sweep_training_size
from drdplan.scenarios import ScenarioSpec, generate_dataset


def main() -> None:
    spec = ScenarioSpec(
        kind="twowall", rows=11, cols=11, seed=7,
        gap_width=2, wall_row_lo=4, wall_row_hi=6, gap_col_lo=1, gap_col_hi=7,
    )
    print("generating dataset (N=500, m=100)...")
    ds = generate_dataset(spec, 500, 2000, 100, test_fraction=0.1)
    sizes = [50, 150, 400]
    print(f"sweeping training sizes {sizes}...\n")
    results = sweep_training_size(ds, sizes, eta=0.05, alpha=0.9)
    print(f"{'n_train':>8s} {'mean':>8s} {'var':>8s} "
          f"{'fail(tree-only)':>16s} {'fail(combined)':>15s}")
    for row in results:
        print(f"{row['n_train']:8d} {row['mean_cost']:8.2f} {row['var_cost']:8.2f} "
              f"{row['failure_rate_direct_only']:16.3f} "
              f"{row['failure_rate_direct_bisect']:15.3f}")


if __name__ == "__main__":
    main()
