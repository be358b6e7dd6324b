"""Step through both greedy engines on tiny, fully-inspectable instances.

Run:  python3 demos/policy_walkthrough.py

Part 1 uses the classic 3-hypothesis / 2-region instance where a single test
resolves everything.  Part 2 runs the closed-form Bernoulli engine next to
the explicit enumeration of all 2^|E| worlds to show they pick the same
edges with the same scores.  Both engines read one edge status: the
Bernoulli belief is the bias over it, the enumeration engine's version
space the worlds consistent with it.
"""

import itertools

import numpy as np

from drdplan import ec2
from drdplan.bernoulli import bisect_policy, select_test_bernoulli
from drdplan.model import Library
from drdplan.traces import RunTrace


def part1_explicit_database() -> None:
    print("=== Part 1: explicit-database engine on the worked instance ===")
    # Worlds h1, h2, h3; paths R1 = {h1, h2}, R2 = {h2, h3}; one test whose
    # outcome is 1 only in h1.
    membership = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    outcomes = np.array([[1], [0], [0]], dtype=np.uint8)
    prob = ec2.DrdProblem(membership, outcomes, np.ones(1), np.full(3, 1 / 3))

    root = np.zeros(1, np.int8)  # the edge status: nothing observed yet
    print(f"root region weights: {ec2.region_weights(root, prob)}  (2/9 each)")
    edge, score = ec2.select_test(root, prob, [0])
    print(f"greedy pick: edge {edge}, score {score}  (both outcomes resolve)")

    for outcome in (0, 1):
        after = ec2.observe(root, edge, outcome)
        verdict = ec2.is_solved(after, prob)
        print(f"  outcome {outcome}: surviving worlds "
              f"{np.flatnonzero(ec2.consistent(prob.outcomes, after)).tolist()} -> {verdict}")


def part2_bernoulli_vs_enumeration() -> None:
    print("\n=== Part 2: closed-form engine vs explicit enumeration ===")
    beta = np.array([0.5, 0.6, 0.4, 0.7])
    regions = [(0, 1), (2, 3)]
    n_edges = len(beta)

    # Explicit 2^4 world database with the product-Bernoulli prior.
    worlds = np.array(list(itertools.product((0, 1), repeat=n_edges)), dtype=np.uint8)
    prior = np.prod(np.where(worlds == 1, beta, 1 - beta), axis=1)
    membership = np.stack(
        [worlds[:, list(r)].all(axis=1) for r in regions], axis=1
    ).astype(np.uint8)
    prob = ec2.DrdProblem(membership, worlds, np.ones(n_edges), prior)

    status = np.zeros(n_edges, np.int8)  # one edge status for both engines
    library = Library.build(regions, n_edges)

    world = np.array([1, 1, 0, 1])  # ground truth: path 0 is valid
    print(f"true world: {world.tolist()}  regions: {regions}")
    while True:
        cand = [e for e in range(n_edges) if status[e] == 0]
        sel_b = select_test_bernoulli(beta, status, library, np.ones(n_edges), cand)
        sel_e = ec2.select_test(status, prob, cand)
        if sel_b is None:
            break
        assert sel_e[0] == sel_b[0] and abs(sel_e[1] - sel_b[1]) < 1e-9
        edge = sel_b[0]
        outcome = int(world[edge])
        print(f"  both engines pick edge {edge} "
              f"(score {sel_b[1]:.4f}); outcome {outcome}")
        status = ec2.observe(status, edge, outcome)
        verdict = ec2.is_solved(status, prob)
        if verdict is not None:
            print(f"  -> {verdict}")
            break

    # Full policy run from a fresh, all-unknown status.
    trace = bisect_policy(
        beta, np.zeros(n_edges, np.int8), library, np.ones(n_edges),
        lambda e: int(world[e]), RunTrace("bisect"),
    )
    print(f"bisect_policy trace: {[r[0] for r in trace.records]} "
          f"-> {trace.terminal} (cost {trace.total_cost:.0f})")


if __name__ == "__main__":
    part1_explicit_database()
    part2_bernoulli_vs_enumeration()
