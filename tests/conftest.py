"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from drdplan import ec2


def make_worked_problem() -> ec2.DrdProblem:
    """3 hypotheses, 2 overlapping regions, one splitting test.

    Regions R1 = {h1, h2}, R2 = {h2, h3}; the single test separates h1
    from {h2, h3}.  Root weights are 2/9 per region and the test scores
    exactly 1 (both outcomes resolve the instance).
    """
    membership = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    outcomes = np.array([[1], [0], [0]], dtype=np.uint8)
    return ec2.DrdProblem(
        membership=membership,
        outcomes=outcomes,
        eval_cost=np.ones(1),
        prior=np.full(3, 1.0 / 3.0),
    )


def root_status(problem: ec2.DrdProblem) -> np.ndarray:
    """The edge status of the root: no test observed."""
    return np.zeros(problem.num_tests, np.int8)


def with_active(problem: ec2.DrdProblem, active) -> tuple[ec2.DrdProblem, np.ndarray]:
    """The problem with one more test, valid in exactly the worlds of the
    mask active, and the edge status that observes it valid: a node whose
    version space (ec2.consistent) is any given set of worlds."""
    outcomes = np.column_stack([problem.outcomes, np.asarray(active, dtype=np.uint8)])
    status = np.zeros(outcomes.shape[1], np.int8)
    status[-1] = 1
    cost = np.append(problem.eval_cost, 1.0)
    return ec2.DrdProblem(problem.membership, outcomes, cost, problem.prior), status


@pytest.fixture
def worked_problem() -> ec2.DrdProblem:
    return make_worked_problem()


def enumerate_worlds(n_edges: int) -> np.ndarray:
    """All 2^E outcome vectors as a (2^E, E) uint8 matrix."""
    combos = list(itertools.product((0, 1), repeat=n_edges))
    return np.array(combos, dtype=np.uint8)


def product_prior(worlds: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Independent-Bernoulli prior mass of every explicit world."""
    b = np.asarray(beta, dtype=np.float64)
    return np.prod(np.where(worlds == 1, b, 1.0 - b), axis=1)


def regions_membership(worlds: np.ndarray, regions: list[tuple[int, ...]]) -> np.ndarray:
    """(2^E, m) membership of each explicit world in each region."""
    cols = [worlds[:, list(r)].all(axis=1) for r in regions]
    return np.stack(cols, axis=1).astype(np.uint8)


def enumeration_problem(
    beta: np.ndarray, regions: list[tuple[int, ...]], eval_cost: np.ndarray | None = None
) -> ec2.DrdProblem:
    """Explicit 2^E-world problem equivalent to a product-Bernoulli belief."""
    beta = np.asarray(beta, dtype=np.float64)
    worlds = enumerate_worlds(len(beta))
    if eval_cost is None:
        eval_cost = np.ones(len(beta))
    return ec2.DrdProblem(
        membership=regions_membership(worlds, regions),
        outcomes=worlds,
        eval_cost=eval_cost,
        prior=product_prior(worlds, beta),
    )


def pairwise_weight_oracle(prior: np.ndarray, active: np.ndarray, in_region: np.ndarray) -> float:
    """Explicit double-sum over hypothesis pairs in different one-vs-all
    classes: all (in, out) pairs plus all distinct (out, out) pairs."""
    idx = np.nonzero(active)[0]
    total = 0.0
    for ai, i in enumerate(idx):
        for j in idx[ai + 1:]:
            if in_region[i] and in_region[j]:
                continue  # same class: the region itself
            total += float(prior[i]) * float(prior[j])
    return total


def random_regions(rng: np.random.Generator, n_edges: int, m: int) -> list[tuple[int, ...]]:
    """Distinct nonempty edge subsets usable as regions: m of them, clamped
    to the 2^E - 1 that exist (rejection sampling cannot terminate past that)."""
    m = min(m, 2**n_edges - 1)
    out: list[tuple[int, ...]] = []
    seen = set()
    while len(out) < m:
        size = int(rng.integers(1, n_edges + 1))
        edges = tuple(sorted(rng.choice(n_edges, size=size, replace=False).tolist()))
        if edges not in seen:
            seen.add(edges)
            out.append(edges)
    return out
