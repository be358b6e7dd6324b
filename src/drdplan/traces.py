"""Run traces and terminal verdicts shared by every policy.

An episode's state is one ``RunTrace`` and one edge-status vector: an
(E,) int8 array with 0 for an edge not yet evaluated, 1 for an edge
evaluated valid and -1 for one evaluated invalid.  ``bench.run_policy``
creates both for each world, with the world's oracle, and every policy
extends them: each phase of an episode (the tree, the check of a solved
leaf, the completion, a baseline's whole run) adds its evaluations through
``RunTrace.evaluate``.

The verdicts are also the leaves of the compiled tree (drdplan.trees):
ec2.direct_step returns Solved, AllRegionsDead or Handoff, and the tree
stores what it returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Solved:
    """A candidate path was proven fully valid (or, for the tree-only
    ablation, claimed valid). ``path_index`` is None when the policy found a
    path outside the library (full-graph LazySP)."""

    path_index: int | None = None


@dataclass(frozen=True)
class AllRegionsDead:
    """Every candidate path holds an invalid edge.  ``off_database`` marks
    the degenerate case of an emptied explicit version space."""

    off_database: bool = False


@dataclass(frozen=True)
class Infeasible:
    """The optimistic graph itself is disconnected (full-graph LazySP)."""


@dataclass(frozen=True)
class Handoff:
    """The explicit-database policy stopped below its confidence threshold
    or found no useful test, with ``active_count`` training worlds still
    consistent.  The completion builds its bias from those worlds at run
    time (see drdplan.bench)."""

    active_count: int


@dataclass
class RunTrace:
    """Ordered record of edge evaluations performed during one episode.

    ``records`` holds (edge id, outcome, cost) in evaluation order.  Policies
    never evaluate an edge twice, so edge ids are distinct.
    """

    policy: str
    world_index: int = -1
    records: list[tuple[int, int, float]] = field(default_factory=list)
    terminal: object = None
    # Edge ids of the path backing a Solved verdict (library path or the
    # LazySP graph path); empty otherwise.
    path_edges: tuple[int, ...] = ()
    # False only for unverified claims (tree-only ablation).
    verified: bool = True

    @property
    def total_cost(self) -> float:
        return float(sum(c for _, _, c in self.records))

    def record(self, edge: int, outcome: int, cost: float) -> None:
        self.records.append((int(edge), int(outcome), float(cost)))

    def evaluate(self, edge: int, oracle, eval_cost, status: np.ndarray) -> int:
        """Query the oracle on one edge, record (edge, outcome, cost) and
        mark the edge in status; returns the outcome."""
        outcome = int(oracle(edge))
        self.record(edge, outcome, eval_cost[edge])
        status[edge] = 1 if outcome else -1
        return outcome
