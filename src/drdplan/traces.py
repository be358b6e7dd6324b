"""Run traces and terminal verdicts shared by every policy.

An episode's state is one ``RunTrace`` and one edge-status vector: an
(E,) int8 array with 0 for an edge not yet evaluated, 1 for an edge
evaluated valid and -1 for one evaluated invalid.  ``bench.run_policy``
creates both for each world, with the world's oracle, and every policy
extends them: each phase of an episode (the tree, the check of a solved
leaf, the completion, a baseline's whole run) adds its evaluations through
``RunTrace.evaluate``.  BISECT's belief is a bias row over this same
status: the completion passes its bias and the episode's status to
bernoulli.bisect_policy, which keeps no belief of its own.

The verdicts are also the leaves of the compiled tree (drdplan.trees):
trees.direct_step returns Solved, AllRegionsDead or Handoff, and the tree
stores what it returned.

traces_to_json and traces_from_json are the codec of the traces in a run
file (drdplan.bench writes and reads the file's header).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .io import is_index, reading


@dataclass(frozen=True)
class Solved:
    """A candidate path was proven fully valid (or, for the tree-only
    ablation, claimed valid). ``path_index`` is None when the policy found a
    path outside the library (full-graph LazySP)."""

    path_index: int | None = None


@dataclass(frozen=True)
class AllRegionsDead:
    """Every candidate path holds an invalid edge.  ``off_database`` marks
    the case where no training world is consistent with the edge status."""

    off_database: bool = False


@dataclass(frozen=True)
class Infeasible:
    """The optimistic graph itself is disconnected (full-graph LazySP)."""


@dataclass(frozen=True)
class Handoff:
    """The explicit-database policy stopped below its confidence threshold,
    found no useful test, found BISECT's best score at least DIRECT's, or
    was pruned by measured cost, with ``active_count`` training worlds
    still consistent.  The completion builds its bias from those worlds at
    run time (see drdplan.bench)."""

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
    if kind == "solved" and (d["path_index"] is None or is_index(d["path_index"])):
        return Solved(d["path_index"])
    if kind == "dead" and type(off := d.get("off_database", False)) is bool:
        return AllRegionsDead(off)
    if kind == "infeasible":
        return Infeasible()
    raise ValueError(f"bad terminal {d!r}")


def traces_to_json(traces: list[RunTrace]) -> list[dict]:
    """The traces as run-file JSON values.  Each holds its trace's own
    records and path_edges, which JSON writes as arrays."""
    return [
        {
            "policy": t.policy,
            "world_index": t.world_index,
            "records": t.records,
            "terminal": _terminal_to_json(t.terminal),
            "path_edges": t.path_edges,
            "verified": t.verified,
        }
        for t in traces
    ]


def _trace_from_json(d: dict) -> RunTrace:
    policy, h, verified = d["policy"], d["world_index"], d.get("verified", True)
    records = [(e, o, c) for e, o, c in d["records"]
               if is_index(e) and type(o) is int and o in (0, 1) and type(c) is float and c > 0]
    path_edges = tuple(d["path_edges"])
    if not (isinstance(policy, str) and is_index(h) and type(verified) is bool):
        raise ValueError("policy, world_index or verified has the wrong type or range")
    if len(records) != len(d["records"]):
        raise ValueError("records are not [edge >= 0, outcome 0 or 1, cost > 0]")
    if not all(is_index(e) for e in path_edges):
        raise ValueError("path_edges are not edge ids >= 0")
    return RunTrace(policy=policy, world_index=h, records=records,
                    terminal=_terminal_from_json(d["terminal"]),
                    path_edges=path_edges, verified=verified)


def traces_from_json(docs: list[dict]) -> list[RunTrace]:
    """The traces of a run file, checked strictly: FormatError names the
    first trace with a missing key or a value of the wrong type or out of
    range.  Every float is finite: io.read_json refuses any other."""
    out = []
    for i, d in enumerate(docs):
        with reading(f"trace {i}"):
            out.append(_trace_from_json(d))
    return out
