"""Independent verdict oracle for run files.

It reads the dataset file itself (JSON header, then base64 bit-packed
world and membership matrices, least-significant bit first) and checks
each episode against the world with numpy and a plain breadth-first
search.  It uses nothing from the program but the file formats, so a
defect in a policy, its search or its loader cannot also hide here.
"""

from __future__ import annotations

import base64
import json
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass
class World:
    theta: np.ndarray  # (N, E) uint8, 1 = edge valid
    endpoints: np.ndarray  # (E, 2)
    eval_cost: np.ndarray  # (E,)
    start: int
    goal: int
    num_vertices: int
    paths: list[tuple[int, ...]]
    test: list[int]


def read_dataset(path: str) -> World:
    with open(path, "rb") as f:
        lines = f.read().decode("ascii").splitlines()
    header = json.loads(lines[0])
    n, e = header["n_worlds"], header["n_edges"]
    packed = np.frombuffer(base64.b64decode(lines[1]), dtype=np.uint8)
    theta = np.unpackbits(packed.reshape(n, -1), axis=1, bitorder="little")[:, :e]
    g = header["graph"]
    return World(
        theta=theta,
        endpoints=np.asarray(g["endpoints"], dtype=np.int64).reshape(-1, 2),
        eval_cost=np.asarray(g["eval_cost"], dtype=np.float64),
        start=int(g["start"]),
        goal=int(g["goal"]),
        num_vertices=len(g["positions"]),
        paths=[tuple(p) for p in header["paths"]],
        test=[int(h) for h in header["split"]["test"]],
    )


def feasible(world: World, h: int) -> bool:
    """Some library path is valid edge by edge in world h."""
    row = world.theta[h]
    return any(all(row[e] for e in p) for p in world.paths)


def connected(world: World, h: int) -> bool:
    """Breadth-first search from start over the edges valid in world h."""
    adj: list[list[int]] = [[] for _ in range(world.num_vertices)]
    for e in np.nonzero(world.theta[h])[0]:
        u, v = world.endpoints[e]
        adj[u].append(v)
        adj[v].append(u)
    seen = {world.start}
    queue = deque([world.start])
    while queue:
        u = queue.popleft()
        if u == world.goal:
            return True
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False


def _chains(world: World, edges) -> bool:
    """The edge sequence walks start -> goal without repeating an edge."""
    if not edges or len(set(edges)) != len(edges):
        return False
    if not all(0 <= e < len(world.endpoints) for e in edges):
        return False
    cur = world.start
    for e in edges:
        u, v = (int(x) for x in world.endpoints[e])
        if cur not in (u, v):
            return False
        cur = v if cur == u else u
    return cur == world.goal


def records_error(world: World, trace: dict) -> str | None:
    """Records hold each edge once, report the world's true outcome and
    cost the graph's evaluation cost."""
    h = trace["world_index"]
    edges = [e for e, _, _ in trace["records"]]
    if not all(0 <= e < len(world.eval_cost) for e in edges):
        return "an edge id is out of range"
    if len(set(edges)) != len(edges):
        return "an edge was evaluated twice"
    for e, o, c in trace["records"]:
        if o != world.theta[h, e]:
            return f"edge {e} recorded as {o}, world says {world.theta[h, e]}"
        if c != world.eval_cost[e]:
            return f"edge {e} recorded cost {c}, graph says {world.eval_cost[e]}"
    return None


def verdict_error(world: World, trace: dict) -> str | None:
    """The terminal verdict holds in the world."""
    h = trace["world_index"]
    row = world.theta[h]
    observed = {e: o for e, o, _ in trace["records"]}
    kind = trace["terminal"]["kind"]
    if kind == "solved":
        path = tuple(trace["path_edges"])
        index = trace["terminal"]["path_index"]
        if index is not None and not (
            0 <= index < len(world.paths) and path == world.paths[index]
        ):
            return f"solved path is not library path {index}"
        if not _chains(world, path):
            return "solved path does not chain start to goal"
        if not all(row[e] and observed.get(e) == 1 for e in path):
            return "solved path has an edge that is invalid or unevaluated"
        return None
    if kind == "dead":
        for r, p in enumerate(world.paths):
            if not any(observed.get(e) == 0 and not row[e] for e in p):
                return f"library path {r} was not refuted"
        return None
    if kind == "infeasible":
        return "start and goal are connected" if connected(world, h) else None
    return f"unknown verdict {kind!r}"


def claim_error(world: World, trace: dict) -> str | None:
    """The verdict of a policy that claims without evaluating is true in
    the world: a claimed path is valid, or no library path is."""
    h = trace["world_index"]
    kind = trace["terminal"]["kind"]
    if kind == "solved":
        path = trace["path_edges"]
        valid = _chains(world, path) and all(world.theta[h, e] for e in path)
        return None if valid else "claimed path is not valid"
    if kind == "dead":
        return "a library path is valid" if feasible(world, h) else None
    return f"unknown claim {kind!r}"


def check_run(world: World, doc: dict, verified: bool = True) -> dict[int, str | None]:
    """The error, or None, of every episode of one run file, by world.
    Each test world needs exactly one episode; an episode of any other
    world is an error too.  Verdicts of a verifying policy must be
    witnessed by its records, those of an unverified one only true."""
    check = verdict_error if verified else claim_error
    by_world: dict[int, list[dict]] = {}
    for t in doc["traces"]:
        by_world.setdefault(t["world_index"], []).append(t)
    out: dict[int, str | None] = {
        h: "not a test world" for h in set(by_world) - set(world.test)
    }
    for h in world.test:
        traces = by_world.get(h, [])
        if len(traces) != 1:
            out[h] = f"{len(traces)} episodes"
        else:
            out[h] = records_error(world, traces[0]) or check(world, traces[0])
    return out
