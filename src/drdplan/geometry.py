"""Exact segment-obstacle intersection tests on scaled integer coordinates.

All coordinates are multiplied by SCALE (64) and kept as int64, so disc
centers quantized to 1/64 grid units, half-integer rectangle bounds and
lattice segment endpoints are all exact.  Every predicate below is a pure
integer comparison; there is no floating-point boundary ambiguity.
Obstacle regions are closed sets: touching counts as intersecting.
"""

from __future__ import annotations

import numpy as np

SCALE = 64


def edge_segments(positions: np.ndarray, endpoints: np.ndarray) -> np.ndarray:
    """(E, 4) int64 array [x1, y1, x2, y2] of scaled edge segments."""
    p = np.rint(np.asarray(positions) * SCALE).astype(np.int64)
    u = p[endpoints[:, 0]]
    v = p[endpoints[:, 1]]
    return np.concatenate([u, v], axis=1)


def segments_hit_disc(segments: np.ndarray, cx, cy, r) -> np.ndarray:
    """Boolean mask: segment within distance r of (cx, cy), all scaled ints;
    (E,) for scalars, (k, E) for (k, 1) arrays of k discs, (k, C) with (k, C, 4) segments."""
    x1, y1, x2, y2 = (segments[..., i] for i in range(4))
    dx, dy = x2 - x1, y2 - y1
    fx, fy = cx - x1, cy - y1
    gx, gy = cx - x2, cy - y2
    dd = dx * dx + dy * dy
    dotfd = fx * dx + fy * dy
    r2 = r * r

    near_a = fx * fx + fy * fy <= r2
    near_b = gx * gx + gy * gy <= r2
    cross = fx * dy - fy * dx
    interior = (dotfd > 0) & (dotfd < dd) & (cross * cross <= r2 * dd)
    return near_a | near_b | interior


def cell_width(r):
    """Side of a disc_cells cell for scaled radius r: the smallest multiple of
    SCALE that is at least r, which keeps the table O(|E|) at any radius."""
    return SCALE * np.maximum(1, -(-r // SCALE))


def disc_cell(cx, cy, cols: int, r):
    """The disc_cells row of a disc of scaled radius r centred at (cx, cy)."""
    w = cell_width(r)
    return cy // w * ((cols - 1) * SCALE // w + 1) + cx // w


def disc_cells(segments: np.ndarray, rows: int, cols: int, r: int) -> np.ndarray:
    """(cells, C) candidate segments for a disc of scaled radius r centred
    in [0, (cols - 1) S] x [0, (rows - 1) S] (S = SCALE): row disc_cell(cx,
    cy, cols, r) lists, ascending, the segments whose bounding box grown by r
    meets the closed cell [i w, (i + 1) w] x [j w, (j + 1) w] holding the
    centre (w = cell_width(r)), and so every segment the disc can hit.
    Shorter rows repeat their own entries up to C, the longest, so each
    entry is a real segment that the exact predicate decides."""
    w = cell_width(r)
    lo = np.minimum(segments[:, :2], segments[:, 2:]) - r
    hi = np.maximum(segments[:, :2], segments[:, 2:]) + r
    cell_lo = [np.arange((n - 1) * SCALE // w + 1)[:, None] * w for n in (cols, rows)]
    x, y = ((cell_lo[a] <= hi[:, a]) & (cell_lo[a] + w >= lo[:, a]) for a in range(2))
    cells = [np.flatnonzero(yj & xi) for yj in y for xi in x]
    longest = max(map(len, cells))
    return np.array([np.resize(ids, longest) for ids in cells])


def rect_constants(segments: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The world-independent part of segments_hit_rect: four (2, E) arrays,
    one row per axis, computed once per segment set.

    Raises ValueError unless every segment component delta is in
    {0, +-SCALE}, which makes the clip parameters exact multiples of
    1/SCALE.
    """
    segments = np.asarray(segments, dtype=np.int64)
    start = segments[:, :2].T
    delta = segments[:, 2:].T - start
    if not np.all((delta == 0) | (np.abs(delta) == SCALE)):
        raise ValueError("segments_hit_rect requires unit lattice steps")
    neg = delta < 0
    mult = np.where(delta == 0, SCALE + 1, 1)
    enter = mult * np.where(neg, start, -start)
    return neg, mult, enter, enter + mult - 1


def segments_hit_rect(segments: np.ndarray, xlo, xhi, ylo, yhi, constants=None) -> np.ndarray:
    """Boolean mask: segment meets the closed axis-aligned rectangle.

    Exact Liang-Barsky clip specialized to lattice steps; ``constants`` is
    rect_constants(segments), computed here when not given.  With the clip
    parameter t scaled to [0, S] (S = SCALE), a segment from a1 with step
    delta on axis a stays in [alo, ahi] for t in [lo_a, hi_a]:

      delta > 0:  [alo - a1, ahi - a1]
      delta < 0:  [a1 - ahi, a1 - alo]
      delta = 0:  [(S+1)(alo - a1), (S+1)(ahi - a1) + S]

    The parallel row holds the clause pair alo <= a1 <= ahi: it contains
    [0, S] when the pair holds and misses it otherwise.  The segment hits
    iff max(lo_x, lo_y, 0) <= min(hi_x, hi_y, S).  Only the selected
    bounds depend on the rectangle.  (E,) for scalar bounds, (k, E) for
    (k, 1) arrays of k rectangles; an empty one (xlo > xhi or ylo > yhi)
    hits none, since lo_a > hi_a on its axis.
    """
    neg, mult, enter_off, leave_off = rect_constants(segments) if constants is None else constants
    bounds = []
    for a, (alo, ahi) in enumerate(((xlo, xhi), (ylo, yhi))):
        alo, ahi = np.asarray(alo, dtype=np.int64), np.asarray(ahi, dtype=np.int64)
        enter = np.where(neg[a], -ahi, alo)
        enter *= mult[a]
        enter += enter_off[a]
        leave = np.where(neg[a], -alo, ahi)
        leave *= mult[a]
        leave += leave_off[a]
        bounds.append((enter, leave))
    (lo, hi), (lo_y, hi_y) = bounds
    np.maximum(lo, lo_y, out=lo)
    np.maximum(lo, 0, out=lo)
    np.minimum(hi, hi_y, out=hi)
    np.minimum(hi, SCALE, out=hi)
    return lo <= hi
