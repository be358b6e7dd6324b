"""Exact segment-obstacle intersection tests on integer coordinates.

Discs and segments are in scaled integers: coordinates multiplied by
SCALE (64) and kept as int64, so disc centers quantized to 1/64 grid
units and lattice segment endpoints are exact.  Walls are in grid cells,
a row and a range of columns, and meet a lattice step iff its bounding
box (cell_boxes) does.  Every predicate below is a pure integer
comparison; there is no floating-point boundary ambiguity.  Obstacle
regions are closed sets: touching counts as intersecting.
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


def cell_boxes(segments: np.ndarray) -> np.ndarray:
    """(4, E) int64 rows [x_lo, x_hi, y_lo, y_hi]: each segment's bounding
    box in grid units, computed once per segment set for segments_hit_wall.

    Raises ValueError unless every segment is a unit lattice step: both
    endpoints on lattice points, at most one grid unit apart on each axis.
    """
    cells, off = np.divmod(np.asarray(segments, dtype=np.int64), SCALE)
    lo = np.minimum(cells[:, :2], cells[:, 2:])
    hi = np.maximum(cells[:, :2], cells[:, 2:])
    if off.any() or np.any(hi - lo > 1):
        raise ValueError("cell_boxes requires unit lattice steps")
    return np.stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]])


def segments_hit_wall(boxes: np.ndarray, row, first, last) -> np.ndarray:
    """Boolean mask: lattice step meets the wall covering the cells of
    grid row ``row`` from column ``first`` to ``last``, the closed
    rectangle [first - 1/2, last + 1/2] x [row - 1/2, row + 1/2].

    boxes is cell_boxes(segments).  A step meets the rectangle iff its
    bounding box does: a half-integer bound that does not exclude the box
    lies half a step from each of its integer sides, so both axes'
    overlaps hold the box's centre, the step's midpoint.  On integers
    the box test is four comparisons.  (E,) for scalar walls, (k, E) for
    (k, 1) arrays of k walls.  A wall with first > last + 1 is empty and
    hits none; first = last + 1 is the line x = last + 1/2.
    """
    x_lo, x_hi, y_lo, y_hi = boxes
    return (x_lo <= last) & (x_hi >= first) & (y_lo <= row) & (y_hi >= row)
