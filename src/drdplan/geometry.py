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
    (E,) for scalars, (k, E) for (k, 1) arrays that give k discs at once."""
    x1, y1, x2, y2 = (segments[:, i] for i in range(4))
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


def segments_hit_rect(segments: np.ndarray, xlo, xhi, ylo, yhi) -> np.ndarray:
    """Boolean mask: segment meets the closed axis-aligned rectangle.

    Exact Liang-Barsky clip specialized to lattice steps: requires every
    segment component delta in {0, +-SCALE}, which makes the clip parameters
    exact multiples of 1/SCALE.  (E,) for scalar bounds, (k, E) for (k, 1)
    arrays of k rectangles; an empty one (xlo > xhi or ylo > yhi) hits none.
    """
    x1, y1, x2, y2 = (segments[:, i].astype(np.int64) for i in range(4))
    dx, dy = x2 - x1, y2 - y1
    steps = np.abs(np.stack([dx, dy]))
    if not np.all((steps == 0) | (steps == SCALE)):
        raise ValueError("segments_hit_rect requires unit lattice steps")

    # Clip parameter t in [0, 1] scaled by SCALE -> integer interval [0, SCALE].
    lo = np.zeros_like(x1)
    hi = np.full_like(x1, SCALE)
    feasible = np.ones(segments.shape[0], dtype=bool) & (xlo <= xhi) & (ylo <= yhi)

    for p, q in (
        (-dx, x1 - xlo),
        (dx, xhi - x1),
        (-dy, y1 - ylo),
        (dy, yhi - y1),
    ):
        par = p == 0
        feasible &= ~(par & (q < 0))
        # |p| == SCALE where p != 0, so t*SCALE bound is q * SCALE / p = +-q.
        entering = p < 0
        leaving = p > 0
        bound = np.where(p != 0, q * np.sign(p), 0)
        lo = np.where(entering, np.maximum(lo, bound), lo)
        hi = np.where(leaving, np.minimum(hi, bound), hi)

    return feasible & (lo <= hi)
