"""Exact integer segment-obstacle predicates."""

from fractions import Fraction

import numpy as np
import pytest

from drdplan.geometry import SCALE, cell_boxes, edge_segments, segments_hit_disc, segments_hit_wall


def seg(x1, y1, x2, y2):
    """One scaled segment row from grid-unit coordinates."""
    return np.array([[x1 * SCALE, y1 * SCALE, x2 * SCALE, y2 * SCALE]], dtype=np.int64)


def test_edge_segments_scaling():
    positions = np.array([[0.0, 0.0], [1.0, 2.0]])
    endpoints = np.array([[0, 1]])
    got = edge_segments(positions, endpoints)
    assert got.tolist() == [[0, 0, SCALE, 2 * SCALE]]


def test_disc_hits_interior_crossing():
    s = seg(0, 0, 1, 0)
    assert segments_hit_disc(s, SCALE // 2, 0, 5)[0]


def test_disc_touching_counts_as_hit():
    # Disc center 10 scaled units above the segment with radius exactly 10.
    s = seg(0, 0, 1, 0)
    assert segments_hit_disc(s, SCALE // 2, 10, 10)[0]
    assert not segments_hit_disc(s, SCALE // 2, 10, 9)[0]


def test_disc_near_endpoints():
    s = seg(0, 0, 1, 0)
    assert segments_hit_disc(s, -3, 0, 3)[0]  # touches endpoint a
    assert segments_hit_disc(s, SCALE + 3, 0, 3)[0]  # touches endpoint b
    assert not segments_hit_disc(s, -4, 0, 3)[0]


def test_disc_far_away():
    s = seg(0, 0, 1, 1)
    assert not segments_hit_disc(s, 5 * SCALE, 5 * SCALE, SCALE)[0]


def _clip_hits(segment, row, first, last) -> bool:
    """Exact Liang-Barsky clip of a grid-unit segment (x1, y1, x2, y2)
    against the closed rectangle [first - 1/2, last + 1/2] x [row - 1/2,
    row + 1/2], in rationals."""
    x1, y1, x2, y2 = (Fraction(v) for v in segment)
    half = Fraction(1, 2)
    lo, hi = Fraction(0), Fraction(1)
    for a, d, alo, ahi in ((x1, x2 - x1, first - half, last + half),
                           (y1, y2 - y1, row - half, row + half)):
        if d == 0:
            if not alo <= a <= ahi:
                return False
            continue
        enter, leave = ((alo, ahi) if d > 0 else (ahi, alo))
        lo, hi = max(lo, (enter - a) / d), min(hi, (leave - a) / d)
    return lo <= hi


def test_wall_equals_exact_clip():
    # Every lattice step of a 5x6 grid against every wall with row in
    # -1..5 and first, last in -1..6, empty ones (first > last) included.
    segments = _lattice_segments(5, 6)
    boxes = cell_boxes(segments)
    walls = [(r, f, l) for r in range(-1, 6) for f in range(-1, 7) for l in range(-1, 7)]
    for row, first, last in walls:
        got = segments_hit_wall(boxes, row, first, last)
        want = [_clip_hits(s // SCALE, row, first, last) for s in segments]
        assert got.tolist() == want, (row, first, last)


def test_wall_corner_touch_counts():
    # The diagonal (1,1)-(2,2) meets the wall at row 2 over columns 0..1
    # only at the wall's corner (1.5, 1.5).
    boxes = cell_boxes(seg(1, 1, 2, 2))
    assert segments_hit_wall(boxes, 2, 0, 1)[0]
    assert not segments_hit_wall(boxes, 2, 0, 0)[0]
    assert not segments_hit_wall(boxes, 3, 0, 1)[0]


def test_cell_boxes_require_unit_lattice_steps():
    with pytest.raises(ValueError):
        cell_boxes(seg(0, 0, 2, 0))


def _lattice_segments(rows=5, cols=5):
    """Every edge of an 8-connected rows x cols lattice: all the segment
    shapes the scenarios test."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    positions = np.stack([c, r], axis=1).astype(np.float64)
    endpoints = [
        (i, j) for i in range(rows * cols) for j in range(i + 1, rows * cols)
        if max(abs(positions[i] - positions[j])) == 1
    ]
    return edge_segments(positions, np.array(endpoints))


def test_disc_columns_equal_stacked_scalar_calls():
    # Centres and radii on a coarse grid of half-cells, so that many discs
    # exactly touch a segment or an endpoint.
    segments = _lattice_segments()
    rng = np.random.default_rng(0)
    half = SCALE // 2
    discs = np.concatenate([
        rng.integers(-2, 11, size=(300, 2)) * half,
        rng.integers(0, 4, size=(300, 1)) * half,
    ], axis=1)
    discs = np.concatenate([discs, rng.integers(0, 320, size=(300, 3))])
    want = np.stack([segments_hit_disc(segments, int(x), int(y), int(r)) for x, y, r in discs])
    got = segments_hit_disc(segments, *discs.T[:, :, None])
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert want.any() and not want.all()


def test_wall_columns_equal_stacked_scalar_calls():
    # Walls in and around a 5x5 grid, many with first > last; those with
    # first > last + 1 are empty and hit nothing.
    boxes = cell_boxes(_lattice_segments())
    rng = np.random.default_rng(1)
    walls = rng.integers(-2, 7, size=(400, 3))
    want = np.stack([segments_hit_wall(boxes, *map(int, w)) for w in walls])
    got = segments_hit_wall(boxes, *walls.T[:, :, None])
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    empty = walls[:, 1] > walls[:, 2] + 1
    assert empty.sum() > 100 and not got[empty].any()
    assert got[~empty].any() and not got[~empty].all()


def test_no_obstacles_hit_nothing():
    segments = _lattice_segments()
    none = np.zeros((0, 1), dtype=np.int64)
    assert segments_hit_disc(segments, none, none, none).shape == (0, len(segments))
    assert segments_hit_wall(cell_boxes(segments), none, none, none).shape == (0, len(segments))
