"""Exact integer segment-obstacle predicates."""

import numpy as np
import pytest

from drdplan.geometry import SCALE, edge_segments, segments_hit_disc, segments_hit_rect


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


def test_rect_crossing_vertical_edge():
    # Wall slab of one cell thickness centered on y = 1.
    half = SCALE // 2
    s = seg(0, 0, 0, 1)
    assert segments_hit_rect(s, -half, half, SCALE - half, SCALE + half)[0]


def test_rect_miss():
    half = SCALE // 2
    s = seg(0, 0, 1, 0)
    assert not segments_hit_rect(s, -half, 5 * SCALE, SCALE - half, SCALE + half)[0]


def test_rect_touching_boundary_counts():
    # Horizontal segment along y = 0 touching a rect whose top edge is y = 0.
    s = seg(0, 0, 1, 0)
    assert segments_hit_rect(s, 0, SCALE, -SCALE, 0)[0]
    assert not segments_hit_rect(s, 0, SCALE, -SCALE, -1)[0]


def test_rect_degenerate_interval_is_empty():
    s = seg(0, 0, 1, 0)
    assert not segments_hit_rect(s, 10, 5, 0, 0)[0]


def test_rect_requires_lattice_steps():
    bad = np.array([[0, 0, 2 * SCALE, 0]], dtype=np.int64)
    with pytest.raises(ValueError):
        segments_hit_rect(bad, 0, SCALE, 0, SCALE)


def test_rect_diagonal_clip():
    half = SCALE // 2
    s = seg(0, 0, 1, 1)  # diagonal through the slab around y = 0.5
    assert segments_hit_rect(s, -half, 2 * SCALE, half, half + 1)[0]
    # Slab strictly above the segment's span.
    assert not segments_hit_rect(s, -half, 2 * SCALE, 2 * SCALE, 3 * SCALE)[0]


def _lattice_segments():
    """Every edge of an 8-connected 5x5 lattice: all the segment shapes the
    scenarios test."""
    r, c = np.divmod(np.arange(25), 5)
    positions = np.stack([c, r], axis=1).astype(np.float64)
    endpoints = [
        (i, j) for i in range(25) for j in range(i + 1, 25)
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


def test_rect_columns_equal_stacked_scalar_calls():
    # Bounds on a grid of half-cells (touching everywhere), then arbitrary
    # integers; many have xlo > xhi or ylo > yhi (empty).
    segments = _lattice_segments()
    rng = np.random.default_rng(1)
    half = SCALE // 2
    rects = np.concatenate([
        rng.integers(-2, 11, size=(400, 4)) * half,
        rng.integers(-64, 320, size=(400, 4)),
    ])
    want = np.stack([segments_hit_rect(segments, *map(int, b)) for b in rects])
    got = segments_hit_rect(segments, *rects.T[:, :, None])
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    empty = (rects[:, 0] > rects[:, 1]) | (rects[:, 2] > rects[:, 3])
    assert empty.sum() > 100 and not got[empty].any()
    assert got[~empty].any() and not got[~empty].all()


def test_no_obstacles_hit_nothing():
    segments = _lattice_segments()
    none = np.zeros((0, 1), dtype=np.int64)
    assert segments_hit_disc(segments, none, none, none).shape == (0, len(segments))
    assert segments_hit_rect(segments, none, none, none, none).shape == (0, len(segments))
