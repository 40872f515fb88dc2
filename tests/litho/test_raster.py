"""Tests for analytic-coverage rasterization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Polygon, Rect
from repro.litho import rasterize
from repro.litho.raster import _interval_coverage, rasterize_rects


def dense_coverage(a, b, start, pixel, n):
    """``_interval_coverage``'s span scattered over all ``n`` bins."""
    first, span = _interval_coverage(a, b, start, pixel, n)
    cov = np.zeros(n)
    cov[first:first + span.size] = span
    return cov


def oracle_interval_coverage(a, b, start, pixel, n):
    """Dense 1-D coverage over all ``n`` bins, computed independently."""
    cov = np.zeros(n)
    if b <= a:
        return cov
    lo = (a - start) / pixel
    hi = (b - start) / pixel
    i0 = int(np.floor(lo))
    i1 = int(np.floor(hi))
    if i1 == hi and i1 > i0:
        i1 -= 1
    i0c = max(i0, 0)
    i1c = min(i1, n - 1)
    if i0c > i1c:
        return cov
    if i0 == i1:
        cov[i0c] = hi - lo
        return cov
    cov[i0c:i1c + 1] = 1.0
    if i0 == i0c:
        cov[i0] = (i0 + 1) - lo
    if i1 == i1c:
        cov[i1] = hi - i1
    return cov


def oracle_rasterize(rects, region, pixel):
    """Every rectangle's full-grid ``np.outer`` added in order, then clipped."""
    nx = max(1, int(np.ceil(region.width / pixel - 1e-9)))
    ny = max(1, int(np.ceil(region.height / pixel - 1e-9)))
    data = np.zeros((ny, nx))
    grid_region = Rect(region.x0, region.y0, region.x0 + nx * pixel, region.y0 + ny * pixel)
    for rect in rects:
        if rect.intersection(region) is None:
            continue
        clipped = rect.intersection(grid_region)
        if clipped is None or clipped.area == 0.0:
            continue
        cx = oracle_interval_coverage(clipped.x0, clipped.x1, region.x0, pixel, nx)
        cy = oracle_interval_coverage(clipped.y0, clipped.y1, region.y0, pixel, ny)
        data += np.outer(cy, cx)
    np.clip(data, 0.0, 1.0, out=data)
    return data


PIXEL = 8.0
#: coordinates on exact pixel boundaries, on arbitrary fractions of a pixel,
#: and far outside the region
coordinate = st.one_of(
    st.integers(-4, 20).map(lambda k: k * PIXEL),
    st.floats(-40.0, 170.0, allow_nan=False),
    st.sampled_from([-1000.0, 1000.0]),
)
extent = st.one_of(
    st.integers(1, 12).map(lambda k: k * PIXEL),
    st.floats(0.01, 7.99),  # sub-pixel
    st.floats(8.0, 120.0),
)
origin = st.one_of(
    st.integers(-2, 2).map(lambda k: k * PIXEL),
    st.floats(-20.0, 20.0, allow_nan=False),
)
region_extent = st.one_of(st.integers(1, 16).map(lambda k: k * PIXEL), st.floats(1.0, 130.0))
rectangle = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h), coordinate, coordinate, extent, extent,
)


class TestIntervalCoverage:
    def test_full_bins(self):
        cov = dense_coverage(0, 30, 0, 10, 5)
        assert cov.tolist() == [1, 1, 1, 0, 0]

    def test_partial_edges(self):
        cov = dense_coverage(3, 27, 0, 10, 3)
        assert cov == pytest.approx([0.7, 1.0, 0.7])

    def test_inside_single_bin(self):
        cov = dense_coverage(2, 7, 0, 10, 2)
        assert cov == pytest.approx([0.5, 0.0])

    def test_clipped_to_grid(self):
        cov = dense_coverage(-100, 15, 0, 10, 2)
        assert cov == pytest.approx([1.0, 0.5])

    def test_empty_interval(self):
        assert _interval_coverage(5, 5, 0, 10, 2)[1].size == 0

    def test_boundary_aligned(self):
        cov = dense_coverage(10, 20, 0, 10, 3)
        assert cov == pytest.approx([0.0, 1.0, 0.0])

    @given(st.floats(0, 90), st.floats(0, 90))
    def test_total_coverage_equals_length(self, a, span):
        cov = dense_coverage(a, a + span, 0, 10, 10)
        expected = max(0.0, min(a + span, 100) - min(a, 100))
        assert cov.sum() * 10 == pytest.approx(expected, abs=1e-9)

    def test_span_is_exactly_the_covered_bins(self):
        first, cov = _interval_coverage(13, 47, 0, 10, 10)
        assert first == 1
        assert cov == pytest.approx([0.7, 1.0, 1.0, 0.7])

    def test_interval_outside_grid_is_empty(self):
        assert _interval_coverage(-30, -10, 0, 10, 5)[1].size == 0
        assert _interval_coverage(60, 80, 0, 10, 5)[1].size == 0


class TestRasterize:
    def test_area_preserved(self):
        rect = Rect(13, 27, 113, 99)
        grid = rasterize([Polygon.from_rect(rect)], Rect(0, 0, 160, 160), 8.0)
        assert grid.data.sum() * 64 == pytest.approx(rect.area)

    def test_l_shape_area_preserved(self):
        ell = Polygon.from_xy([(0, 0), (100, 0), (100, 40), (40, 40), (40, 100), (0, 100)])
        grid = rasterize([ell], Rect(-8, -8, 120, 120), 8.0)
        assert grid.data.sum() * 64 == pytest.approx(ell.area)

    def test_pixel_aligned_rect_is_binary(self):
        grid = rasterize([Polygon.from_rect(Rect(8, 8, 24, 24))], Rect(0, 0, 32, 32), 8.0)
        assert set(np.unique(grid.data)) <= {0.0, 1.0}
        assert grid.data.sum() == 4

    def test_one_nm_edge_move_changes_coverage(self):
        region = Rect(0, 0, 64, 64)
        base = rasterize([Polygon.from_rect(Rect(16, 16, 48, 48))], region, 8.0)
        moved = rasterize([Polygon.from_rect(Rect(16, 16, 49, 48))], region, 8.0)
        delta = (moved.data - base.data).sum() * 64
        assert delta == pytest.approx(32.0)  # 1 nm x 32 nm of new area

    def test_outside_region_ignored(self):
        grid = rasterize([Polygon.from_rect(Rect(1000, 1000, 1100, 1100))],
                         Rect(0, 0, 64, 64), 8.0)
        assert grid.data.sum() == 0

    def test_partially_clipped(self):
        grid = rasterize([Polygon.from_rect(Rect(-50, 0, 32, 64))], Rect(0, 0, 64, 64), 8.0)
        assert grid.data.sum() * 64 == pytest.approx(32 * 64)

    def test_overlapping_shapes_clip_at_one(self):
        shape = Polygon.from_rect(Rect(8, 8, 24, 24))
        grid = rasterize([shape, shape], Rect(0, 0, 32, 32), 8.0)
        assert grid.data.max() == 1.0

    def test_transmission_polarity(self):
        grid = rasterize([Polygon.from_rect(Rect(0, 0, 32, 32))], Rect(0, 0, 32, 32), 8.0)
        dark = grid.transmission(background=1.0, feature=0.0)
        assert dark.max() == 0.0
        bright = grid.transmission(background=0.0, feature=1.0)
        assert bright.min() == 1.0

    def test_region_geometry(self):
        grid = rasterize([], Rect(10, 20, 90, 60), 8.0)
        assert grid.nx == 10
        assert grid.ny == 5
        assert grid.region == Rect(10, 20, 90, 60)
        xs, ys = grid.pixel_centers()
        assert xs[0] == 14.0
        assert ys[-1] == 56.0

    def test_bad_pixel_rejected(self):
        with pytest.raises(ValueError):
            rasterize([], Rect(0, 0, 10, 10), 0.0)

    def test_rasterize_rects_skips_degenerate(self):
        grid = rasterize_rects([Rect(0, 0, 0, 10), Rect(0, 0, 16, 16)],
                               Rect(0, 0, 32, 32), 8.0)
        assert grid.data.sum() * 64 == pytest.approx(256)

    @given(
        st.integers(0, 56), st.integers(0, 56), st.integers(1, 64), st.integers(1, 64),
    )
    def test_random_rect_area_preserved(self, x, y, w, h):
        rect = Rect(x, y, min(x + w, 120), min(y + h, 120))
        grid = rasterize([Polygon.from_rect(rect)], Rect(0, 0, 120, 120), 8.0)
        assert grid.data.sum() * 64 == pytest.approx(rect.area, rel=1e-9)

    @given(
        st.lists(rectangle, max_size=8),
        origin,
        origin,
        region_extent,
        region_extent,
    )
    def test_matches_dense_outer_oracle(self, rects, rx, ry, width, height):
        region = Rect(rx, ry, rx + width, ry + height)
        # duplicates stack coverage past 1.0 and exercise the clip
        rects = rects + rects[:2]
        grid = rasterize([Polygon.from_rect(r) for r in rects], region, PIXEL)
        assert np.array_equal(grid.data, oracle_rasterize(rects, region, PIXEL))
