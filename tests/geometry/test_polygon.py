"""Unit and property tests for polygons and rectilinear decomposition."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Polygon, Rect, decompose_rectilinear
from repro.geometry.decompose import point_in_rects, rectangles_area


def l_shape():
    """An L: a 4x4 square with the top-right 2x2 quadrant removed."""
    return Polygon.from_xy([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])


def u_shape():
    """A U with a 2-wide notch down the middle."""
    return Polygon.from_xy([(0, 0), (6, 0), (6, 4), (4, 4), (4, 1), (2, 1), (2, 4), (0, 4)])


class TestConstruction:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon.from_xy([(0, 0), (1, 1)])

    def test_normalises_to_ccw(self):
        cw = Polygon.from_xy([(0, 0), (0, 1), (1, 1), (1, 0)])
        ccw = Polygon.from_xy([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert cw.area > 0
        assert cw == ccw

    def test_drops_collinear_and_duplicates(self):
        p = Polygon.from_xy([(0, 0), (1, 0), (2, 0), (2, 0), (2, 2), (0, 2)])
        assert p.num_vertices == 4

    def test_from_rect(self):
        p = Polygon.from_rect(Rect(0, 0, 3, 2))
        assert p.area == 6
        assert p.is_rectilinear()

    def test_from_degenerate_rect_raises(self):
        with pytest.raises(ValueError):
            Polygon.from_rect(Rect(0, 0, 0, 2))

    def test_equality_is_rotation_invariant(self):
        a = Polygon.from_xy([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon.from_xy([(1, 1), (0, 1), (0, 0), (1, 0)])
        assert a == b
        assert hash(a) == hash(b)


class TestGeometry:
    def test_area_and_perimeter(self):
        p = l_shape()
        assert p.area == 12
        assert p.perimeter == 16

    def test_bbox(self):
        assert l_shape().bbox == Rect(0, 0, 4, 4)

    def test_rectilinear_detection(self):
        assert l_shape().is_rectilinear()
        tri = Polygon.from_xy([(0, 0), (2, 0), (1, 2)])
        assert not tri.is_rectilinear()

    def test_contains_point(self):
        p = l_shape()
        assert p.contains_point(Point(1, 1))
        assert p.contains_point(Point(3, 1))
        assert not p.contains_point(Point(3, 3))  # inside the notch
        assert p.contains_point(Point(0, 0))  # boundary counts

    def test_translated(self):
        p = l_shape().translated(10, 20)
        assert p.bbox == Rect(10, 20, 14, 24)
        assert p.area == 12
        # vertex for vertex, in order, and still normalised
        assert p.points == [Point(q.x + 10, q.y + 20) for q in l_shape().points]
        assert Polygon(p.points).points == p.points

    def test_scaled(self):
        p = l_shape().scaled(2)
        assert p.area == 48

    def test_snapped(self):
        p = Polygon.from_xy([(0.4, 0.4), (3.6, 0.4), (3.6, 2.6), (0.4, 2.6)]).snapped()
        assert p.bbox == Rect(0, 0, 4, 3)


class TestDecompose:
    def test_rectangle_decomposes_to_itself(self):
        rects = decompose_rectilinear(Polygon.from_rect(Rect(0, 0, 5, 3)))
        assert rects == [Rect(0, 0, 5, 3)]

    def test_l_shape(self):
        rects = decompose_rectilinear(l_shape())
        assert rectangles_area(rects) == pytest.approx(12)
        for a in rects:
            for b in rects:
                if a is not b:
                    assert not a.overlaps(b)

    def test_u_shape(self):
        rects = decompose_rectilinear(u_shape())
        assert rectangles_area(rects) == pytest.approx(u_shape().area)
        assert point_in_rects(Point(1, 2), rects)
        assert not point_in_rects(Point(3, 3), rects)

    def test_rejects_non_rectilinear(self):
        with pytest.raises(ValueError):
            decompose_rectilinear(Polygon.from_xy([(0, 0), (2, 0), (1, 2)]))

    def test_vertical_merge_keeps_count_small(self):
        # A plus sign: 3 slabs but the central column merges.
        plus = Polygon.from_xy(
            [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (2, 2), (2, 3), (1, 3), (1, 2), (0, 2), (0, 1), (1, 1)]
        )
        rects = decompose_rectilinear(plus)
        assert rectangles_area(rects) == pytest.approx(plus.area)
        assert len(rects) == 3


@st.composite
def staircases(draw):
    """Random rectilinear staircase polygons with known area."""
    n_steps = draw(st.integers(1, 6))
    widths = [draw(st.integers(1, 5)) for _ in range(n_steps)]
    heights = [draw(st.integers(1, 5)) for _ in range(n_steps)]
    # Go right along the bottom, then staircase up-and-left back to origin.
    pts = [(0.0, 0.0)]
    x = float(sum(widths))
    pts.append((x, 0.0))
    y = 0.0
    expected = 0.0
    for w, h in zip(reversed(widths), heights):
        y += h
        pts.append((x, y))
        expected += w * y
        x -= w
        pts.append((x, y))
    return Polygon.from_xy(pts), expected


class TestDecomposeProperties:
    @given(staircases())
    def test_area_is_preserved(self, case):
        poly, expected = case
        assert poly.area == pytest.approx(expected)
        rects = decompose_rectilinear(poly)
        assert rectangles_area(rects) == pytest.approx(poly.area)

    @given(staircases())
    def test_rects_are_disjoint_and_inside(self, case):
        poly, _ = case
        rects = decompose_rectilinear(poly)
        for i, a in enumerate(rects):
            assert poly.contains_point(a.center)
            for b in rects[i + 1:]:
                assert not a.overlaps(b)

    @given(staircases())
    def test_interior_points_covered(self, case):
        poly, _ = case
        rects = decompose_rectilinear(poly)
        bbox = poly.bbox
        xs = [bbox.x0 + (i + 0.5) * (bbox.width / 7) for i in range(7)]
        ys = [bbox.y0 + (i + 0.5) * (bbox.height / 7) for i in range(7)]
        for x in xs:
            for y in ys:
                p = Point(x, y)
                strictly_inside = poly.contains_point(p) and all(
                    abs(x - vx) > 1e-9 and abs(y - vy) > 1e-9
                    for vx, vy in [(q.x, q.y) for q in poly.points]
                )
                if strictly_inside:
                    assert point_in_rects(p, rects) == poly.contains_point(p)
