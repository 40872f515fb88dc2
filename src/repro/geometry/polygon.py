"""Simple polygons, specialised for rectilinear layout shapes."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.geometry.point import Point, snap
from repro.geometry.rect import Rect


class Polygon:
    """A simple (non-self-intersecting) polygon.

    Vertices are stored counter-clockwise without a repeated closing vertex.
    Construction normalises orientation and drops consecutive duplicate and
    collinear vertices, so two polygons describing the same region compare
    equal regardless of the starting vertex order handed in.
    """

    __slots__ = ("_pts",)

    def __init__(self, points: Sequence[Point]):
        pts = _dedup([Point(p.x, p.y) if not isinstance(p, Point) else p for p in points])
        if len(pts) < 3:
            raise ValueError(f"polygon needs >= 3 distinct vertices, got {len(pts)}")
        if _signed_area(pts) < 0:
            pts.reverse()
        self._pts = _drop_collinear(pts)
        if len(self._pts) < 3:
            raise ValueError("polygon degenerated to fewer than 3 vertices")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rect(rect: Rect) -> "Polygon":
        if rect.is_degenerate():
            raise ValueError(f"cannot build polygon from degenerate rect {rect}")
        return Polygon(rect.corners)

    @staticmethod
    def from_xy(xy: Sequence[Tuple[float, float]]) -> "Polygon":
        return Polygon([Point(x, y) for x, y in xy])

    # -- accessors ---------------------------------------------------------

    @property
    def points(self) -> List[Point]:
        return list(self._pts)

    @property
    def num_vertices(self) -> int:
        return len(self._pts)

    def __len__(self) -> int:
        return len(self._pts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        if len(self._pts) != len(other._pts):
            return False
        # Same cyclic sequence, possibly rotated.
        n = len(self._pts)
        first = self._pts[0]
        for offset, candidate in enumerate(other._pts):
            if candidate == first:
                if all(self._pts[i] == other._pts[(offset + i) % n] for i in range(n)):
                    return True
        return False

    def __hash__(self):
        # Canonical rotation: start at lexicographically smallest vertex.
        n = len(self._pts)
        start = min(range(n), key=lambda i: (self._pts[i].x, self._pts[i].y))
        return hash(tuple((self._pts[(start + i) % n].x, self._pts[(start + i) % n].y) for i in range(n)))

    def __repr__(self):
        return f"Polygon({[(p.x, p.y) for p in self._pts]})"

    # -- geometry ----------------------------------------------------------

    @property
    def area(self) -> float:
        return _signed_area(self._pts)

    @property
    def bbox(self) -> Rect:
        xs = [p.x for p in self._pts]
        ys = [p.y for p in self._pts]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    @property
    def perimeter(self) -> float:
        n = len(self._pts)
        return sum(self._pts[i].distance(self._pts[(i + 1) % n]) for i in range(n))

    def is_rectilinear(self, tol: float = 1e-9) -> bool:
        """True if every edge is axis-parallel."""
        n = len(self._pts)
        for i in range(n):
            a, b = self._pts[i], self._pts[(i + 1) % n]
            if abs(a.x - b.x) > tol and abs(a.y - b.y) > tol:
                return False
        return True

    def contains_point(self, p: Point) -> bool:
        """Even-odd ray casting; boundary points count as inside."""
        n = len(self._pts)
        inside = False
        for i in range(n):
            a, b = self._pts[i], self._pts[(i + 1) % n]
            if _on_segment(p, a, b):
                return True
            if (a.y > p.y) != (b.y > p.y):
                x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if p.x < x_cross:
                    inside = not inside
        return inside

    def translated(self, dx: float, dy: float) -> "Polygon":
        """The vertices moved by ``(dx, dy)``, in place and order.  A
        translation keeps a normalised polygon normalised when the sums are
        exact, so it is not normalised again."""
        moved = object.__new__(Polygon)
        moved._pts = [Point(p.x + dx, p.y + dy) for p in self._pts]
        return moved

    def scaled(self, factor: float) -> "Polygon":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Polygon([Point(p.x * factor, p.y * factor) for p in self._pts])

    def snapped(self, grid: float = 1.0) -> "Polygon":
        return Polygon([Point(snap(p.x, grid), snap(p.y, grid)) for p in self._pts])


def _signed_area(pts: Sequence[Point]) -> float:
    total = 0.0
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total / 2


def _dedup(pts: List[Point]) -> List[Point]:
    out: List[Point] = []
    for p in pts:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _drop_collinear(pts: List[Point]) -> List[Point]:
    n = len(pts)
    out: List[Point] = []
    for i in range(n):
        prev, cur, nxt = pts[i - 1], pts[i], pts[(i + 1) % n]
        if abs((cur - prev).cross(nxt - cur)) > 1e-9:
            out.append(cur)
    return out if len(out) >= 3 else pts


def _on_segment(p: Point, a: Point, b: Point, tol: float = 1e-9) -> bool:
    if abs((b - a).cross(p - a)) > tol:
        return False
    return (
        min(a.x, b.x) - tol <= p.x <= max(a.x, b.x) + tol
        and min(a.y, b.y) - tol <= p.y <= max(a.y, b.y) + tol
    )
