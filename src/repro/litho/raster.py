"""Analytic-coverage mask rasterization.

OPC moves edges in 1 nm steps while the image grid is ~8 nm, so binary
(in/out) rasterization would quantize away the very corrections being
applied.  Rasterizing the rectangle decomposition with *analytic per-pixel
area coverage* makes the transmission grid an exact (band-unlimited)
sampling of the polygon indicator, accurate to machine precision for
Manhattan shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.geometry import Polygon, Rect, decompose_rectilinear
from repro.units import Nanometers, NmPerPixel


@dataclass
class MaskGrid:
    """Pixel grid of polygon coverage over a simulation region.

    ``data[j, i]`` is the covered area fraction of the pixel whose lower
    left corner is ``(x0 + i*pixel, y0 + j*pixel)``.
    """

    x0: Nanometers
    y0: Nanometers
    pixel: NmPerPixel
    data: np.ndarray  # shape (ny, nx), float64 in [0, 1]

    @property
    def nx(self) -> int:
        return self.data.shape[1]

    @property
    def ny(self) -> int:
        return self.data.shape[0]

    @property
    def region(self) -> Rect:
        return Rect(
            self.x0, self.y0, self.x0 + self.nx * self.pixel, self.y0 + self.ny * self.pixel
        )

    def transmission(self, background: complex = 1.0, feature: complex = 0.0) -> np.ndarray:
        """Mask transmission: ``background`` where empty, ``feature`` where
        covered (a chrome-on-glass dark feature uses the defaults)."""
        return background * (1.0 - self.data) + feature * self.data

    def pixel_centers(self):
        """(x, y) center coordinate arrays, shapes (nx,), (ny,)."""
        xs = self.x0 + (np.arange(self.nx) + 0.5) * self.pixel
        ys = self.y0 + (np.arange(self.ny) + 0.5) * self.pixel
        return xs, ys


def _interval_coverage(a: Nanometers, b: Nanometers, start: Nanometers,
                       pixel: NmPerPixel, n: int) -> Tuple[int, np.ndarray]:
    """Fractional 1-D coverage of interval [a, b] over n bins of width
    ``pixel`` beginning at ``start``.

    Returns ``(first, cov)``: ``cov[k]`` is the covered fraction of bin
    ``first + k``, and every bin outside that span is uncovered (``cov``
    is empty when no bin is)."""
    if b <= a:
        return 0, np.zeros(0)
    lo = (a - start) / pixel
    hi = (b - start) / pixel
    i0 = int(np.floor(lo))
    i1 = int(np.floor(hi))
    if i1 == hi and i1 > i0:
        i1 -= 1  # b exactly on a bin boundary belongs to the bin below
    i0c = max(i0, 0)
    i1c = min(i1, n - 1)
    if i0c > i1c:
        return 0, np.zeros(0)
    cov = np.ones(i1c - i0c + 1)
    if i0 == i1:
        cov[0] = hi - lo
        return i0c, cov
    if i0 == i0c:
        cov[0] = (i0 + 1) - lo
    if i1 == i1c:
        cov[-1] = hi - i1
    return i0c, cov


def rasterize(
    polygons: Sequence[Polygon], region: Rect, pixel: NmPerPixel
) -> MaskGrid:
    """Rasterize rectilinear ``polygons`` clipped to ``region``.

    The region is expanded to a whole number of pixels (anchored at its
    lower-left corner).
    """
    if pixel <= 0:
        raise ValueError("pixel must be positive")
    nx = max(1, int(np.ceil(region.width / pixel - 1e-9)))
    ny = max(1, int(np.ceil(region.height / pixel - 1e-9)))
    data = np.zeros((ny, nx))
    grid = MaskGrid(region.x0, region.y0, pixel, data)
    for poly in polygons:
        if poly.bbox.intersection(region) is None:
            continue
        for rect in decompose_rectilinear(poly):
            clipped = rect.intersection(grid.region)
            if clipped is None or clipped.area == 0.0:
                continue
            # Only the rectangle's own pixel span receives its products;
            # every other pixel would add an exact 0.0.
            i0, cx = _interval_coverage(clipped.x0, clipped.x1, region.x0, pixel, nx)
            j0, cy = _interval_coverage(clipped.y0, clipped.y1, region.y0, pixel, ny)
            data[j0:j0 + cy.size, i0:i0 + cx.size] += np.outer(cy, cx)
    np.clip(data, 0.0, 1.0, out=data)
    return grid


def rasterize_rects(rects: Sequence[Rect], region: Rect, pixel: NmPerPixel) -> MaskGrid:
    """Rasterize plain rectangles (no polygon decomposition step)."""
    polys = [Polygon.from_rect(r) for r in rects if not r.is_degenerate()]
    return rasterize(polys, region, pixel)
