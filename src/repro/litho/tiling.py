"""Simulation windows: one grid of interiors over a layout region.

Full-layout lithography is imaged window by window, the way production
OPC/verification tools partition a chip.  A :class:`WindowGrid` cuts a
region into a row-major grid of *interiors*; each window images its
interior plus one ambit halo of surrounding geometry, so every result
sampled inside an interior has full proximity context.

Two geometries build the same grid type, and they are the only place the
two differ:

* :func:`plan_tile_grid` — fixed interiors of ``max_tile_px`` pixels less
  two ambits (512 px by default), the last row/column clipped to the
  region;
* :func:`plan_shard_grid` — uniform interiors whose windows stay within
  :data:`DEFAULT_MAX_SHARD_PX`.  With the default 1200 nm ambit, more than
  half of every 512-pixel window is halo; 1024-pixel windows cost ~2.2x
  less per unit interior area on this repo's SOCS stack (39 kernels, 8 nm
  pixels), and beyond that the N^2 log N FFT growth wins.

The two geometries quantize windows to different pixel grids, so they
measure slightly different CDs; callers that cache results key them on
the geometry.  Ownership is the same for both: a point belongs to the
lowest-index window whose *closed* interior holds it (:meth:`WindowGrid.
locate`), so a point on a shared edge goes to the lower window and every
point maps to exactly one window.  Grids are plain picklable values with
their exposure conditions already resolved, so the task lists built from
them ship to any ``map_chunks`` executor and serial and process-parallel
dispatch of one plan are bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.geometry import GridIndex, Point, Polygon, Rect
from repro.litho.resist import NOMINAL, ProcessCondition
from repro.litho.simulator import LithographySimulator

#: largest shard window (pixels per side, halo included).  The sweet spot
#: of halo amortization vs FFT N^2 log N growth measured on this stack.
DEFAULT_MAX_SHARD_PX = 1024

K = TypeVar("K", bound=Hashable)


@dataclass(frozen=True)
class TileSpec:
    """One simulation window, before any imaging happens.

    The spec is a plain, picklable value — the work-list unit that
    parallel executors ship to worker processes.  ``condition`` is already
    resolved (per-window ACLV maps are evaluated at planning time), so
    workers never see closures.
    """

    interior: Rect
    condition: ProcessCondition


@dataclass(frozen=True)
class WindowGrid:
    """A row-major grid of window interiors.

    ``xs`` and ``ys`` are the per-axis interior edges (``nx + 1`` and
    ``ny + 1`` of them); window ``j * nx + i`` has interior
    ``Rect(xs[i], ys[j], xs[i + 1], ys[j + 1])`` and exposure condition
    ``conditions[j * nx + i]``.
    """

    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    conditions: Tuple[ProcessCondition, ...]

    def __post_init__(self) -> None:
        if len(self.xs) < 2 or len(self.ys) < 2:
            raise ValueError("window grid needs nx, ny >= 1")
        if len(self.conditions) != self.count:
            raise ValueError("need one condition per window")

    @property
    def nx(self) -> int:
        return len(self.xs) - 1

    @property
    def ny(self) -> int:
        return len(self.ys) - 1

    @property
    def count(self) -> int:
        return self.nx * self.ny

    def interior(self, index: int) -> Rect:
        """Interior rect of window ``index`` (row-major)."""
        j, i = divmod(index, self.nx)
        if not 0 <= j < self.ny:
            raise IndexError(f"window {index} outside {self.count}-window grid")
        return Rect(self.xs[i], self.ys[j], self.xs[i + 1], self.ys[j + 1])

    def spec(self, index: int) -> TileSpec:
        return TileSpec(interior=self.interior(index),
                        condition=self.conditions[index])

    def locate(self, x: float, y: float) -> int:
        """Row-major index of the window owning point (x, y).

        The owner is the lowest-index window whose closed interior holds
        the point: a point on a shared edge belongs to the lower window.
        Points outside the region clamp to the nearest edge window.
        """
        i = bisect_left(self.xs, x, 1, self.nx) - 1
        j = bisect_left(self.ys, y, 1, self.ny) - 1
        return j * self.nx + i

    def assign(
        self,
        points: Iterable[Tuple[K, Point]],
        polygons: Sequence[Polygon],
        halo: float,
    ) -> List[Tuple[int, List[K], List[int]]]:
        """Bin keyed points into windows and pair each with its geometry.

        Returns ``(window, keys, context)`` for every window that owns at
        least one point, in row-major order: ``keys`` are the owned keys
        in input order (:meth:`locate`), ``context`` the indices, ascending,
        of the polygons whose bbox touches the interior grown by ``halo``.
        One spatial-index query per window, so planning is
        O(points + windows + polygons) rather than a scan of every item
        per window.
        """
        owned: Dict[int, List[K]] = {}
        for key, point in points:
            owned.setdefault(self.locate(point.x, point.y), []).append(key)
        spans = [b - a for a, b in zip(self.xs, self.xs[1:])]
        spans += [b - a for a, b in zip(self.ys, self.ys[1:])]
        index: GridIndex[int] = GridIndex(cell_size=max(max(spans), 1000.0))
        for k, poly in enumerate(polygons):
            index.insert(poly.bbox, k)
        return [
            (window, owned[window],
             sorted(index.query(self.interior(window).expanded(halo),
                                strict=False)))
            for window in sorted(owned)
        ]


def _resolve(
    xs: Tuple[float, ...],
    ys: Tuple[float, ...],
    condition: ProcessCondition,
    condition_fn: Optional[Callable[[Rect], ProcessCondition]],
) -> WindowGrid:
    """The grid over these edges with each window's condition resolved."""
    grid = WindowGrid(xs=xs, ys=ys,
                      conditions=(condition,) * ((len(xs) - 1) * (len(ys) - 1)))
    if condition_fn is None:
        return grid
    return WindowGrid(xs=xs, ys=ys, conditions=tuple(
        condition_fn(grid.interior(index)) for index in range(grid.count)))


def plan_tile_grid(
    simulator: LithographySimulator,
    region: Rect,
    condition: ProcessCondition = NOMINAL,
    condition_fn: Optional[Callable[[Rect], ProcessCondition]] = None,
) -> WindowGrid:
    """Fixed-size tiles over ``region``.

    Every interior is ``max_tile_px`` pixels less two ambits per side,
    anchored at the region's lower-left corner; the last row and column
    are clipped to the region.  ``condition_fn`` maps an interior to its
    own :class:`ProcessCondition` (across-chip dose/defocus maps).
    """
    span = simulator.max_tile_px * simulator.settings.pixel_nm - 2 * simulator.ambit
    if span <= 0:
        raise ValueError("max_tile_px too small for the ambit")
    nx = max(1, int(-(-region.width // span)))
    ny = max(1, int(-(-region.height // span)))
    xs = tuple(min(region.x0 + i * span, region.x1) for i in range(nx + 1))
    ys = tuple(min(region.y0 + j * span, region.y1) for j in range(ny + 1))
    return _resolve(xs, ys, condition, condition_fn)


def plan_shard_grid(
    simulator: LithographySimulator,
    region: Rect,
    shards: int = 1,
    condition: ProcessCondition = NOMINAL,
    condition_fn: Optional[Callable[[Rect], ProcessCondition]] = None,
) -> WindowGrid:
    """Partition ``region`` into at least ``shards`` uniform interiors.

    The grid is the coarsest one that (a) has at least ``shards`` cells
    and (b) keeps every window (interior + ambit) within
    :data:`DEFAULT_MAX_SHARD_PX` pixels per side.  Cells are uniform, so
    all windows quantize to the same pixel geometry and share one SOCS
    kernel cache entry.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    pixel = simulator.settings.pixel_nm
    span_cap = DEFAULT_MAX_SHARD_PX * pixel - 2 * simulator.ambit
    if span_cap <= 0:
        raise ValueError(
            f"{DEFAULT_MAX_SHARD_PX}-pixel shard windows cannot fit the "
            f"{simulator.ambit} nm ambit at {pixel} nm pixels"
        )
    nx = max(1, int(-(-region.width // span_cap)))
    ny = max(1, int(-(-region.height // span_cap)))
    while nx * ny < shards:
        if region.width / nx >= region.height / ny:
            nx += 1
        else:
            ny += 1
    span_x = region.width / nx
    span_y = region.height / ny
    xs = tuple(region.x0 + i * span_x for i in range(nx + 1))
    ys = tuple(region.y0 + j * span_y for j in range(ny + 1))
    return _resolve(xs, ys, condition, condition_fn)
