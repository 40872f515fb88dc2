"""Printed gate-CD extraction.

This is the paper's "post-OPC extraction of critical dimensions": for every
transistor of every placed gate, cutlines across the printed poly image
measure the local channel length.  Several slices along the gate width
capture the non-rectangular printed shape (corner rounding, flare near the
gate contact), feeding the non-rectangular-transistor model downstream.

Full layouts are measured window by window: :func:`plan_metrology_tiles`
and :func:`plan_metrology_shards` differ only in the window geometry
(:mod:`repro.litho.tiling`) and share one task builder, and
:func:`measure_tile_chunk` images and measures the planned windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.geometry import Polygon, Rect
from repro.litho.imaging import AerialImage
from repro.litho.resist import NOMINAL, ProcessCondition
from repro.litho.simulator import LithographySimulator
from repro.litho.tiling import TileSpec, WindowGrid, plan_shard_grid, plan_tile_grid
from repro.units import Dimensionless, Nanometers


@dataclass
class GateCdMeasurement:
    """Printed CDs of one transistor gate.

    ``slice_positions`` run along the gate width (the transistor W axis),
    each with the locally measured channel length in ``slice_cds``.  A CD of
    0.0 records a catastrophic open (the gate did not print at that slice).
    """

    gate_rect: Rect
    drawn_cd: Nanometers
    slice_positions: List[float] = field(default_factory=list)
    slice_cds: List[float] = field(default_factory=list)

    @property
    def mid_cd(self) -> Nanometers:
        """CD at the slice closest to the middle of the gate width."""
        if not self.slice_cds:
            return float("nan")
        middle = (self.slice_positions[0] + self.slice_positions[-1]) / 2
        index = int(np.argmin([abs(p - middle) for p in self.slice_positions]))
        return self.slice_cds[index]

    @property
    def mean_cd(self) -> Nanometers:
        return float(np.mean(self.slice_cds)) if self.slice_cds else float("nan")

    @property
    def min_cd(self) -> Nanometers:
        return float(np.min(self.slice_cds)) if self.slice_cds else float("nan")

    @property
    def cd_range(self) -> Nanometers:
        if not self.slice_cds:
            return float("nan")
        return float(np.max(self.slice_cds) - np.min(self.slice_cds))

    @property
    def printed(self) -> bool:
        return bool(self.slice_cds) and all(cd > 0 for cd in self.slice_cds)

    @property
    def error(self) -> Nanometers:
        """Mean printed-minus-drawn CD error."""
        return self.mean_cd - self.drawn_cd

    def slice_widths(self) -> List[float]:
        """Width (along W) represented by each slice, for current weighting."""
        n = len(self.slice_positions)
        if n == 0:
            return []
        total = self.gate_rect.height if self.gate_rect.height >= self.gate_rect.width \
            else self.gate_rect.width
        return [total / n] * n


def _span_containing_center(
    positions: np.ndarray,
    values: np.ndarray,
    threshold: Dimensionless,
    center: Nanometers,
) -> Nanometers:
    """Width of the below-threshold span that contains ``center``.

    Unlike a global dark-span measure, this rejects neighbouring gates that
    share the cutline.  Returns 0.0 if the image at ``center`` is cleared
    (catastrophic open).

    Fully vectorized (this runs once per slice per gate, so per-element
    python dispatch dominated metrology time on multi-thousand-gate
    layouts); elementwise float64 arithmetic is exactly rounded, so the
    crossings are bit-identical to the per-segment loop it replaced.
    """
    center_value = np.interp(center, positions, values)
    if center_value >= threshold:
        return 0.0
    v0, v1 = values[:-1], values[1:]
    deltas = values - threshold
    cross = (deltas[:-1] * deltas[1:] <= 0.0) & (v0 != v1)
    t = (threshold - v0[cross]) / (v1[cross] - v0[cross])
    p0 = positions[:-1][cross]
    crossings = p0 + t * (positions[1:][cross] - p0)
    left = crossings[crossings <= center]
    right = crossings[crossings >= center]
    left_edge = left.max() if left.size else positions[0]
    right_edge = right.min() if right.size else positions[-1]
    return float(right_edge - left_edge)


def measure_gate_cds(
    latent: AerialImage,
    threshold: Dimensionless,
    gate_rects: Mapping[Hashable, Rect],
    n_slices: int = 5,
    edge_margin: Nanometers = 20.0,
    search: Nanometers = 80.0,
    samples: int = 96,
) -> Dict[Hashable, GateCdMeasurement]:
    """Measure printed CDs for gates whose rects lie inside ``latent``.

    The channel-length axis is the *short* axis of the gate rect; slices
    are stationed along the long axis, inset by ``edge_margin`` from the
    active edges to avoid endcap rounding.
    """
    results: Dict[Hashable, GateCdMeasurement] = {}
    for key, rect in gate_rects.items():
        vertical_gate = rect.height >= rect.width  # channel along x
        drawn = rect.width if vertical_gate else rect.height
        length_axis = rect.height if vertical_gate else rect.width
        measurement = GateCdMeasurement(gate_rect=rect, drawn_cd=drawn)
        span = length_axis - 2 * edge_margin
        if span <= 0 or n_slices < 1:
            stations = [length_axis / 2]
        else:
            stations = list(np.linspace(edge_margin, length_axis - edge_margin, n_slices))
        for station in stations:
            if vertical_gate:
                y = rect.y0 + station
                xs = np.linspace(rect.x0 - search, rect.x1 + search, samples)
                ys = np.full(samples, y)
                positions = xs
                center = rect.center.x
            else:
                x = rect.x0 + station
                ys = np.linspace(rect.y0 - search, rect.y1 + search, samples)
                xs = np.full(samples, x)
                positions = ys
                center = rect.center.y
            values = latent.values_at(xs, ys)
            cd = _span_containing_center(positions, values, threshold, center)
            measurement.slice_positions.append(station)
            measurement.slice_cds.append(cd)
        results[key] = measurement
    return results


#: printed-CD sanity band as multiples of the drawn CD: a measurement
#: whose mean printed CD falls outside ``[lo * drawn, hi * drawn]`` is
#: untrustworthy (wrong feature captured, contour artifact) and is
#: quarantined rather than back-annotated.  Catastrophic opens (CD 0.0)
#: are *not* quarantined — they are real printability failures, reported
#: through the failed-gate path.
QUARANTINE_BAND = (0.25, 4.0)


def measurement_fault(
    measurement: GateCdMeasurement,
    band: Tuple[float, float] = QUARANTINE_BAND,
) -> Optional[str]:
    """Why this measurement cannot be trusted (``None`` if it is sound).

    Faults: no contour slices at all, a non-finite or negative CD, a
    non-positive drawn reference, or a mean printed CD outside ``band``
    times the drawn CD.  Zero CDs (the gate did not print) are sound
    data — the printability-failure path owns those.
    """
    if not measurement.slice_cds:
        return "no contour slices measured"
    cds = np.asarray(measurement.slice_cds, dtype=float)
    if not np.all(np.isfinite(cds)):
        return "non-finite CD slice"
    if np.any(cds < 0):
        return "negative CD slice"
    if not (measurement.drawn_cd > 0):
        return f"non-positive drawn CD ({measurement.drawn_cd!r})"
    printed = cds[cds > 0]
    if printed.size:
        mean = float(printed.mean())
        lo, hi = band
        if not (lo * measurement.drawn_cd <= mean <= hi * measurement.drawn_cd):
            return (
                f"printed CD {mean:.1f} nm outside "
                f"[{lo:g}x, {hi:g}x] of drawn {measurement.drawn_cd:.1f} nm"
            )
    return None


def quarantine_measurements(
    measurements: Mapping[Hashable, GateCdMeasurement],
    band: Tuple[float, float] = QUARANTINE_BAND,
) -> Tuple[Dict[Hashable, GateCdMeasurement], Dict[Hashable, str]]:
    """Split measurements into (sound, quarantined-with-reason).

    Quarantined sites fall back to drawn CDs downstream (the derate
    builder treats a missing measurement as drawn), so one garbled
    extraction degrades coverage instead of aborting the run.
    """
    clean: Dict[Hashable, GateCdMeasurement] = {}
    faults: Dict[Hashable, str] = {}
    for key, measurement in measurements.items():
        fault = measurement_fault(measurement, band)
        if fault is None:
            clean[key] = measurement
        else:
            faults[key] = fault
    return clean, faults


@dataclass(frozen=True)
class MetrologyTileTask:
    """Self-contained metrology work for one window (picklable)."""

    spec: TileSpec
    polygons: Tuple[Polygon, ...]
    gate_rects: Tuple[Tuple[Hashable, Rect], ...]
    n_slices: int


def _metrology_region(
    simulator: LithographySimulator, gate_rects: Mapping[Hashable, Rect],
) -> Rect:
    """Default planning region: the gates' bounding box plus one pixel."""
    return Rect.bounding(gate_rects.values()).expanded(
        simulator.settings.pixel_nm)


def _metrology_tasks(
    simulator: LithographySimulator,
    grid: WindowGrid,
    mask_polygons: Sequence[Polygon],
    gate_rects: Mapping[Hashable, Rect],
    n_slices: int,
) -> List[MetrologyTileTask]:
    """One task per window that owns a gate center.

    Each gate is measured in the window owning its center
    (:meth:`WindowGrid.locate`: closed interiors, the lower window wins
    on a shared edge), and that window carries every mask polygon within
    one ambit, so each measurement has full proximity context.  Windows
    with no gates produce no task and are never simulated.
    """
    polygons = list(mask_polygons)
    return [
        MetrologyTileTask(
            spec=grid.spec(window),
            polygons=tuple(polygons[k] for k in context),
            gate_rects=tuple((key, gate_rects[key]) for key in keys),
            n_slices=n_slices,
        )
        for window, keys, context in grid.assign(
            ((key, rect.center) for key, rect in gate_rects.items()),
            polygons, simulator.ambit)
    ]


def plan_metrology_tiles(
    simulator: LithographySimulator,
    mask_polygons: Sequence[Polygon],
    gate_rects: Mapping[Hashable, Rect],
    condition: ProcessCondition = NOMINAL,
    region: Optional[Rect] = None,
    n_slices: int = 5,
    condition_fn: Optional[Callable[[Rect], ProcessCondition]] = None,
) -> List[MetrologyTileTask]:
    """The per-tile metrology work-list (:func:`plan_tile_grid` windows)."""
    if not gate_rects:
        return []
    if region is None:
        region = _metrology_region(simulator, gate_rects)
    grid = plan_tile_grid(simulator, region, condition, condition_fn)
    return _metrology_tasks(simulator, grid, mask_polygons, gate_rects, n_slices)


def plan_metrology_shards(
    simulator: LithographySimulator,
    mask_polygons: Sequence[Polygon],
    gate_rects: Mapping[Hashable, Rect],
    shards: int = 1,
    condition: ProcessCondition = NOMINAL,
    region: Optional[Rect] = None,
    n_slices: int = 5,
    condition_fn: Optional[Callable[[Rect], ProcessCondition]] = None,
) -> List[MetrologyTileTask]:
    """The per-shard metrology work-list (:func:`plan_shard_grid` windows).

    Shard windows are larger and quantize to a different pixel grid than
    tiles, so they measure slightly different CDs; the flow keys its
    cache on the shard count.
    """
    if not gate_rects:
        return []
    if region is None:
        region = _metrology_region(simulator, gate_rects)
    grid = plan_shard_grid(simulator, region, shards, condition, condition_fn)
    return _metrology_tasks(simulator, grid, mask_polygons, gate_rects, n_slices)


def measure_tile_chunk(
    payload: Tuple[LithographySimulator, Sequence[MetrologyTileTask]],
) -> List[Dict[Hashable, GateCdMeasurement]]:
    """Chunk worker: measure a list of windows with one simulator.

    ``payload`` is ``(simulator, [MetrologyTileTask, ...])``.  Module-level
    and fully picklable so process-pool executors can dispatch it; each
    worker builds its SOCS kernel cache on the first window and reuses it
    for the rest of the chunk.  Windows are independent, so every
    ``map_chunks`` backend returns bit-identical measurements.
    """
    simulator, tasks = payload
    results: List[Dict[Hashable, GateCdMeasurement]] = []
    for task in tasks:
        latent = simulator.latent_image(
            list(task.polygons), task.spec.interior, task.spec.condition)
        results.append(measure_gate_cds(
            latent,
            simulator.resist.threshold,
            dict(task.gate_rects),
            n_slices=task.n_slices,
        ))
    return results
