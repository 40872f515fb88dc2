"""Model-based OPC: iterative edge-placement-error correction.

Every boundary fragment of every target polygon is moved along its normal
to null the simulated edge-placement error (EPE) at its control point —
the simulate-then-move loop of production OPC engines.  Context shapes
(neighbouring cells) participate in the image but are not moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import (
    Fragment,
    Polygon,
    Rect,
    fragment_polygon,
    rebuild_polygon,
    snap,
)
from repro.litho.imaging import AerialImage
from repro.litho.resist import NOMINAL, ProcessCondition
from repro.litho.simulator import LithographySimulator


@dataclass(frozen=True)
class ModelOpcRecipe:
    """Tuning of the model-based OPC loop (distances in nm)."""

    iterations: int = 6
    damping: float = 0.7
    max_move_per_iteration: float = 8.0
    max_total_move: float = 40.0
    fragment_max_length: float = 60.0
    fragment_corner_length: float = 30.0
    fragment_line_end_max: float = 120.0
    #: how far to search for the printed edge around a control point
    epe_search: float = 80.0
    grid: float = 1.0
    #: stop early once max |EPE| falls below this
    target_epe: float = 1.0


@dataclass
class OpcResult:
    """Corrected mask polygons plus the convergence record."""

    polygons: List[Polygon]
    #: per-iteration (rms EPE, max |EPE|) *before* that iteration's move
    epe_history: List[Tuple[float, float]] = field(default_factory=list)
    iterations_run: int = 0

    @property
    def final_rms_epe(self) -> float:
        return self.epe_history[-1][0] if self.epe_history else float("nan")

    @property
    def final_max_epe(self) -> float:
        return self.epe_history[-1][1] if self.epe_history else float("nan")


def measure_epes(
    latent: AerialImage,
    threshold: float,
    fragments: Sequence[Fragment],
    search: float = 80.0,
    samples: int = 41,
) -> List[Optional[float]]:
    """Signed edge-placement error at each fragment's control point, from
    one interpolation call for all sites.

    Positive EPE means the printed edge lies *outside* the drawn edge
    (feature prints too big); negative means pullback.  An entry is None
    when no printed edge crosses that site's search span (catastrophic
    failure: the feature vanished or merged there).
    """
    if not fragments:
        return []
    positions = np.linspace(-search, search, samples)
    origins = np.array([(f.control_point.x, f.control_point.y) for f in fragments])
    normals = np.array([(f.outward_normal.x, f.outward_normal.y) for f in fragments])
    xs = origins[:, 0:1] + positions[None, :] * normals[:, 0:1]
    ys = origins[:, 1:2] + positions[None, :] * normals[:, 1:2]
    values = latent.values_at(xs, ys)

    epes: List[Optional[float]] = []
    deltas = values - threshold
    sign_change = deltas[:, :-1] * deltas[:, 1:] <= 0.0
    moving = values[:, 1:] != values[:, :-1]
    step = positions[1] - positions[0]
    for row in range(len(fragments)):
        candidates = np.nonzero(sign_change[row] & moving[row])[0]
        if candidates.size == 0:
            epes.append(None)
            continue
        v0 = values[row, candidates]
        v1 = values[row, candidates + 1]
        crossing = positions[candidates] + (threshold - v0) / (v1 - v0) * step
        epes.append(float(crossing[np.argmin(np.abs(crossing))]))
    return epes


@dataclass(frozen=True)
class OpcTileTask:
    """Model-OPC work for one tile, as a picklable value.

    ``targets`` are the drawn polygons to correct (design intent);
    ``context`` is the fixed mask data sharing the tile's optical window.
    Tasks carry no simulator or callables, so a process-pool worker can
    receive them alongside one pickled simulator per chunk.
    """

    targets: Tuple[Polygon, ...]
    context: Tuple[Polygon, ...]
    recipe: ModelOpcRecipe
    condition: ProcessCondition


def correct_tile_chunk(payload) -> List[List[Polygon]]:
    """Chunk worker: run model OPC on a list of tile tasks.

    ``payload`` is ``(simulator, [OpcTileTask, ...])``.  Module-level and
    picklable for process-pool dispatch; the simulator's SOCS kernel
    cache is built once per worker and shared across the chunk's tiles.
    Returns the corrected polygons of each task, in task order.
    """
    simulator, tasks = payload
    results = []
    for task in tasks:
        corrected = apply_model_opc(
            simulator,
            list(task.targets),
            context=list(task.context),
            recipe=task.recipe,
            condition=task.condition,
        )
        results.append(corrected.polygons)
    return results


def apply_model_opc(
    simulator: LithographySimulator,
    targets: Sequence[Polygon],
    context: Sequence[Polygon] = (),
    recipe: Optional[ModelOpcRecipe] = None,
    condition: ProcessCondition = NOMINAL,
) -> OpcResult:
    """Iteratively correct ``targets`` so they print on their drawn edges.

    ``context`` polygons are imaged but not moved (already-final mask data,
    neighbouring tiles, SRAFs).
    """
    recipe = recipe or ModelOpcRecipe()
    if not targets:
        return OpcResult(polygons=[], iterations_run=0)
    all_fragments: List[List[Fragment]] = [
        fragment_polygon(
            poly,
            max_length=recipe.fragment_max_length,
            corner_length=recipe.fragment_corner_length,
            line_end_max=recipe.fragment_line_end_max,
        )
        for poly in targets
    ]
    region = Rect.bounding([p.bbox for p in targets])
    threshold = simulator.resist.threshold

    result = OpcResult(polygons=list(targets))
    flat_fragments = [frag for frags in all_fragments for frag in frags]
    for iteration in range(recipe.iterations):
        mask_polys = [rebuild_polygon(frags) for frags in all_fragments]
        latent = simulator.latent_image(list(mask_polys) + list(context), region, condition)
        measured = measure_epes(latent, threshold, flat_fragments, search=recipe.epe_search)
        epes = []
        for frag, epe in zip(flat_fragments, measured):
            if epe is None:
                # No printed edge found: push the mask edge outward to
                # recover the feature.
                move = recipe.max_move_per_iteration
            else:
                epes.append(epe)
                move = -recipe.damping * epe
                move = max(-recipe.max_move_per_iteration,
                           min(recipe.max_move_per_iteration, move))
            frag.offset = max(-recipe.max_total_move,
                              min(recipe.max_total_move, frag.offset + move))
        if epes:
            rms = float(np.sqrt(np.mean(np.square(epes))))
            worst = float(np.max(np.abs(epes)))
        else:
            rms = worst = float("nan")
        result.epe_history.append((rms, worst))
        result.iterations_run = iteration + 1
        if epes and worst <= recipe.target_epe:
            break

    for frags in all_fragments:
        for frag in frags:
            frag.offset = snap(frag.offset, recipe.grid)
    result.polygons = [rebuild_polygon(frags).snapped(recipe.grid) for frags in all_fragments]
    return result
