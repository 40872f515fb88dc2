"""Partially-coherent optical lithography simulation.

The imaging chain mirrors a production litho simulator of the paper's era:

* :mod:`repro.litho.source` — illumination pupil fill (conventional,
  annular, quadrupole) discretized into weighted source points,
* :mod:`repro.litho.pupil` — projection pupil with defocus and low-order
  aberrations,
* :mod:`repro.litho.raster` — polygon-to-pixel mask transmission with
  analytic area coverage (1 nm edge moves stay visible on an 8 nm grid),
* :mod:`repro.litho.imaging` — Abbe sum-over-source imaging (reference) and
  the SOCS/TCC eigen-kernel fast path,
* :mod:`repro.litho.resist` — constant-threshold resist with Gaussian
  acid-diffusion blur and dose scaling,
* :mod:`repro.litho.contour` — marching-squares printed-contour extraction,
* :mod:`repro.litho.simulator` — the high-level windowed driver,
* :mod:`repro.litho.tiling` — the window grid (tile and shard geometries)
  that cuts a full layout into simulation windows.
"""

from repro.litho.source import SourcePoint, make_source
from repro.litho.pupil import Pupil
from repro.litho.raster import MaskGrid, rasterize
from repro.litho.imaging import AerialImage, OpticalModel
from repro.litho.resist import ProcessCondition, ResistModel
from repro.litho.contour import marching_squares
from repro.litho.simulator import LithographySimulator
from repro.litho.tiling import (
    DEFAULT_MAX_SHARD_PX,
    TileSpec,
    WindowGrid,
    plan_shard_grid,
    plan_tile_grid,
)
from repro.litho.window import BossungData, ProcessWindow, bossung_data, extract_process_window
from repro.litho.metrics import (
    dose_latitude_percent,
    grating_meef,
    grating_nils,
    nils_at_edge,
)

__all__ = [
    "SourcePoint",
    "make_source",
    "Pupil",
    "MaskGrid",
    "rasterize",
    "AerialImage",
    "OpticalModel",
    "ProcessCondition",
    "ResistModel",
    "marching_squares",
    "LithographySimulator",
    "TileSpec",
    "DEFAULT_MAX_SHARD_PX",
    "WindowGrid",
    "plan_tile_grid",
    "plan_shard_grid",
    "nils_at_edge",
    "grating_nils",
    "grating_meef",
    "dose_latitude_percent",
    "BossungData",
    "ProcessWindow",
    "bossung_data",
    "extract_process_window",
]
