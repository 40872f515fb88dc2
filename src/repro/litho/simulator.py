"""High-level lithography driver: windows and calibration.

``LithographySimulator`` owns one optical model + resist model pair and
produces latent images (diffused, dose-scaled aerial images whose threshold
level-set is the resist edge) for arbitrary layout windows.  Every window
carries an *ambit* halo of surrounding geometry so proximity effects are
correct in its interior; :mod:`repro.litho.tiling` cuts large regions into
such windows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.geometry import Polygon, Rect
from repro.litho.contour import contours_of_latent
from repro.litho.imaging import AerialImage, OpticalModel
from repro.litho.raster import rasterize
from repro.litho.resist import NOMINAL, ProcessCondition, ResistModel
from repro.pdk import LithoSettings, Technology
from repro.units import Dimensionless, Nanometers

#: default interaction halo; ~4x lambda/NA — beyond the proximity range, and
#: big enough that periodic-replica (FFT wrap) CD noise stays under ~0.5 nm
DEFAULT_AMBIT = 1200.0


class LithographySimulator:
    """Images layout polygons under a process condition."""

    def __init__(
        self,
        settings: LithoSettings,
        resist: Optional[ResistModel] = None,
        ambit: float = DEFAULT_AMBIT,
        max_tile_px: int = 512,
    ):
        self.settings = settings
        self.optics = OpticalModel(settings)
        self.resist = resist or ResistModel.from_settings(settings)
        self.ambit = ambit
        self.max_tile_px = max_tile_px

    @staticmethod
    def for_tech(tech: Technology, **kwargs) -> "LithographySimulator":
        return LithographySimulator(tech.litho, **kwargs)

    # -- single-window simulation ---------------------------------------------

    def latent_image(
        self,
        polygons: Sequence[Polygon],
        region: Rect,
        condition: ProcessCondition = NOMINAL,
        method: str = "socs",
    ) -> AerialImage:
        """Latent (diffused, dose-scaled) image over ``region`` plus ambit.

        The returned image covers the *expanded* window; sampling inside
        ``region`` is guaranteed free of FFT wrap-around artifacts.  Window
        dimensions are rounded up to a multiple of 64 pixels so repeated
        calls share cached SOCS kernels.
        """
        window = self._quantized_window(region)
        mask = rasterize(polygons, window, self.settings.pixel_nm)
        aerial = self.optics.aerial_image(
            mask,
            defocus_nm=condition.defocus_nm,
            method=method,
            feature=self.feature_amplitude,
        )
        return self.resist.latent_image(aerial, dose=condition.dose)

    @property
    def feature_amplitude(self) -> complex:
        """Mask amplitude inside drawn features.

        Binary chrome is opaque (0); an attenuated PSM absorber leaks a
        small, 180-degree-shifted field (-sqrt(T)) that steepens the image
        slope at feature edges.
        """
        if self.settings.mask_type == "binary":
            return 0.0
        if self.settings.mask_type == "attpsm":
            return -(self.settings.psm_transmission ** 0.5)
        raise ValueError(f"unknown mask_type {self.settings.mask_type!r}")

    def _quantized_window(self, region: Rect, quantum_px: int = 64) -> Rect:
        """Region plus ambit, grown (symmetrically) to a pixel-count multiple
        of ``quantum_px`` so the SOCS kernel cache is reused across calls."""
        pixel = self.settings.pixel_nm
        window = region.expanded(self.ambit)
        nx = int(-(-window.width // (quantum_px * pixel))) * quantum_px
        ny = int(-(-window.height // (quantum_px * pixel))) * quantum_px
        grow_x = (nx * pixel - window.width) / 2
        grow_y = (ny * pixel - window.height) / 2
        return Rect(
            window.x0 - grow_x, window.y0 - grow_y,
            window.x1 + grow_x, window.y1 + grow_y,
        )

    def printed_contours(
        self,
        polygons: Sequence[Polygon],
        region: Rect,
        condition: ProcessCondition = NOMINAL,
    ) -> List[Polygon]:
        """Printed resist contours whose bbox intersects ``region``."""
        latent = self.latent_image(polygons, region, condition)
        contours = contours_of_latent(latent, self.resist.threshold)
        return [c for c in contours if c.bbox.intersection(region) is not None]

    # -- calibration --------------------------------------------------------------

    def calibrate_to_anchor(
        self,
        line_width: Nanometers,
        pitch: Nanometers,
        n_lines: int = 7,
        condition: ProcessCondition = NOMINAL,
    ) -> Dimensionless:
        """Re-anchor the resist threshold so the anchor grating prints on
        target.

        Production CTR models are calibrated so that a chosen anchor feature
        (here: a dense line of the gate layer) prints at its drawn CD at the
        nominal condition.  Returns the new threshold (and installs it).
        """
        # Build one exact period count so the FFT wrap-around continues the
        # grating seamlessly: the anchor is a truly infinite dense grating.
        pixel = self.settings.pixel_nm
        half_lines = max(n_lines // 2, 3)
        window = Rect(
            -(half_lines + 0.5) * pitch, -(half_lines + 0.5) * pitch,
            (half_lines + 0.5) * pitch, (half_lines + 0.5) * pitch,
        )
        lines = [
            Polygon.from_rect(
                Rect(i * pitch - line_width / 2, window.y0,
                     i * pitch + line_width / 2, window.y1)
            )
            for i in range(-half_lines, half_lines + 1)
        ]
        mask = rasterize(lines, window, pixel)
        aerial = self.optics.aerial_image(
            mask, defocus_nm=condition.defocus_nm, feature=self.feature_amplitude
        )
        latent = self.resist.latent_image(aerial, dose=condition.dose)
        edge = latent.value_at(line_width / 2, 0.0)
        if not 0.0 < edge < 1.0:
            raise RuntimeError(f"anchor edge intensity {edge} outside (0, 1)")
        self.resist = ResistModel(
            threshold=edge,
            diffusion_nm=self.resist.diffusion_nm,
            dark_feature=self.resist.dark_feature,
        )
        return edge


def cd_through_pitch(
    simulator: LithographySimulator,
    line_width: float,
    pitches: Sequence[float],
    condition: ProcessCondition = NOMINAL,
    n_lines: int = 7,
) -> List[Tuple[float, float]]:
    """Printed CD of the center line of a grating, versus pitch.

    The classic proximity signature: iso-dense bias through pitch.
    Returns (pitch, printed CD) pairs measured on a horizontal cutline.
    """
    results = []
    for pitch in pitches:
        length = 8 * max(pitches)
        lines = [
            Polygon.from_rect(
                Rect(i * pitch - line_width / 2, -length / 2,
                     i * pitch + line_width / 2, length / 2)
            )
            for i in range(-(n_lines // 2), n_lines // 2 + 1)
        ]
        region = Rect(-pitch / 2, -200, pitch / 2, 200)
        latent = simulator.latent_image(lines, region, condition)
        cd = measure_cd_on_cutline(
            latent, simulator.resist.threshold,
            x_start=-pitch / 2, x_end=pitch / 2, y=0.0,
        )
        results.append((pitch, cd))
    return results


def measure_cd_on_cutline(
    latent: AerialImage,
    threshold: Dimensionless,
    x_start: Nanometers,
    x_end: Nanometers,
    y: Nanometers,
    samples: int = 256,
) -> Nanometers:
    """Width of the below-threshold (dark feature) span on a horizontal
    cutline, located with linear sub-sample interpolation.

    Returns 0.0 if the feature does not print (no below-threshold span).
    """
    positions, values = latent.profile(x_start, y, x_end, y, samples)
    below = values < threshold
    if not below.any():
        return 0.0
    first = int(below.argmax())
    last = len(below) - 1 - int(below[::-1].argmax())
    left = positions[first]
    if first > 0:
        v0, v1 = values[first - 1], values[first]
        t = (threshold - v0) / (v1 - v0)
        left = positions[first - 1] + t * (positions[first] - positions[first - 1])
    right = positions[last]
    if last < len(positions) - 1:
        v0, v1 = values[last], values[last + 1]
        t = (threshold - v0) / (v1 - v0)
        right = positions[last] + t * (positions[last + 1] - positions[last])
    return float(right - left)
