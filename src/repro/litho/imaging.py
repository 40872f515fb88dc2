"""Partially-coherent aerial-image computation.

Two engines compute the same Hopkins integral:

* **Abbe** (sum over source): one coherent image per source point.  Exact
  for the discretized source; used as the reference in tests.
* **SOCS** (sum of coherent systems): the transmission cross coefficients
  are assembled on the band-limited frequency support, eigendecomposed
  once per (grid, defocus) and cached.  This is the production path,
  exactly as in the OPC tools of the paper's era.

Each SOCS kernel's field is band-limited to the pupil support (+-k_max
bins, 25 at 512 px and 8 nm/px), so the intensity is band-limited to
+-2 k_max.  An aerial image therefore costs one forward FFT of the mask,
one inverse FFT per retained kernel on a coarse grid of m >= 4 k_max + 2
samples per axis (108 x 108 for a 512 px window, 216 x 216 at 1024 px),
and one Fourier upsample of the summed coarse intensity to the full grid.
Where the support is too wide for a smaller grid (coarse pixels), the axis
keeps all n bins and is not resampled.  The image equals a dense per-kernel
``ifft2`` on the full grid up to FFT rounding (<= 4e-15 on unit-clear-field
images; tests bound it at 1e-12) and is 12-15x faster than it at 512-1024
px; it is not bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.fft import next_fast_len

from repro.litho.pupil import Pupil
from repro.litho.raster import MaskGrid
from repro.litho.source import SourcePoint, make_source
from repro.pdk import LithoSettings
from repro.units import Dimensionless, Nanometers, NmPerPixel


@dataclass
class AerialImage:
    """Sampled image intensity over a simulation window (clear field = 1)."""

    x0: Nanometers
    y0: Nanometers
    pixel: NmPerPixel
    intensity: np.ndarray  # (ny, nx)

    @property
    def nx(self) -> int:
        return self.intensity.shape[1]

    @property
    def ny(self) -> int:
        return self.intensity.shape[0]

    def value_at(self, x: Nanometers, y: Nanometers) -> Dimensionless:
        """Bilinear interpolation at an arbitrary point (pixel centers)."""
        # Clamp the grid coordinate first (edge pixels extend outwards, as
        # ``mode="nearest"`` does in ``values_at``), then split it.
        gx = min(max((x - self.x0) / self.pixel - 0.5, 0.0), self.nx - 1.0)
        gy = min(max((y - self.y0) / self.pixel - 0.5, 0.0), self.ny - 1.0)
        i0 = int(np.floor(gx))
        j0 = int(np.floor(gy))
        tx = gx - i0
        ty = gy - j0
        i1 = min(i0 + 1, self.nx - 1)
        j1 = min(j0 + 1, self.ny - 1)
        inten = self.intensity
        top = inten[j1, i0] * (1 - tx) + inten[j1, i1] * tx
        bottom = inten[j0, i0] * (1 - tx) + inten[j0, i1] * tx
        return float(bottom * (1 - ty) + top * ty)

    def values_at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized bilinear interpolation (same convention as value_at)."""
        from scipy import ndimage

        cols = np.asarray(xs, dtype=float)
        rows = np.asarray(ys, dtype=float)
        coords = np.stack(
            [(rows - self.y0) / self.pixel - 0.5, (cols - self.x0) / self.pixel - 0.5]
        )
        return ndimage.map_coordinates(
            self.intensity, coords.reshape(2, -1), order=1, mode="nearest"
        ).reshape(np.shape(xs))

    def profile(
        self,
        x_start: Nanometers,
        y_start: Nanometers,
        x_end: Nanometers,
        y_end: Nanometers,
        samples: int = 64,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Intensity along a cutline; returns (distances, intensities)."""
        ts = np.linspace(0.0, 1.0, samples)
        xs = x_start + ts * (x_end - x_start)
        ys = y_start + ts * (y_end - y_start)
        values = self.values_at(xs, ys)
        length = float(np.hypot(x_end - x_start, y_end - y_start))
        return ts * length, values


class CoarsePlan(NamedTuple):
    """Where one window geometry's SOCS fields are computed.

    ``shape`` is the coarse (m_y, m_x) grid and ``index`` the coarse
    (row, col) of each support entry.  ``src`` picks the coarse image's
    half-spectrum bins that carry the intensity band and ``dst`` places
    them in the full grid's half-spectrum.
    """

    shape: Tuple[int, int]
    index: Tuple[np.ndarray, np.ndarray]
    src: Tuple[np.ndarray, slice]
    dst: Tuple[np.ndarray, slice]


def _axis_plan(bins: np.ndarray, n: int) -> Tuple[int, np.ndarray, Optional[int]]:
    """Coarse size, coarse index of each support bin, and the intensity
    band half-width along one axis (None when the axis keeps all n bins)."""
    signed = np.where(bins > n // 2, bins - n, bins)
    k_max = int(np.abs(signed).max())
    m = next_fast_len(4 * k_max + 2, real=True)
    if m >= n:
        return n, bins, None
    # |field|^2 spans +-2 k_max bins; below m/2 the coarse samples cannot alias.
    assert 2 * k_max < m / 2, (k_max, m)
    return m, signed % m, 2 * k_max


def coarse_plan(support: Tuple[np.ndarray, np.ndarray], ny: int, nx: int) -> CoarsePlan:
    """Per axis, the smallest 2-3-5-smooth grid m >= 4 k_max + 2 (capped at
    the window size) on which the SOCS intensity is exactly sampled."""
    my, rows, band_y = _axis_plan(support[0], ny)
    mx, cols, band_x = _axis_plan(support[1], nx)
    if band_y is None:
        src_rows = dst_rows = np.arange(ny)
    else:
        signed = np.arange(-band_y, band_y + 1)
        src_rows, dst_rows = signed % my, signed % ny
    width = slice(0, nx // 2 + 1 if band_x is None else band_x + 1)
    return CoarsePlan((my, mx), (rows, cols), (src_rows, width), (dst_rows, width))


class OpticalModel:
    """The imaging engine for one optical setup (source + lens)."""

    def __init__(
        self,
        settings: LithoSettings,
        zernike: Optional[Dict[str, float]] = None,
        max_kernels: int = 40,
        energy_cutoff: float = 0.998,
    ):
        self.settings = settings
        self.zernike = dict(zernike or {})
        self.max_kernels = max_kernels
        self.energy_cutoff = energy_cutoff
        self.source: List[SourcePoint] = make_source(settings)
        self._kernel_cache: Dict[tuple, tuple] = {}

    def __getstate__(self):
        """Pickle without the SOCS kernel cache.

        The cache is pure derived data and can be tens of megabytes;
        dropping it keeps worker dispatch cheap — each parallel worker
        rebuilds the kernels for its tile geometry exactly once.
        """
        state = self.__dict__.copy()
        state["_kernel_cache"] = {}
        return state

    # -- public API ----------------------------------------------------------

    def aerial_image(
        self,
        mask: MaskGrid,
        defocus_nm: float = 0.0,
        method: str = "socs",
        background: complex = 1.0,
        feature: complex = 0.0,
    ) -> AerialImage:
        """Image the ``mask`` grid (clear-field normalized to 1.0)."""
        transmission = mask.transmission(background=background, feature=feature)
        if method == "abbe":
            intensity = self._abbe(transmission, mask.pixel, defocus_nm)
        elif method == "socs":
            intensity = self._socs(transmission, mask.pixel, defocus_nm)
        else:
            raise ValueError(f"unknown imaging method {method!r}")
        return AerialImage(mask.x0, mask.y0, mask.pixel, intensity)

    def kernel_count(self, nx: int, ny: int, pixel: float, defocus_nm: float = 0.0) -> int:
        """Number of SOCS kernels retained for a grid (diagnostics)."""
        eigvals = self._kernels(nx, ny, pixel, defocus_nm)[0]
        return len(eigvals)

    # -- Abbe path -------------------------------------------------------------

    def _abbe(self, transmission: np.ndarray, pixel: float, defocus_nm: float) -> np.ndarray:
        ny, nx = transmission.shape
        fx = np.fft.fftfreq(nx, d=pixel)
        fy = np.fft.fftfreq(ny, d=pixel)
        fxg, fyg = np.meshgrid(fx, fy)
        pupil = Pupil(self.settings, defocus_nm, self.zernike)
        sigma_to_f = self.settings.numerical_aperture / self.settings.wavelength
        edge_width = self._pupil_edge_width(nx, ny, pixel)
        spectrum = np.fft.fft2(transmission)
        intensity = np.zeros((ny, nx))
        clear = 0.0
        for point in self.source:
            shifted = pupil.evaluate(
                fxg - point.sx * sigma_to_f, fyg - point.sy * sigma_to_f,
                edge_width=edge_width,
            )
            field = np.fft.ifft2(spectrum * shifted)
            intensity += point.weight * np.abs(field) ** 2
            clear += point.weight * abs(
                pupil.evaluate(
                    np.array([-point.sx * sigma_to_f]),
                    np.array([-point.sy * sigma_to_f]),
                    edge_width=edge_width,
                )[0]
            ) ** 2
        return intensity / clear

    def _pupil_edge_width(self, nx: int, ny: int, pixel: float) -> float:
        """Anti-aliasing span for the pupil cutoff: one frequency-grid cell,
        clamped so coarse grids (tiny windows) keep a physical pupil."""
        df = max(1.0 / (nx * pixel), 1.0 / (ny * pixel))
        f_max = self.settings.numerical_aperture / self.settings.wavelength
        return min(df, 0.12 * f_max)

    # -- SOCS path -------------------------------------------------------------

    def _socs(self, transmission: np.ndarray, pixel: float, defocus_nm: float) -> np.ndarray:
        ny, nx = transmission.shape
        eigvals, support, vectors, plan = self._kernels(nx, ny, pixel, defocus_nm)
        masked_spectrum = np.fft.fft2(transmission)[support]
        # Each kernel's field is band-limited to the support, so its
        # intensity is sampled without aliasing on the coarse grid.
        my, mx = plan.shape
        grid = np.zeros(plan.shape, dtype=complex)
        coarse = np.zeros(plan.shape)
        for value, vec in zip(eigvals, vectors):
            grid[plan.index] = masked_spectrum * vec
            coarse += value * np.abs(np.fft.ifft2(grid)) ** 2
        coarse *= (my * mx / (ny * nx)) ** 2
        if plan.shape == (ny, nx):
            return coarse
        # One Fourier upsample: the coarse image's band, zero-padded into
        # the full grid's half-spectrum (the intensity is real).
        half = np.zeros((ny, nx // 2 + 1), dtype=complex)
        half[plan.dst] = np.fft.rfft2(coarse)[plan.src]
        image = np.fft.irfft2(half, s=(ny, nx))
        image *= ny * nx / (my * mx)
        return image

    def _kernels(self, nx: int, ny: int, pixel: float, defocus_nm: float):
        """Cached TCC eigen-kernels for a grid geometry.

        Returns (eigvals, support_index_tuple, list_of_eigvecs,
        coarse_plan): see :func:`coarse_plan`.  The clear field of the
        truncated kernel set is renormalized to exactly 1.
        """
        key = (nx, ny, round(pixel, 9), round(defocus_nm, 6),
               tuple(sorted(self.zernike.items())))
        if key in self._kernel_cache:
            return self._kernel_cache[key]

        fx = np.fft.fftfreq(nx, d=pixel)
        fy = np.fft.fftfreq(ny, d=pixel)
        fxg, fyg = np.meshgrid(fx, fy)
        sigma_to_f = self.settings.numerical_aperture / self.settings.wavelength
        f_support = (1.0 + self.settings.sigma_outer) * sigma_to_f * 1.0001
        support = np.nonzero(fxg * fxg + fyg * fyg <= f_support * f_support)
        sup_fx = fxg[support]
        sup_fy = fyg[support]
        n_sup = sup_fx.size

        pupil = Pupil(self.settings, defocus_nm, self.zernike)
        edge_width = self._pupil_edge_width(nx, ny, pixel)
        # Rows are conjugated so that (A^H A)[m, n] = sum_s w P(f_m - s) P*(f_n - s),
        # the Hopkins TCC orientation whose eigenvectors are the SOCS kernels.
        amplitudes = np.empty((len(self.source), n_sup), dtype=complex)
        for row, point in enumerate(self.source):
            amplitudes[row] = np.sqrt(point.weight) * np.conj(
                pupil.evaluate(sup_fx - point.sx * sigma_to_f, sup_fy - point.sy * sigma_to_f,
                               edge_width=edge_width)
            )
        # The TCC = A^H A has rank <= n_source_points, so its eigenpairs come
        # from the SVD of the small A matrix (n_src x n_sup) directly — far
        # cheaper than eigendecomposing the n_sup x n_sup TCC itself.
        _, singular, vh = np.linalg.svd(amplitudes, full_matrices=False)
        eigvals = singular ** 2
        total = eigvals.sum()
        keep = 1
        running = eigvals[0]
        while keep < min(self.max_kernels, len(eigvals)) and running < self.energy_cutoff * total:
            running += eigvals[keep]
            keep += 1

        kept_vals = eigvals[:keep]
        kept_vecs = [np.conj(vh[k]) for k in range(keep)]

        # Renormalize so a clear mask images to exactly 1.0 despite truncation.
        zero_index = np.nonzero((sup_fx == 0.0) & (sup_fy == 0.0))[0]
        clear = sum(
            val * abs(vec[zero_index[0]]) ** 2 for val, vec in zip(kept_vals, kept_vecs)
        ) if zero_index.size else 1.0
        if clear <= 0:
            raise RuntimeError("SOCS truncation lost the DC response")
        kept_vals = kept_vals / clear

        result = (kept_vals, support, kept_vecs, coarse_plan(support, ny, nx))
        self._kernel_cache[key] = result
        return result
