"""Deliberate array-numerics violations — the numerics-rule corpus.

``dtype-drift`` (float32 meeting float64, complex hitting an ordering),
``silent-broadcast`` (independent 1-D axis lengths combined
elementwise), and ``python-loop-over-ndarray`` does NOT apply here (it
is scoped to timing/metrology/variation — see ``numerics_loops.py`` in
``repro/metrology/``).  Never imported — lint fodder only.
"""

import numpy as np


def mixed_precision(nx: int) -> np.ndarray:
    low = np.zeros(nx, dtype=np.float32)
    high = np.linspace(0.0, 1.0, nx)
    return low + high  # f32 meets f64 -> dtype-drift


def complex_threshold(mask: np.ndarray) -> bool:
    field = np.fft.fft2(mask)
    return field < 0.5  # ordering a complex value -> dtype-drift


def complex_ordering(mask: np.ndarray) -> float:
    spectrum = np.fft.fft2(mask)
    return max(spectrum)  # max() over complex -> dtype-drift


def crossed_axes(nx: int, ny: int, pixel: float) -> np.ndarray:
    fx = np.fft.fftfreq(nx, d=pixel)
    fy = np.fft.fftfreq(ny, d=pixel)
    return fx * fy  # nx-length times ny-length -> silent-broadcast


def safe_grid(nx: int, ny: int, pixel: float) -> np.ndarray:
    # the correct spelling: meshgrid clears the 1-D axis tags (no finding)
    fx = np.fft.fftfreq(nx, d=pixel)
    fy = np.fft.fftfreq(ny, d=pixel)
    fxg, fyg = np.meshgrid(fx, fy)
    return fxg * fxg + fyg * fyg


def crossed_axes_loop(nx: int, ny: int) -> np.ndarray:
    total = np.zeros(1)
    for v in np.fft.fftfreq(nx) + np.fft.fftfreq(ny):  # -> silent-broadcast
        total += v
    return total


def crossed_axes_accumulate(nx: int, ny: int) -> np.ndarray:
    total = np.zeros(1)
    total += np.fft.fftfreq(nx) * np.fft.fftfreq(ny)  # -> silent-broadcast
    return total
