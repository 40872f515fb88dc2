"""Layer micro-benchmark: mask rasterization and SOCS aerial imaging.

The two litho layers that dominate a model-OPC flow, timed on fixed,
seeded inputs at the window sizes the flow uses (512 px tiles, 1024 px
shards), next to the dense formulation each layer used to run:

* **rasterize** adds each rectangle's coverage product only into its own
  pixel span; the dense reference adds a full-grid ``np.outer`` per
  rectangle.
* **aerial_image** (SOCS) images each kernel on a coarse grid sized to
  the band and Fourier-upsamples the summed intensity once; the dense
  reference scatters each kernel into a full grid and runs one ``ifft2``
  per kernel.

The run asserts that rasterize matches its reference bit for bit and that
the aerial image stays within ``AERIAL_BOUND`` of its reference.  It also
records one cold c17 model-OPC flow wall (fresh flow, fresh kernel cache).

    PYTHONPATH=src python benchmarks/bench_litho_layers.py \\
        --out BENCH_litho_layers.json
    PYTHONPATH=src python benchmarks/bench_litho_layers.py --smoke \\
        --out /tmp/bench_litho_layers.json

Times are best-of-``--repeats`` wall clock on a shared machine, so they
are indicative; the pytest entry asserts the accuracy checks only, never a
time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells import build_library
from repro.circuits import c17
from repro.flow import FlowConfig, PostOpcTimingFlow
from repro.geometry import Polygon, Rect, decompose_rectilinear
from repro.litho import MaskGrid, OpticalModel, rasterize
from repro.pdk import make_tech_90nm

PIXEL_NM = 8.0
#: max |coarse-grid SOCS - dense per-kernel ifft2| on unit-clear-field images
AERIAL_BOUND = 1e-12


def seeded_polygons(n_px: int, seed: int) -> List[Polygon]:
    """Poly-like Manhattan shapes over an ``n_px`` window: vertical gate
    lines on a pitch, horizontal straps and L-shaped jogs."""
    rng = np.random.default_rng(seed)
    size = n_px * PIXEL_NM
    polygons = []
    for x in np.arange(100.0, size - 100.0, 250.0):
        y = rng.uniform(-100.0, size / 2)
        width = rng.choice([90.0, 90.0, 131.0])
        polygons.append(Polygon.from_rect(Rect(x, y, x + width, y + rng.uniform(400.0, size / 2))))
    for _ in range(n_px // 16):
        x, y = rng.uniform(-100.0, size - 100.0, 2)
        length, arm = rng.uniform(200.0, 900.0), rng.uniform(90.0, 200.0)
        if rng.random() < 0.5:
            polygons.append(Polygon.from_rect(Rect(x, y, x + length, y + arm)))
        else:
            polygons.append(Polygon.from_xy([
                (x, y), (x + length, y), (x + length, y + arm), (x + arm, y + arm),
                (x + arm, y + length), (x, y + length),
            ]))
    return polygons


def dense_rasterize(polygons: Sequence[Polygon], region: Rect, pixel: float) -> np.ndarray:
    """Full-grid ``np.outer`` per rectangle, in the same rectangle order."""
    nx = max(1, int(np.ceil(region.width / pixel - 1e-9)))
    ny = max(1, int(np.ceil(region.height / pixel - 1e-9)))
    data = np.zeros((ny, nx))
    grid_region = Rect(region.x0, region.y0, region.x0 + nx * pixel, region.y0 + ny * pixel)
    for poly in polygons:
        if poly.bbox.intersection(region) is None:
            continue
        for rect in decompose_rectilinear(poly):
            clipped = rect.intersection(grid_region)
            if clipped is None or clipped.area == 0.0:
                continue
            cx = _dense_coverage(clipped.x0, clipped.x1, region.x0, pixel, nx)
            cy = _dense_coverage(clipped.y0, clipped.y1, region.y0, pixel, ny)
            data += np.outer(cy, cx)
    np.clip(data, 0.0, 1.0, out=data)
    return data


def _dense_coverage(a: float, b: float, start: float, pixel: float, n: int) -> np.ndarray:
    lo = (a - start) / pixel
    hi = (b - start) / pixel
    i0 = int(np.floor(lo))
    i1 = int(np.floor(hi))
    if i1 == hi and i1 > i0:
        i1 -= 1
    i0c, i1c = max(i0, 0), min(i1, n - 1)
    cov = np.zeros(n)
    if i0c > i1c:
        return cov
    if i0 == i1:
        cov[i0c] = hi - lo
        return cov
    cov[i0c:i1c + 1] = 1.0
    if i0 == i0c:
        cov[i0] = (i0 + 1) - lo
    if i1 == i1c:
        cov[i1] = hi - i1
    return cov


def dense_aerial(model: OpticalModel, mask: MaskGrid, defocus_nm: float = 0.0) -> np.ndarray:
    """One full-grid ``ifft2`` per SOCS kernel, accumulated in kernel order."""
    transmission = mask.transmission()
    ny, nx = transmission.shape
    eigvals, support, vectors = model._kernels(nx, ny, mask.pixel, defocus_nm)[:3]
    masked_spectrum = np.fft.fft2(transmission)[support]
    intensity = np.zeros((ny, nx))
    kernel_grid = np.zeros((ny, nx), dtype=complex)
    for value, vec in zip(eigvals, vectors):
        kernel_grid[:] = 0.0
        kernel_grid[support] = masked_spectrum * vec
        field = np.fft.ifft2(kernel_grid)
        intensity += value * np.abs(field) ** 2
    return intensity


def best_of(repeats: int, pair: Tuple[Callable[[], np.ndarray], Callable[[], np.ndarray]],
            bound: Optional[float] = None) -> Tuple[List[float], float]:
    """Best wall of each of two calls, interleaved with the first side
    alternating, and their max absolute difference; raises unless both
    return equal arrays (``bound`` None) or arrays within ``bound``."""
    best = [float("inf"), float("inf")]
    error = 0.0
    for rep in range(repeats):
        outputs = {}
        for side in ((0, 1) if rep % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            outputs[side] = pair[side]()
            best[side] = min(best[side], time.perf_counter() - start)
        error = max(error, float(np.abs(outputs[0] - outputs[1]).max()))
        if bound is None and not np.array_equal(outputs[0], outputs[1]):
            raise AssertionError("layer output differs from its dense reference")
        if bound is not None and error > bound:
            raise AssertionError(f"layer output is {error:.3g} from its dense reference")
    return best, error


def bench_size(model: OpticalModel, n_px: int, seed: int, repeats: int) -> Dict[str, object]:
    polygons = seeded_polygons(n_px, seed)
    region = Rect(0.0, 0.0, n_px * PIXEL_NM, n_px * PIXEL_NM)
    (raster_s, dense_raster_s), _ = best_of(repeats, (
        lambda: rasterize(polygons, region, PIXEL_NM).data,
        lambda: dense_rasterize(polygons, region, PIXEL_NM),
    ))
    mask = rasterize(polygons, region, PIXEL_NM)
    start = time.perf_counter()
    model.aerial_image(mask)  # builds and caches this geometry's kernels
    first_call_s = time.perf_counter() - start
    (aerial_s, dense_aerial_s), aerial_error = best_of(repeats, (
        lambda: model.aerial_image(mask).intensity,
        lambda: dense_aerial(model, mask),
    ), bound=AERIAL_BOUND)
    row = {
        "pixels": n_px,
        "rectangles": sum(len(decompose_rectilinear(p)) for p in polygons),
        "coverage_fraction": round(float(mask.data.mean()), 4),
        "kernels": model.kernel_count(n_px, n_px, PIXEL_NM),
        "rasterize_ms": round(raster_s * 1e3, 2),
        "rasterize_dense_reference_ms": round(dense_raster_s * 1e3, 2),
        "rasterize_speedup": round(dense_raster_s / raster_s, 2),
        "aerial_image_ms": round(aerial_s * 1e3, 2),
        "aerial_image_dense_reference_ms": round(dense_aerial_s * 1e3, 2),
        "aerial_image_speedup": round(dense_aerial_s / aerial_s, 2),
        "kernel_build_ms": round(max(first_call_s - aerial_s, 0.0) * 1e3, 2),
        "rasterize_bit_identical": True,
        "aerial_image_max_abs_error": aerial_error,
    }
    print(f"  {n_px} px: rasterize {row['rasterize_ms']} ms "
          f"(dense {row['rasterize_dense_reference_ms']}), aerial_image "
          f"{row['aerial_image_ms']} ms (dense {row['aerial_image_dense_reference_ms']})",
          flush=True)
    return row


def c17_cold_flow_s() -> float:
    """Wall of one c17 model-OPC flow with a fresh context and kernel cache."""
    tech = make_tech_90nm()
    library = build_library(tech)
    flow = PostOpcTimingFlow(c17(library), tech, cells=library)
    start = time.perf_counter()
    flow.run(FlowConfig(opc_mode="model", clock_period_ps=500.0))
    return time.perf_counter() - start


def measure(sizes: Sequence[int], repeats: int, seed: int, with_flow: bool) -> Dict[str, object]:
    model = OpticalModel(make_tech_90nm().litho)
    payload: Dict[str, object] = {
        "benchmark": "bench_litho_layers",
        "config": {
            "sizes_px": list(sizes),
            "pixel_nm": PIXEL_NM,
            "repeats": repeats,
            "seed": seed,
            "timing": "best-of-repeats wall clock; layer and dense reference interleaved, first side alternating",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        },
        "by_size": [bench_size(model, n, seed, repeats) for n in sizes],
    }
    if with_flow:
        payload["c17_model_opc_cold_flow_s"] = round(c17_cold_flow_s(), 2)
        print(f"  c17 model-OPC cold flow {payload['c17_model_opc_cold_flow_s']} s", flush=True)
    return payload


def test_litho_layers_match_dense_references():
    measure(sizes=[128, 192], repeats=1, seed=3, with_flow=False)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", type=int, nargs="+", default=[512, 1024])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="one repeat at 128 px (keeps the c17 flow)")
    parser.add_argument("--out", default="BENCH_litho_layers.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.sizes, args.repeats = [128], 1
    payload = measure(args.sizes, args.repeats, args.seed, with_flow=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
