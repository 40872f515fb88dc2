"""Tests for the Abbe and SOCS imaging engines."""

import dataclasses

import numpy as np
import pytest

from repro.geometry import Polygon, Rect
from repro.litho import AerialImage, OpticalModel, rasterize
from repro.pdk import LithoSettings


@pytest.fixture(scope="module")
def settings():
    # A lighter source grid keeps the Abbe reference fast in tests.
    return dataclasses.replace(LithoSettings(), source_grid=7)


@pytest.fixture(scope="module")
def model(settings):
    return OpticalModel(settings)


@pytest.fixture(scope="module")
def line_mask():
    line = Polygon.from_rect(Rect(-45, -400, 45, 400))
    return rasterize([line], Rect(-500, -500, 500, 500), 8.0)


class TestNormalization:
    def test_clear_field_socs(self, model):
        mask = rasterize([], Rect(0, 0, 400, 400), 8.0)
        image = model.aerial_image(mask, method="socs")
        assert image.intensity == pytest.approx(np.ones_like(image.intensity), abs=1e-9)

    def test_clear_field_abbe(self, model):
        mask = rasterize([], Rect(0, 0, 400, 400), 8.0)
        image = model.aerial_image(mask, method="abbe")
        assert image.intensity == pytest.approx(np.ones_like(image.intensity), abs=1e-9)

    def test_opaque_field_is_dark(self, model):
        mask = rasterize([Polygon.from_rect(Rect(-100, -100, 500, 500))],
                         Rect(0, 0, 400, 400), 8.0)
        image = model.aerial_image(mask)
        assert image.intensity.max() < 1e-6


class TestAbbeVsSocs:
    def test_agreement_in_focus(self, model, line_mask):
        abbe = model.aerial_image(line_mask, method="abbe")
        socs = model.aerial_image(line_mask, method="socs")
        assert np.abs(abbe.intensity - socs.intensity).max() < 5e-3

    def test_agreement_with_defocus(self, model, line_mask):
        abbe = model.aerial_image(line_mask, method="abbe", defocus_nm=150.0)
        socs = model.aerial_image(line_mask, method="socs", defocus_nm=150.0)
        assert np.abs(abbe.intensity - socs.intensity).max() < 5e-3

    def test_unknown_method_rejected(self, model, line_mask):
        with pytest.raises(ValueError):
            model.aerial_image(line_mask, method="kirchhoff")


class TestImageStructure:
    def test_line_creates_dark_channel(self, model, line_mask):
        image = model.aerial_image(line_mask)
        center = image.value_at(0.0, 0.0)
        far = image.value_at(420.0, 0.0)
        assert center < 0.3
        assert far > 0.7

    def test_symmetric_mask_symmetric_image(self, model, line_mask):
        image = model.aerial_image(line_mask)
        left = image.value_at(-120.0, 0.0)
        right = image.value_at(120.0, 0.0)
        assert left == pytest.approx(right, rel=1e-3)

    def test_defocus_degrades_contrast(self, model, line_mask):
        focus = model.aerial_image(line_mask)
        blur = model.aerial_image(line_mask, defocus_nm=250.0)
        contrast_f = focus.value_at(160, 0) - focus.value_at(0, 0)
        contrast_b = blur.value_at(160, 0) - blur.value_at(0, 0)
        assert contrast_b < contrast_f

    def test_corner_rounding_lowers_corner_contrast(self, model):
        square = Polygon.from_rect(Rect(-150, -150, 150, 150))
        mask = rasterize([square], Rect(-400, -400, 400, 400), 8.0)
        image = model.aerial_image(mask)
        edge_mid = image.value_at(150.0, 0.0)
        corner = image.value_at(150.0, 150.0)
        # The image at a convex corner is brighter than at an edge midpoint:
        # less chrome nearby, i.e. the printed shape pulls back (rounds).
        assert corner > edge_mid

    def test_kernel_count_bounded(self, model, line_mask):
        count = model.kernel_count(line_mask.nx, line_mask.ny, line_mask.pixel)
        assert 1 <= count <= model.max_kernels

    def test_kernel_cache_hit(self, model, line_mask):
        model.aerial_image(line_mask)
        cache_size = len(model._kernel_cache)
        model.aerial_image(line_mask)
        assert len(model._kernel_cache) == cache_size


def dense_socs(model, transmission, pixel, defocus_nm):
    """The full-grid SOCS loop: one dense ``ifft2`` per kernel (the oracle)."""
    ny, nx = transmission.shape
    eigvals, support, vectors = model._kernels(nx, ny, pixel, defocus_nm)[:3]
    masked_spectrum = np.fft.fft2(transmission)[support]
    intensity = np.zeros((ny, nx))
    kernel_grid = np.zeros((ny, nx), dtype=complex)
    for value, vec in zip(eigvals, vectors):
        kernel_grid[:] = 0.0
        kernel_grid[support] = masked_spectrum * vec
        field = np.fft.ifft2(kernel_grid)
        intensity += value * np.abs(field) ** 2
    return intensity


def random_manhattan_mask(n_px, seed, pixel=8.0, n_shapes=40, n_rows=None):
    """Seeded lines, pads and L-shapes scattered over an ``n_px`` wide,
    ``n_rows`` (default ``n_px``) high window."""
    rng = np.random.default_rng(seed)
    width = n_px * pixel
    height = (n_rows or n_px) * pixel
    polygons = []
    for _ in range(n_shapes):
        x = rng.uniform(-200.0, width - 100.0)
        y = rng.uniform(-200.0, height - 100.0)
        w, h = rng.uniform(40.0, 600.0, 2)
        if rng.random() < 0.3:
            arm = rng.uniform(20.0, min(w, h))
            polygons.append(Polygon.from_xy([
                (x, y), (x + w, y), (x + w, y + arm), (x + arm, y + arm),
                (x + arm, y + h), (x, y + h),
            ]))
        else:
            polygons.append(Polygon.from_rect(Rect(x, y, x + w, y + h)))
    return rasterize(polygons, Rect(0.0, 0.0, width, height), pixel)


#: Coarse-grid SOCS vs the dense per-kernel ``ifft2`` loop: the two differ
#: only by FFT rounding (measured <= 3.6e-15 on unit-clear-field images).
DENSE_BOUND = 1e-12


class TestSocsExactness:
    """Coarse-grid SOCS plus one Fourier upsample matches the dense loop."""

    @staticmethod
    def assert_matches_dense(model, mask, defocus_nm, feature=0.0):
        transmission = mask.transmission(feature=feature)
        coarse = model._socs(transmission, mask.pixel, defocus_nm)
        dense = dense_socs(model, transmission, mask.pixel, defocus_nm)
        assert coarse.shape == dense.shape and coarse.flags.c_contiguous
        error = np.abs(coarse - dense).max()
        assert error <= DENSE_BOUND, (mask.data.shape, defocus_nm, feature, error)

    @pytest.mark.parametrize("n_px", [512, 576, 1024])
    def test_matches_dense_loop(self, model, n_px):
        mask = random_manhattan_mask(n_px, seed=n_px)
        attpsm = -(0.06 ** 0.5)
        for defocus_nm in (0.0, 150.0):
            for feature in (0.0, attpsm):
                self.assert_matches_dense(model, mask, defocus_nm, feature)

    def test_non_square_window(self, model):
        mask = random_manhattan_mask(512, seed=5, n_rows=320)
        assert model._kernels(512, 320, mask.pixel, 0.0)[3].shape == (64, 108)
        self.assert_matches_dense(model, mask, 0.0)
        clear = rasterize([], Rect(0.0, 0.0, 512 * 8.0, 320 * 8.0), 8.0)
        image = model._socs(clear.transmission(), 8.0, 0.0)
        assert np.abs(image - 1.0).max() <= 1e-15

    def test_capped_axes_skip_the_upsample(self, model):
        # At 48 nm/px the support reaches k_max = 19 bins: 4 * 19 + 2 > 64,
        # so both axes keep the full grid and the image is the dense loop's.
        plan = model._kernels(64, 64, 48.0, 0.0)[3]
        assert plan.shape == (64, 64)
        mask = random_manhattan_mask(64, seed=2, pixel=48.0)
        self.assert_matches_dense(model, mask, 0.0)
        self.assert_matches_dense(model, mask, 150.0, feature=-(0.06 ** 0.5))

    @pytest.mark.parametrize("shape, pixel", [((512, 512), 8.0), ((320, 512), 8.0),
                                              ((1024, 1024), 8.0), ((77, 33), 30.0)],
                             ids=["512x512", "320x512", "1024x1024", "77x33"])
    def test_coarse_plan(self, model, shape, pixel):
        ny, nx = shape
        _, support, _, plan = model._kernels(nx, ny, pixel, 0.0)
        for axis, n in enumerate(shape):
            m = plan.shape[axis]
            bins = support[axis]
            signed = np.where(bins > n // 2, bins - n, bins)
            k_max = np.abs(signed).max()
            rest = m
            for prime in (2, 3, 5):
                while rest % prime == 0:
                    rest //= prime
            assert rest == 1 and 4 * k_max + 2 <= m <= n
            if m < n:
                # no alias: the intensity band +-2 k_max stays below m/2
                assert 2 * k_max < m / 2
            # each coarse index is its support entry's signed bin, mod m
            coarse = plan.index[axis]
            assert np.all((0 <= coarse) & (coarse < m))
            assert np.array_equal(np.where(coarse > m // 2, coarse - m, coarse), signed)


class TestAbbeOracle:
    """SOCS at full rank against the independent Abbe sum over source points."""

    @pytest.fixture(scope="class")
    def full_rank_model(self):
        return OpticalModel(LithoSettings(), max_kernels=40, energy_cutoff=1.0)

    # 40 kernels span the TCC's full rank (40 source points), so at 192 px
    # only rounding remains.  At 320 px the anti-aliased pupil edge reaches
    # half a grid cell past the SOCS support, which Abbe images and SOCS
    # drops: seeds 1-7 and 320 measure 0.9-1.9e-4 (seed 320: 1.89e-4, above the
    # 1.7e-4 of A1's 512 px cell mask), so the bound is 2.5e-4.
    @pytest.mark.parametrize("n_px, bound", [(192, 1e-12), (320, 2.5e-4)])
    def test_socs_matches_abbe(self, full_rank_model, n_px, bound):
        mask = random_manhattan_mask(n_px, seed=n_px)
        for defocus_nm in (0.0, 150.0):
            abbe = full_rank_model.aerial_image(mask, defocus_nm, method="abbe")
            socs = full_rank_model.aerial_image(mask, defocus_nm)
            error = np.abs(abbe.intensity - socs.intensity).max()
            assert error <= bound, (n_px, defocus_nm, error)


class TestValueAtAndProfile:
    def test_value_at_matches_grid(self, model, line_mask):
        image = model.aerial_image(line_mask)
        xs, ys = line_mask.pixel_centers()
        assert image.value_at(xs[3], ys[5]) == pytest.approx(image.intensity[5, 3])

    def test_value_at_clamps_outside(self, model, line_mask):
        image = model.aerial_image(line_mask)
        assert image.value_at(-10000, -10000) == pytest.approx(image.intensity[0, 0])

    def test_value_at_matches_values_at_on_borders(self):
        rng = np.random.default_rng(4)
        image = AerialImage(100.0, -50.0, 8.0, rng.random((5, 4)))
        x0, y0 = image.x0, image.y0
        x1, y1 = x0 + image.nx * image.pixel, y0 + image.ny * image.pixel
        ts = np.linspace(-0.5, 1.5, 33)
        xs = x0 + ts * (x1 - x0)
        ys = y0 + ts * (y1 - y0)
        points = [(x, y) for x in xs for y in (y0, y0 + 3.0, y1 - 3.0, y1)]
        points += [(x, y) for y in ys for x in (x0, x0 + 3.0, x1 - 3.0, x1)]
        points += [(x0 - 500.0, y0 - 500.0), (x1 + 500.0, y1 + 500.0),
                   (x0 - 500.0, y1 + 500.0), (x1 + 500.0, y0 - 500.0)]
        px, py = np.array(points).T
        expected = image.values_at(px, py)
        got = np.array([image.value_at(x, y) for x, y in points])
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_value_at_lower_left_corner_is_first_pixel(self):
        image = AerialImage(0.0, 0.0, 8.0, np.arange(16.0).reshape(4, 4))
        assert image.value_at(3.0, 3.0) == 0.0
        assert image.values_at(np.array([3.0]), np.array([3.0]))[0] == 0.0

    def test_profile_shape_and_length(self, model, line_mask):
        image = model.aerial_image(line_mask)
        distances, values = image.profile(-200, 0, 200, 0, samples=41)
        assert len(distances) == len(values) == 41
        assert distances[-1] == pytest.approx(400.0)
        assert values.min() < 0.3  # crosses the dark line
