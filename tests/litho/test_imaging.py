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


def random_manhattan_mask(n_px, seed, pixel=8.0, n_shapes=40):
    """Seeded lines, pads and L-shapes scattered over an ``n_px`` window."""
    rng = np.random.default_rng(seed)
    size = n_px * pixel
    polygons = []
    for _ in range(n_shapes):
        x, y = rng.uniform(-200.0, size - 100.0, 2)
        w, h = rng.uniform(40.0, 600.0, 2)
        if rng.random() < 0.3:
            arm = rng.uniform(20.0, min(w, h))
            polygons.append(Polygon.from_xy([
                (x, y), (x + w, y), (x + w, y + arm), (x + arm, y + arm),
                (x + arm, y + h), (x, y + h),
            ]))
        else:
            polygons.append(Polygon.from_rect(Rect(x, y, x + w, y + h)))
    return rasterize(polygons, Rect(0.0, 0.0, size, size), pixel)


class TestSocsExactness:
    """The band-limited SOCS passes equal the dense ``ifft2`` loop bit for bit."""

    @pytest.mark.parametrize("n_px", [512, 576, 1024])
    def test_matches_dense_loop(self, model, n_px):
        mask = random_manhattan_mask(n_px, seed=n_px)
        attpsm = -(0.06 ** 0.5)
        for defocus_nm in (0.0, 150.0):
            for feature in (0.0, attpsm):
                transmission = mask.transmission(feature=feature)
                pruned = model._socs(transmission, mask.pixel, defocus_nm)
                dense = dense_socs(model, transmission, mask.pixel, defocus_nm)
                assert pruned.flags.c_contiguous
                assert np.array_equal(pruned, dense), (n_px, defocus_nm, feature)

    def test_support_rows_index_the_support(self, model):
        _, support, _, rows, row_of = model._kernels(64, 48, 8.0, 0.0)
        assert np.all(np.diff(rows) > 0)
        assert np.array_equal(rows[row_of], support[0])


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
