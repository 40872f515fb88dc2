"""Tests for the high-level lithography simulator."""


import pytest

from repro.geometry import Point, Polygon, Rect
from repro.litho import LithographySimulator
from repro.litho.resist import ProcessCondition
from repro.litho.simulator import cd_through_pitch, measure_cd_on_cutline
from repro.litho.tiling import plan_tile_grid
from repro.pdk import make_tech_90nm


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def sim(tech):
    simulator = LithographySimulator.for_tech(tech)
    simulator.calibrate_to_anchor(tech.rules.gate_length, tech.rules.poly_pitch)
    return simulator


def grating(width, pitch, n=7, length=3000.0):
    return [
        Polygon.from_rect(Rect(i * pitch - width / 2, -length / 2,
                               i * pitch + width / 2, length / 2))
        for i in range(-(n // 2), n // 2 + 1)
    ]


class TestCalibration:
    def test_anchor_prints_at_drawn_cd(self, sim, tech):
        lines = grating(90, 320)
        latent = sim.latent_image(lines, Rect(-160, -100, 160, 100))
        cd = measure_cd_on_cutline(latent, sim.resist.threshold, -160, 160, 0.0)
        assert cd == pytest.approx(90.0, abs=1.2)

    def test_threshold_in_physical_range(self, sim):
        assert 0.2 < sim.resist.threshold < 0.6


class TestProximity:
    def test_iso_dense_bias(self, sim):
        results = dict(cd_through_pitch(sim, 90, [320, 1600]))
        dense, iso = results[320], results[1600]
        assert dense == pytest.approx(90.0, abs=1.5)
        # Isolated lines print thinner than dense under annular illumination.
        assert iso < dense - 3.0

    def test_dose_changes_cd(self, sim):
        lines = grating(90, 320)
        region = Rect(-160, -100, 160, 100)
        over = sim.latent_image(lines, region, ProcessCondition(dose=1.08))
        under = sim.latent_image(lines, region, ProcessCondition(dose=0.92))
        cd_over = measure_cd_on_cutline(over, sim.resist.threshold, -160, 160, 0.0)
        cd_under = measure_cd_on_cutline(under, sim.resist.threshold, -160, 160, 0.0)
        # Higher dose clears more resist: dark lines shrink.
        assert cd_over < 90.0 < cd_under

    def test_defocus_shrinks_process_latitude(self, sim):
        lines = grating(90, 320)
        region = Rect(-160, -100, 160, 100)
        focus = sim.latent_image(lines, region)
        defocus = sim.latent_image(lines, region, ProcessCondition(defocus_nm=300.0))
        cd_f = measure_cd_on_cutline(focus, sim.resist.threshold, -160, 160, 0.0)
        cd_d = measure_cd_on_cutline(defocus, sim.resist.threshold, -160, 160, 0.0)
        assert cd_d != pytest.approx(cd_f, abs=0.5)

    def test_line_end_pullback(self, sim):
        # A line ending mid-window prints short of its drawn end.
        line = Polygon.from_rect(Rect(-45, -1000, 45, 0))
        latent = sim.latent_image([line], Rect(-200, -400, 200, 200))
        drawn_end = latent.value_at(0, -1.0)
        assert drawn_end > sim.resist.threshold  # already cleared at drawn end


class TestMeasureCd:
    def test_no_feature_returns_zero(self, sim):
        latent = sim.latent_image([], Rect(0, 0, 200, 200))
        assert measure_cd_on_cutline(latent, sim.resist.threshold, 0, 200, 100.0) == 0.0

    def test_measures_known_geometry(self, sim):
        # A very wide dark block: printed CD approaches the drawn width.
        block = Polygon.from_rect(Rect(-300, -2000, 300, 2000))
        latent = sim.latent_image([block], Rect(-500, -100, 500, 100))
        cd = measure_cd_on_cutline(latent, sim.resist.threshold, -500, 500, 0.0)
        assert cd == pytest.approx(600, abs=45)


class TestContoursAndTiles:
    def test_printed_contours_for_line(self, sim):
        lines = grating(90, 320, n=3, length=800)
        contours = sim.printed_contours(lines, Rect(-500, -450, 500, 450))
        assert len(contours) >= 3
        center = [c for c in contours if c.bbox.contains_point(Point(0, 0))]
        assert center

    def test_tiles_cover_region(self, sim):
        region = Rect(0, 0, 3000, 2000)
        grid = plan_tile_grid(sim, region)
        total = sum(grid.interior(i).area for i in range(grid.count))
        assert total == pytest.approx(region.area)

    def test_tiled_matches_untiled_cd(self, sim, tech):
        # Different window sizes wrap the periodic FFT field differently,
        # so raw intensities agree only to the stitching-noise level; the
        # quantity the flow consumes — the measured CD — must agree to the
        # ~1 nm model-error scale.
        lines = grating(90, 320, n=5, length=1600)
        region = Rect(-300, -300, 300, 300)
        reference = sim.latent_image(lines, region)
        cd_ref = measure_cd_on_cutline(reference, sim.resist.threshold, -160, 160, 0.0)
        small = LithographySimulator.for_tech(tech, max_tile_px=384)
        small.resist = sim.resist
        grid = plan_tile_grid(small, region)
        spec = grid.spec(grid.locate(0.0, 0.0))
        tile = small.latent_image(lines, spec.interior, spec.condition)
        cd = measure_cd_on_cutline(tile, sim.resist.threshold, -160, 160, 0.0)
        assert cd == pytest.approx(cd_ref, abs=2.5)

    def test_ambit_too_big_rejected(self, tech):
        sim = LithographySimulator.for_tech(tech, ambit=3000, max_tile_px=64)
        with pytest.raises(ValueError):
            plan_tile_grid(sim, Rect(0, 0, 100, 100))
