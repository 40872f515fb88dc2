"""Tests for gate-CD extraction, statistics, and site selection."""

import numpy as np
import pytest

from repro.cells import build_library
from repro.circuits import inverter_chain
from repro.geometry import Rect
from repro.litho import AerialImage, LithographySimulator
from repro.metrology import (
    measure_gate_cds,
    measure_tile_chunk,
    plan_metrology_tiles,
    select_sites,
    summarize_cds,
)
from repro.metrology.gate_cd import GateCdMeasurement, _span_containing_center
from repro.metrology.sites import sites_as_gate_rects
from repro.metrology.statistics import histogram_of_errors, systematic_random_split
from repro.pdk import Layers, make_tech_90nm
from repro.place import assemble_layout, instance_gate_rects, place_rows
from repro.place.assembler import TOP_CELL


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def sim(tech):
    simulator = LithographySimulator.for_tech(tech)
    simulator.calibrate_to_anchor(tech.rules.gate_length, tech.rules.poly_pitch)
    return simulator


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


def synthetic_gate_image(cd=90.0, pixel=4.0, size=400, ramp=8.0):
    """A dark stripe of width ``cd`` centered at x=0, with linear edge
    profiles so the 0.5 level sits exactly at +-cd/2 under interpolation."""
    n = int(size / pixel)
    xs = (np.arange(n) + 0.5) * pixel - size / 2
    row = np.clip((np.abs(xs) - cd / 2) / ramp + 0.5, 0.0, 1.0)
    data = np.tile(row, (n, 1))
    return AerialImage(-size / 2, -size / 2, pixel, data)


class TestSpanAtCenter:
    def test_simple_span(self):
        positions = np.linspace(-100, 100, 201)
        values = np.where(np.abs(positions) <= 45, 0.0, 1.0)
        assert _span_containing_center(positions, values, 0.5, 0.0) == pytest.approx(90, abs=1)

    def test_ignores_neighbour_span(self):
        positions = np.linspace(-300, 300, 601)
        values = np.ones_like(positions)
        values[np.abs(positions) <= 45] = 0.0            # center feature
        values[np.abs(positions - 200) <= 80] = 0.0      # fat neighbour
        cd = _span_containing_center(positions, values, 0.5, 0.0)
        assert cd == pytest.approx(90, abs=1)

    def test_open_returns_zero(self):
        positions = np.linspace(-100, 100, 201)
        assert _span_containing_center(positions, np.ones(201), 0.5, 0.0) == 0.0


class TestMeasureGateCds:
    def test_perfect_stripe(self):
        latent = synthetic_gate_image(cd=90)
        rects = {"g": Rect(-45, -100, 45, 100)}
        (m,) = measure_gate_cds(latent, 0.5, rects).values()
        assert m.printed
        assert m.mean_cd == pytest.approx(90, abs=1)
        assert m.mid_cd == pytest.approx(90, abs=1)
        assert m.cd_range < 1e-9
        assert m.error == pytest.approx(0, abs=1)

    def test_slice_count(self):
        latent = synthetic_gate_image()
        rects = {"g": Rect(-45, -100, 45, 100)}
        (m,) = measure_gate_cds(latent, 0.5, rects, n_slices=7).values()
        assert len(m.slice_cds) == 7
        assert len(m.slice_positions) == 7

    def test_horizontal_gate_orientation(self):
        latent = synthetic_gate_image(cd=90)
        # Wide-short rect: channel along y. Build a rotated image.
        data = latent.intensity.T.copy()
        rotated = AerialImage(latent.x0, latent.y0, latent.pixel, data)
        rects = {"g": Rect(-100, -45, 100, 45)}
        (m,) = measure_gate_cds(rotated, 0.5, rects).values()
        assert m.mean_cd == pytest.approx(90, abs=1)

    def test_open_gate_not_printed(self):
        latent = AerialImage(-200, -200, 4.0, np.ones((100, 100)))
        rects = {"g": Rect(-45, -100, 45, 100)}
        (m,) = measure_gate_cds(latent, 0.5, rects).values()
        assert not m.printed
        assert m.min_cd == 0.0

    def test_real_inverter_gate(self, sim, lib, tech):
        inv = lib["INV_X1"]
        polys = inv.layout.polygons_on(Layers.POLY)
        rects = {("inv", t.name): t.gate_rect for t in inv.transistors}
        region = Rect.bounding([r for r in rects.values()]).expanded(100)
        latent = sim.latent_image(polys, region)
        results = measure_gate_cds(latent, sim.resist.threshold, rects)
        for m in results.values():
            assert m.printed
            assert 70 < m.mean_cd < 110  # uncorrected: biased but printing

    def test_slice_widths_sum_to_gate_width(self):
        latent = synthetic_gate_image()
        rects = {"g": Rect(-45, -100, 45, 100)}
        (m,) = measure_gate_cds(latent, 0.5, rects, n_slices=5).values()
        assert sum(m.slice_widths()) == pytest.approx(200)


class TestLayoutMetrology:
    def test_chain_measured_via_tiles(self, sim, lib, tech):
        netlist = inverter_chain(4)
        placement = place_rows(netlist, lib)
        layout = assemble_layout(netlist, lib, placement)
        polys = layout.flat_polygons(TOP_CELL, Layers.POLY)
        rects = instance_gate_rects(netlist, lib, placement)
        tasks = plan_metrology_tiles(sim, polys, rects)
        results = {}
        for measured in measure_tile_chunk((sim, tasks)):
            results.update(measured)
        assert set(results) == set(rects)
        for m in results.values():
            assert m.printed

    def test_empty_input(self, sim):
        tasks = plan_metrology_tiles(sim, [], {})
        assert tasks == []
        assert measure_tile_chunk((sim, tasks)) == []


class TestStatistics:
    def make_measurement(self, error):
        m = GateCdMeasurement(gate_rect=Rect(0, 0, 90, 400), drawn_cd=90)
        m.slice_positions = [200.0]
        m.slice_cds = [90.0 + error]
        return m

    def test_summarize(self):
        measurements = {i: self.make_measurement(e) for i, e in enumerate([-2, 0, 2])}
        stats = summarize_cds(measurements)
        assert stats.count == 3
        assert stats.mean == pytest.approx(0)
        assert stats.sigma == pytest.approx(np.std([-2, 0, 2]))
        assert stats.range == 4
        assert "n=3" in str(stats)

    def test_summarize_skips_unprinted(self):
        bad = GateCdMeasurement(gate_rect=Rect(0, 0, 90, 400), drawn_cd=90)
        bad.slice_positions = [200.0]
        bad.slice_cds = [0.0]
        stats = summarize_cds({"ok": self.make_measurement(1), "bad": bad})
        assert stats.count == 1

    def test_empty_stats(self):
        stats = summarize_cds({})
        assert stats.count == 0
        assert np.isnan(stats.mean)

    def test_histogram(self):
        measurements = {i: self.make_measurement(e) for i, e in enumerate([-1.2, 0.1, 0.3, 2.4])}
        bins = histogram_of_errors(measurements, bin_width=1.0)
        assert sum(count for _, count in bins) == 4

    def test_systematic_random_split(self):
        groups = {
            "ctxA": [3.0, 3.1, 2.9],   # tight around +3
            "ctxB": [-3.0, -2.9, -3.1],
        }
        sigma_sys, sigma_rand = systematic_random_split(groups)
        assert sigma_sys == pytest.approx(3.0, abs=0.1)
        assert sigma_rand < 0.2

    def test_split_empty(self):
        sigma_sys, sigma_rand = systematic_random_split({})
        assert np.isnan(sigma_sys)


class TestSites:
    def rects(self):
        return {
            ("g1", "MN0"): Rect(0, 0, 90, 400),
            ("g1", "MP0"): Rect(0, 600, 90, 1000),
            ("g2", "MN0"): Rect(500, 0, 590, 400),
        }

    def test_all_sites_default(self):
        sites = select_sites(self.rects())
        assert len(sites) == 3
        assert all(s.tag == "standard" for s in sites)

    def test_critical_tagging(self):
        sites = select_sites(self.rects(), critical_gates={"g1"})
        tags = {s.key: s.tag for s in sites}
        assert tags[("g1", "MN0")] == "critical"
        assert tags[("g2", "MN0")] == "standard"

    def test_critical_only(self):
        sites = select_sites(self.rects(), critical_gates={"g2"}, critical_only=True)
        assert [s.gate_name for s in sites] == ["g2"]

    def test_sampling_keeps_critical(self):
        sites = select_sites(self.rects(), critical_gates={"g2"}, sample_fraction=0.0)
        assert [s.gate_name for s in sites] == ["g2"]

    def test_sampling_deterministic(self):
        a = select_sites(self.rects(), sample_fraction=0.5, seed=42)
        b = select_sites(self.rects(), sample_fraction=0.5, seed=42)
        assert [s.key for s in a] == [s.key for s in b]

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            select_sites(self.rects(), sample_fraction=1.5)

    def test_roundtrip_to_rects(self):
        sites = select_sites(self.rects())
        assert sites_as_gate_rects(sites) == self.rects()
