"""Simulation window grids: shard partition, closed lower-wins ownership
for both geometries, shard planning, and serial-vs-parallel
bit-identity."""

import pytest

from repro.cells import build_library
from repro.circuits import inverter_chain
from repro.flow import ParallelExecutor
from repro.geometry import Point, Rect
from repro.litho import (
    DEFAULT_MAX_SHARD_PX,
    LithographySimulator,
    plan_shard_grid,
    plan_tile_grid,
)
from repro.litho.resist import ProcessCondition
from repro.metrology import plan_metrology_shards
from repro.metrology.gate_cd import measure_tile_chunk
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


@pytest.fixture(scope="module")
def placed_chain(sim, lib):
    netlist = inverter_chain(6)
    placement = place_rows(netlist, lib)
    layout = assemble_layout(netlist, lib, placement)
    polys = layout.flat_polygons(TOP_CELL, Layers.POLY)
    rects = instance_gate_rects(netlist, lib, placement)
    return polys, rects


class TestShardGrid:
    def test_plan_respects_min_count(self, sim):
        region = Rect(0, 0, 20000, 10000)
        grid = plan_shard_grid(sim, region, shards=5)
        assert grid.count >= 5
        # wider region splits along x first
        assert grid.nx >= grid.ny

    def test_windows_fit_pixel_cap(self, sim):
        region = Rect(0, 0, 60000, 60000)
        grid = plan_shard_grid(sim, region, shards=1)
        pixel = sim.settings.pixel_nm
        for index in range(grid.count):
            window = grid.interior(index).expanded(sim.ambit)
            assert window.width / pixel <= DEFAULT_MAX_SHARD_PX
            assert window.height / pixel <= DEFAULT_MAX_SHARD_PX

    def test_interiors_partition_region(self, sim):
        grid = plan_shard_grid(sim, Rect(0, 0, 9000, 7000), shards=6)
        area = sum(grid.interior(i).area for i in range(grid.count))
        assert area == pytest.approx(9000 * 7000)

    def test_locate_is_a_partition(self, sim):
        grid = plan_shard_grid(sim, Rect(0, 0, 9000, 7000), shards=4)
        # every probe point (inside or slightly outside) maps to exactly
        # one valid shard, including points on interior boundaries
        for x in [-10, 0.0, 1.0, 2250.0, 4500.0, 8999.0, 9010]:
            for y in [-10, 0.0, 3500.0, 6999.0, 7010]:
                index = grid.locate(x, y)
                assert 0 <= index < grid.count

    def test_locate_matches_interior(self, sim):
        grid = plan_shard_grid(sim, Rect(0, 0, 9000, 7000), shards=6)
        for index in range(grid.count):
            center = grid.interior(index).center
            assert grid.locate(center.x, center.y) == index

    def test_deterministic(self, sim):
        region = Rect(0, 0, 12000, 8000)
        a = plan_shard_grid(sim, region, shards=3)
        b = plan_shard_grid(sim, region, shards=3)
        assert a == b

    def test_condition_fn_resolved_at_plan_time(self, sim):
        marks = []

        def pick(interior):
            marks.append(interior)
            return ProcessCondition(dose=1.01, defocus_nm=0.0)

        grid = plan_shard_grid(sim, Rect(0, 0, 9000, 7000), shards=2,
                               condition_fn=pick)
        assert len(marks) == grid.count
        assert all(c.dose == 1.01 for c in grid.conditions)

    def test_bad_inputs(self, sim, tech):
        with pytest.raises(ValueError):
            plan_shard_grid(sim, Rect(0, 0, 100, 100), shards=0)
        # a DEFAULT_MAX_SHARD_PX window too small to hold two ambit halos
        wide = LithographySimulator.for_tech(
            tech, ambit=DEFAULT_MAX_SHARD_PX * tech.litho.pixel_nm / 2)
        with pytest.raises(ValueError, match="cannot fit"):
            plan_shard_grid(wide, Rect(0, 0, 100, 100), shards=1)


def _probe_points(grid):
    """Every edge crossing, corner and edge midpoint of the grid, plus the
    window centers and points just outside the region."""
    def axis(edges):
        mids = [(a + b) / 2 for a, b in zip(edges, edges[1:])]
        return list(edges) + mids + [edges[0] - 7.0, edges[-1] + 7.0]
    return [(x, y) for x in axis(grid.xs) for y in axis(grid.ys)]


class TestWindowOwnership:
    """``locate`` is the lowest-index window whose closed interior holds
    the point, for both window geometries."""

    @pytest.fixture(params=["tile", "shard"])
    def grid(self, request, sim):
        region = Rect(-1000.0, 500.0, 6321.5, 4000.25)
        if request.param == "tile":
            grid = plan_tile_grid(sim, region)
        else:
            grid = plan_shard_grid(sim, region, shards=6)
        assert grid.nx > 1 and grid.ny > 1
        return grid

    def test_locate_agrees_with_closed_interiors(self, grid):
        region = Rect(grid.xs[0], grid.ys[0], grid.xs[-1], grid.ys[-1])
        for x, y in _probe_points(grid):
            point = Point(x, y)
            owner = grid.locate(x, y)
            holders = [w for w in range(grid.count)
                       if grid.interior(w).contains_point(point)]
            if region.contains_point(point):
                assert holders and owner == holders[0], (x, y)
                assert grid.interior(owner).contains_point(point)
            else:
                # outside the region: clamped to an edge window
                assert not holders and 0 <= owner < grid.count

    def test_shared_edge_goes_to_lower_window(self, grid):
        x, y = grid.xs[1], grid.ys[1]
        assert grid.locate(x, y) == 0
        assert grid.locate(x + 1e-6, y) == 1
        assert grid.locate(x, y + 1e-6) == grid.nx


class TestShardPlanning:
    def test_every_gate_in_exactly_one_task(self, sim, placed_chain):
        polys, rects = placed_chain
        tasks = plan_metrology_shards(sim, polys, rects, shards=4)
        seen = [key for task in tasks for key, _ in task.gate_rects]
        assert sorted(seen) == sorted(rects)

    def test_empty_rects(self, sim):
        assert plan_metrology_shards(sim, [], {}) == []

    def test_empty_shards_skipped(self, sim, placed_chain):
        polys, rects = placed_chain
        # huge region: most shards own no gate and produce no task
        region = Rect(0, 0, 40000, 40000)
        tasks = plan_metrology_shards(sim, polys, rects, shards=2,
                                      region=region)
        grid = plan_shard_grid(sim, region, shards=2)
        assert len(tasks) < grid.count


class TestShardMeasurement:
    def test_shards_measure_all_gates(self, sim, placed_chain):
        polys, rects = placed_chain
        tasks = plan_metrology_shards(sim, polys, rects, shards=2)
        results = {}
        for chunk in measure_tile_chunk((sim, tasks)):
            results.update(chunk)
        assert set(results) == set(rects)
        assert all(m.printed for m in results.values())

    def test_serial_vs_process_bit_identical(self, sim, placed_chain):
        polys, rects = placed_chain
        tasks = plan_metrology_shards(sim, polys, rects, shards=2)
        serial = measure_tile_chunk((sim, tasks))
        executor = ParallelExecutor(2)
        parallel = executor.map_chunks(measure_tile_chunk, sim, tasks)
        flat_serial = {k: m for chunk in serial for k, m in chunk.items()}
        flat_parallel = {k: m for chunk in parallel for k, m in chunk.items()}
        assert set(flat_serial) == set(flat_parallel)
        for key, m in flat_serial.items():
            p = flat_parallel[key]
            assert m.slice_cds == p.slice_cds  # exact, not approx
            assert m.slice_positions == p.slice_positions
