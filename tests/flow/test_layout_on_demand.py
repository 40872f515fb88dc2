"""The litho layout is built on first read, not by the ``place`` stage.

``place`` provides the placement only.  The per-transistor gate rects
and the flat poly layer are built by their first reader, once per flow
object, so the timing front end (drawn STA, critical-gate tagging) and
``flow.engine`` never pay for them.
"""

import threading
import time

import pytest

import repro.flow.postopc as postopc
from repro.cells import build_library
from repro.circuits import c17
from repro.circuits.fabric import structured_asic
from repro.flow import FlowConfig, FlowContext, FlowTrace, PostOpcTimingFlow
from repro.flow.stages import DrawnStaStage, PlaceStage, StageGraph, TagCriticalStage
from repro.pdk import Layers, make_tech_90nm
from repro.place import instance_gate_rects, instance_poly_layer, place_rows


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


def timing_graph():
    return StageGraph([PlaceStage(), DrawnStaStage(), TagCriticalStage()])


@pytest.fixture
def layout_builds(monkeypatch):
    """Count the two layout builders' calls (through the flow's own
    bindings), slowed a little so racing first reads overlap."""
    calls = {"gate_rects": 0, "poly_layer": 0}
    build_rects = postopc.instance_gate_rects
    collect_poly = PostOpcTimingFlow._collect_poly_layer

    def counted_rects(*args):
        calls["gate_rects"] += 1
        return build_rects(*args)

    def counted_poly(self, placement):
        calls["poly_layer"] += 1
        time.sleep(0.05)
        return collect_poly(self, placement)

    monkeypatch.setattr(postopc, "instance_gate_rects", counted_rects)
    monkeypatch.setattr(PostOpcTimingFlow, "_collect_poly_layer", counted_poly)
    return calls


class TestTimingOnlyNeverBuildsTheLayout:
    @pytest.fixture(autouse=True)
    def forbid_layout(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("timing-only code built the litho layout")

        monkeypatch.setattr(postopc, "instance_gate_rects", refuse)
        monkeypatch.setattr(PostOpcTimingFlow, "_collect_poly_layer", refuse)

    def test_timing_graph(self, tech, lib):
        flow = PostOpcTimingFlow(c17(lib), tech, cells=lib, graph=timing_graph())
        artifacts = flow.graph.execute(flow, FlowConfig(clock_period_ps=500),
                                       FlowContext(), FlowTrace())
        assert set(artifacts) == {"placement", "drawn_sta", "critical_gates"}
        assert artifacts["critical_gates"]

    def test_engine_alone(self, tech, lib):
        flow = PostOpcTimingFlow(structured_asic(120, seed=2), tech, cells=lib)
        assert flow.engine.placement is flow.placement


class TestLazyLayoutValues:
    @pytest.mark.parametrize("design", ["c17", "fabric"])
    def test_equal_to_the_builders(self, tech, lib, layout_builds, design):
        netlist = c17(lib) if design == "c17" else structured_asic(120, seed=2)
        flow = PostOpcTimingFlow(netlist, tech, cells=lib)
        placement = flow.placement
        assert layout_builds == {"gate_rects": 0, "poly_layer": 0}

        reference = place_rows(netlist, lib)
        assert flow.gate_rects == instance_gate_rects(netlist, lib, reference)
        expected = flow._collect_poly_layer(reference)
        got = flow.owned_polygons
        assert [owner for owner, _ in got] == [owner for owner, _ in expected]
        assert [poly.points for _, poly in got] == [poly.points for _, poly in expected]
        assert flow.placement is placement
        assert flow.gate_rects is flow.gate_rects
        assert flow.owned_polygons is got
        # one build each for the flow, one more for the reference layer
        assert layout_builds == {"gate_rects": 1, "poly_layer": 2}


class TestOrientOnceTranslatePerInstance:
    """The builders orient each cell's shapes once per orientation and
    translate them per instance; a per-shape transform is the reference."""

    @pytest.mark.parametrize("design", ["c17", "fabric"])
    def test_equal_to_per_shape_transforms(self, lib, design):
        netlist = c17(lib) if design == "c17" else structured_asic(120, seed=2)
        placement = place_rows(netlist, lib)
        orientations = {(p.transform.rotation, p.transform.mirror_x)
                        for p in placement.gates.values()}
        assert len(orientations) > 1

        rects = {(name, transistor.name): placed.transform.apply_rect(transistor.gate_rect)
                 for name, placed in placement.gates.items()
                 for transistor in lib[placed.cell_name].transistors}
        assert list(instance_gate_rects(netlist, lib, placement).items()) == list(rects.items())

        polygons = [(name, placement.gates[name].transform.apply_polygon(poly))
                    for name in sorted(placement.gates)
                    for poly in lib[placement.gates[name].cell_name].layout.polygons_on(
                        Layers.POLY)]
        got = instance_poly_layer(lib, placement)
        assert [(name, poly.points) for name, poly in got] == [
            (name, poly.points) for name, poly in polygons]


class TestPlaceCacheHit:
    def test_second_flow_measures_the_same(self, tech, lib, layout_builds):
        config = FlowConfig(opc_mode="rule", clock_period_ps=500)
        shared = FlowContext()
        first = PostOpcTimingFlow(c17(lib), tech, cells=lib, graph=timing_graph())
        artifacts = first.graph.execute(first, config, shared, FlowTrace())
        assert set(artifacts) == {"placement", "drawn_sta", "critical_gates"}
        assert layout_builds == {"gate_rects": 0, "poly_layer": 0}

        second = PostOpcTimingFlow(c17(lib), tech, cells=lib, context=shared)
        served = second.run(config)
        assert served.trace.record_for("place").cache_hit
        assert second.placement is first.placement
        assert layout_builds == {"gate_rects": 1, "poly_layer": 1}

        fresh = PostOpcTimingFlow(c17(lib), tech, cells=lib).run(config)
        assert not fresh.trace.record_for("place").cache_hit
        assert served.measurements.keys() == fresh.measurements.keys()
        for key, measured in fresh.measurements.items():
            assert served.measurements[key].mean_cd == measured.mean_cd
        assert served.wns_post == fresh.wns_post


class TestConcurrentFirstRead:
    def test_two_threads_get_one_poly_layer(self, tech, lib, layout_builds):
        flow = PostOpcTimingFlow(c17(lib), tech, cells=lib)
        flow.placement  # noqa: B018 - the placement alone builds no layout
        assert layout_builds["poly_layer"] == 0

        start = threading.Barrier(2)
        seen = []

        def first_read():
            start.wait()
            seen.append(flow.owned_polygons)

        threads = [threading.Thread(target=first_read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 2 and seen[0] is seen[1]
        assert layout_builds["poly_layer"] == 1
