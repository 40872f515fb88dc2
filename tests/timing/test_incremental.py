"""Tests for incremental timing updates (exactness vs full rerun)."""

import pytest

from repro.cells import build_library
from repro.circuits import c17, random_logic, ripple_carry_adder
from repro.device import AlphaPowerModel
from repro.pdk import make_tech_90nm
from repro.place import place_rows
from repro.timing import (
    InstanceDerate,
    StaEngine,
    TimingConstraints,
    affected_gates,
    characterize_library,
    run_incremental,
)
from repro.timing.mc import derate_for_delta_l


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


@pytest.fixture(scope="module")
def liberty(lib, tech):
    return characterize_library(lib, AlphaPowerModel(tech.device))


@pytest.fixture(scope="module")
def model(tech):
    return AlphaPowerModel(tech.device)


def assert_results_equal(a, b):
    """Exact: both retime paths are == to a full run."""
    assert a.arrivals == b.arrivals
    assert a.slews == b.slews
    assert a.predecessors == b.predecessors
    slacks_a = sorted((e.net, e.transition, e.slack) for e in a.endpoints)
    slacks_b = sorted((e.net, e.transition, e.slack) for e in b.endpoints)
    assert slacks_a == slacks_b


class TestAffectedGates:
    def test_includes_fanout_cone_and_input_drivers(self, lib, liberty):
        netlist = c17(lib)
        engine = StaEngine(netlist, lib, liberty)
        cone = affected_gates(engine, {"g_n16"})
        # g_n16 feeds g_n22 and g_n23; its input nets n2 (PI) and n11.
        assert {"g_n16", "g_n22", "g_n23", "g_n11"} <= cone
        assert "g_n10" not in cone or True  # g_n10 only if downstream

    def test_downstream_of_driver_included(self, lib, liberty):
        netlist = c17(lib)
        engine = StaEngine(netlist, lib, liberty)
        cone = affected_gates(engine, {"g_n22"})
        # Changing g_n22 changes the load on n10 and n16 -> their drivers
        # recompute, and everything downstream of those drivers does too.
        assert {"g_n22", "g_n10", "g_n16", "g_n23"} <= cone


class TestIncrementalExactness:
    @pytest.mark.parametrize("changed", [["g_n10"], ["g_n16"], ["g_n22", "g_n19"]])
    def test_matches_full_rerun_c17(self, lib, liberty, model, changed):
        netlist = c17(lib)
        engine = StaEngine(netlist, lib, liberty)
        constraints = TimingConstraints(clock_period_ps=500)
        baseline = engine.run(constraints)
        derates = {name: derate_for_delta_l(lib[netlist.gates[name].cell_name],
                                            6.0, model)
                   for name in changed}
        full = engine.run(constraints, derates)
        incremental = run_incremental(engine, baseline, set(changed),
                                      constraints, derates)
        assert_results_equal(full, incremental)

    def test_matches_on_adder_with_cap_changes(self, lib, liberty):
        netlist = ripple_carry_adder(4)
        engine = StaEngine(netlist, lib, liberty, place_rows(netlist, lib))
        constraints = TimingConstraints(clock_period_ps=800)
        baseline = engine.run(constraints)
        derates = {"fa1_gn2": InstanceDerate(cap_scale=1.7, delay_fall_scale=1.2)}
        full = engine.run(constraints, derates)
        incremental = run_incremental(engine, baseline, {"fa1_gn2"},
                                      constraints, derates)
        assert_results_equal(full, incremental)

    def test_matches_on_random_logic_sequence(self, lib, liberty, model):
        netlist = random_logic(40, n_inputs=8, seed=4)
        engine = StaEngine(netlist, lib, liberty)
        constraints = TimingConstraints(clock_period_ps=600)
        previous = engine.run(constraints)
        derates = {}
        for step, gate_name in enumerate(["g3", "g17", "g30"]):
            cell = lib[netlist.gates[gate_name].cell_name]
            derates = dict(derates)
            derates[gate_name] = derate_for_delta_l(cell, -5.0 - step, model)
            full = engine.run(constraints, derates)
            previous = run_incremental(engine, previous, {gate_name},
                                       constraints, derates)
            assert_results_equal(full, previous)

    def test_empty_change_set_is_identity(self, lib, liberty):
        netlist = c17(lib)
        engine = StaEngine(netlist, lib, liberty)
        constraints = TimingConstraints(clock_period_ps=500)
        baseline = engine.run(constraints)
        incremental = run_incremental(engine, baseline, set(), constraints, {})
        assert_results_equal(baseline, incremental)

    def test_cone_smaller_than_netlist(self, lib, liberty):
        netlist = random_logic(60, n_inputs=10, seed=6)
        engine = StaEngine(netlist, lib, liberty)
        cone = affected_gates(engine, {"g59"})
        assert len(cone) < netlist.gate_count
