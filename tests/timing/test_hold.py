"""Tests for hold (min-path) analysis."""

import pytest

from repro.cells import build_library
from repro.circuits import Netlist
from repro.device import AlphaPowerModel
from repro.pdk import make_tech_90nm
from repro.timing import StaEngine, characterize_library, run_hold
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


def reg_to_reg(n_gates: int) -> Netlist:
    """DFF -> chain of n inverters -> DFF."""
    netlist = Netlist(f"r2r{n_gates}")
    netlist.add_input("ck")
    netlist.add_gate("ffa", "DFF_X1", {"D": "d_loop", "CK": "ck", "Q": "q"})
    prev = "q"
    for i in range(n_gates):
        out = f"w{i}"
        netlist.add_gate(f"inv{i}", "INV_X1", {"A": prev, "Z": out})
        prev = out
    netlist.add_gate("ffb", "DFF_X1", {"D": prev, "CK": "ck", "Q": "d_loop"})
    netlist.add_output("q")
    return netlist


class TestHold:
    def test_hold_endpoints_are_register_d_pins(self, lib, liberty):
        netlist = reg_to_reg(3)
        engine = StaEngine(netlist, lib, liberty)
        result = run_hold(engine)
        gates = {e.gate for e in result.endpoints}
        assert gates == {"ffa", "ffb"}

    def test_longer_chain_more_hold_margin(self, lib, liberty):
        short = run_hold(StaEngine(reg_to_reg(1), lib, liberty))
        long = run_hold(StaEngine(reg_to_reg(6), lib, liberty))
        short_ffb = min(e.slack for e in short.endpoints if e.gate == "ffb")
        long_ffb = min(e.slack for e in long.endpoints if e.gate == "ffb")
        assert long_ffb > short_ffb

    def test_min_arrival_below_max_arrival(self, lib, liberty):
        netlist = reg_to_reg(4)
        engine = StaEngine(netlist, lib, liberty)
        hold = run_hold(engine)
        setup = engine.run()
        for key, min_arrival in hold.min_arrivals.items():
            if key in setup.arrivals:
                assert min_arrival <= setup.arrivals[key] + 1e-9

    def test_fast_gates_erode_hold_margin(self, lib, liberty, tech):
        netlist = reg_to_reg(2)
        engine = StaEngine(netlist, lib, liberty)
        model = AlphaPowerModel(tech.device)
        nominal = run_hold(engine).worst_hold_slack
        fast = {
            name: derate_for_delta_l(lib[g.cell_name], -10.0, model)
            for name, g in netlist.gates.items()
        }
        eroded = run_hold(engine, derates=fast).worst_hold_slack
        assert eroded < nominal

    def test_violation_detection(self, lib, liberty):
        # A direct register-to-register connection with a huge hold demand.
        netlist = reg_to_reg(1)
        engine = StaEngine(netlist, lib, liberty)
        result = run_hold(engine, hold_time_ps=0.0)
        # Default library hold (setup/2) is small: short path should pass.
        assert result.worst_hold_slack > 0
        assert result.violations == []

    def test_no_registers_means_no_endpoints(self, lib, liberty):
        from repro.circuits import inverter_chain

        engine = StaEngine(inverter_chain(3), lib, liberty)
        result = run_hold(engine)
        assert result.endpoints == []
        assert result.worst_hold_slack == float("inf")

    def test_endpoints_follow_netlist_gate_order(self, lib, liberty):
        # Registers added out of name order: "ffz" first.
        netlist = Netlist("order")
        netlist.add_input("a")
        netlist.add_input("ck")
        netlist.add_gate("ffz", "DFF_X1", {"D": "x", "CK": "ck", "Q": "qz"})
        netlist.add_gate("ffa", "DFF_X1", {"D": "y", "CK": "ck", "Q": "qa"})
        netlist.add_gate("gx", "INV_X1", {"A": "a", "Z": "x"})
        netlist.add_gate("gy", "INV_X1", {"A": "qz", "Z": "y"})
        netlist.add_output("qa")
        result = run_hold(StaEngine(netlist, lib, liberty))
        assert [(e.gate, e.net, e.transition) for e in result.endpoints] == [
            ("ffz", "x", "rise"), ("ffz", "x", "fall"),
            ("ffa", "y", "rise"), ("ffa", "y", "fall")]
