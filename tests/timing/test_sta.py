"""Tests for the STA engine, path reporting, derates, corners, and MC."""

import pytest

from repro.cells import build_library
from repro.circuits import Netlist, c17, inverter_chain, ripple_carry_adder, structured_asic
from repro.device import AlphaPowerModel
from repro.metrology.gate_cd import GateCdMeasurement
from repro.pdk import make_tech_90nm
from repro.place import place_rows
from repro.timing import (
    InstanceDerate,
    StaEngine,
    TimingConstraints,
    characterize_library,
    derates_from_measurements,
    instance_leakage,
    run_corners,
    run_monte_carlo,
    top_paths,
)
from repro.timing.mc import CdVariationSpec, CornerSpec, derate_for_delta_l
from repro.timing.paths import path_rank_map, reconstruct_path
from repro.timing.sta import WireModel


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


@pytest.fixture(scope="module")
def model(tech):
    return AlphaPowerModel(tech.device)


@pytest.fixture(scope="module")
def liberty(lib, model):
    return characterize_library(lib, model)


def make_engine(netlist, lib, liberty, placed=True):
    placement = place_rows(netlist, lib) if placed else None
    return StaEngine(netlist, lib, liberty, placement)


class TestBasicSta:
    def test_chain_delay_grows_linearly(self, lib, liberty):
        d5 = make_engine(inverter_chain(5), lib, liberty, placed=False).run().critical_delay
        d10 = make_engine(inverter_chain(10), lib, liberty, placed=False).run().critical_delay
        per_stage = (d10 - d5) / 5
        assert per_stage > 0
        assert d10 == pytest.approx(d5 + 5 * per_stage, rel=1e-6)

    def test_wns_is_period_minus_arrival(self, lib, liberty):
        engine = make_engine(inverter_chain(4), lib, liberty, placed=False)
        result = engine.run(TimingConstraints(clock_period_ps=500))
        assert result.wns == pytest.approx(500 - result.critical_delay)

    def test_negative_slack_when_period_too_short(self, lib, liberty):
        engine = make_engine(ripple_carry_adder(8), lib, liberty)
        result = engine.run(TimingConstraints(clock_period_ps=300))
        assert result.wns < 0
        assert result.tns < result.wns  # many failing endpoints accumulate

    def test_rca_critical_path_is_carry_chain(self, lib, liberty):
        engine = make_engine(ripple_carry_adder(8), lib, liberty)
        result = engine.run()
        worst = top_paths(result, 1)[0]
        assert worst.endpoint_net in ("cout", "s7")
        assert worst.depth >= 15  # rides the carry chain

    def test_slack_of_endpoint(self, lib, liberty):
        engine = make_engine(ripple_carry_adder(2), lib, liberty)
        result = engine.run()
        assert result.slack_of("cout") <= result.slack_of("s0")
        with pytest.raises(KeyError):
            result.slack_of("nonexistent")

    def test_fanout_loading_slows_driver(self, lib, liberty):
        wide = Netlist("fanout")
        wide.add_input("a")
        wide.add_gate("drv", "INV_X1", {"A": "a", "Z": "w"})
        for i in range(8):
            wide.add_gate(f"l{i}", "INV_X1", {"A": "w", "Z": f"y{i}"})
            wide.add_output(f"y{i}")
        narrow = Netlist("single")
        narrow.add_input("a")
        narrow.add_gate("drv", "INV_X1", {"A": "a", "Z": "w"})
        narrow.add_gate("l0", "INV_X1", {"A": "w", "Z": "y0"})
        narrow.add_output("y0")
        d_wide = make_engine(wide, lib, liberty, placed=False).run().critical_delay
        d_narrow = make_engine(narrow, lib, liberty, placed=False).run().critical_delay
        assert d_wide > d_narrow

    def test_wire_model_adds_delay(self, lib, liberty):
        netlist = ripple_carry_adder(4)
        placement = place_rows(netlist, lib)
        bare = StaEngine(netlist, lib, liberty, placement,
                         wire_model=WireModel(c_per_nm=0.0, r_per_nm=0.0))
        loaded = StaEngine(netlist, lib, liberty, placement)
        assert loaded.run().critical_delay > bare.run().critical_delay

    def test_c17(self, lib, liberty):
        engine = make_engine(c17(lib), lib, liberty)
        result = engine.run()
        assert result.critical_delay > 0
        assert len(result.endpoints) == 4  # 2 POs x 2 transitions

    def test_sequential_endpoints(self, lib, liberty):
        netlist = Netlist("seq")
        netlist.add_input("clk_dummy")
        netlist.add_gate("ff1", "DFF_X1", {"D": "loop", "CK": "clk_dummy", "Q": "q1"})
        netlist.add_gate("inv", "INV_X1", {"A": "q1", "Z": "loop"})
        engine = make_engine(netlist, lib, liberty, placed=False)
        result = engine.run(TimingConstraints(clock_period_ps=400))
        nets = {e.net for e in result.endpoints}
        assert "loop" in nets  # the DFF D pin is an endpoint
        assert result.critical_delay > 0  # clk->Q then through the inverter

    @pytest.mark.xfail(strict=True, reason=(
        "order-dependent slew merge: an arc that wins on arrival overwrites "
        "the worst slew merged so far (c17: one node low by 0.26 ps)"))
    def test_slew_is_worst_over_arcs(self, lib, liberty):
        """A node's slew is the max of its arcs' slews, in any arc order."""
        engine = make_engine(c17(lib), lib, liberty)
        constraints = TimingConstraints()
        result = engine.run(constraints)
        worst = {}
        for gate in engine.netlist.gates.values():
            out_net = gate.connections[lib[gate.cell_name].output]
            load = engine.net_load_ff(out_net, constraints, {})
            for arc in liberty[gate.cell_name].arcs:
                in_net = gate.connections[arc.input_pin]
                for in_transition in ("rise", "fall"):
                    slew_in = result.slews[(in_net, in_transition)]
                    for out_transition in arc.output_transitions(in_transition):
                        _, slew_table = arc.tables_for(out_transition)
                        key = (out_net, out_transition)
                        worst[key] = max(worst.get(key, 0.0),
                                         slew_table.lookup(slew_in, load))
        assert len(worst) == 12
        assert {key: result.slews[key] for key in worst} == worst


def twin_registers() -> Netlist:
    """Two registers added out of name order ("ffz" before "ffa"), whose
    D pins see identical paths, so their setup slacks tie exactly."""
    netlist = Netlist("twins")
    netlist.add_input("a")
    netlist.add_input("ck")
    netlist.add_gate("ffz", "DFF_X1", {"D": "x", "CK": "ck", "Q": "qz"})
    netlist.add_gate("ffa", "DFF_X1", {"D": "y", "CK": "ck", "Q": "qa"})
    netlist.add_gate("gx", "INV_X1", {"A": "a", "Z": "x"})
    netlist.add_gate("gy", "INV_X1", {"A": "a", "Z": "y"})
    netlist.add_gate("go", "INV_X1", {"A": "a", "Z": "out"})
    netlist.add_output("out")
    return netlist


def frozen_hpwl(netlist, placement):
    """``StaEngine._build_hpwl`` as it was with a ``Point`` per gate."""
    lengths, points = {}, {}
    for gate in netlist.gates.values():
        center = placement.gates[gate.name].bbox.center
        for net in gate.connections.values():
            points.setdefault(net, []).append(center)
    for net, pts in points.items():
        if len(pts) < 2:
            lengths[net] = 0.0
            continue
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        lengths[net] = (max(xs) - min(xs)) + (max(ys) - min(ys))
    return lengths


def frozen_topological_names(netlist, library):
    """``Netlist.topological_gates`` as it was, looking cells up per use."""
    driver_by_net = {}
    for gate in netlist.gates.values():
        driver_by_net[gate.connections[library[gate.cell_name].output]] = gate
    dependents = {g: [] for g in netlist.gates}
    in_degree = {g: 0 for g in netlist.gates}
    for gate in netlist.gates.values():
        cell = library[gate.cell_name]
        if cell.is_sequential:
            continue
        for pin in cell.inputs:
            driver = driver_by_net.get(gate.connections[pin])
            if driver is not None and not library[driver.cell_name].is_sequential:
                dependents[driver.name].append(gate.name)
                in_degree[gate.name] += 1
    queue = sorted((g for g, deg in in_degree.items() if deg == 0),
                   key=lambda g: (0 if library[netlist.gates[g].cell_name].is_sequential
                                  else 1, g))
    order = []
    while queue:
        name = queue.pop(0)
        order.append(name)
        for dep in dependents[name]:
            in_degree[dep] -= 1
            if in_degree[dep] == 0:
                queue.append(dep)
    return order


class TestGraphOrder:
    """The orders the timing graph must keep: results depend on them."""

    def test_hpwl_equals_frozen_formula(self, lib, liberty):
        netlist = structured_asic(300, seed=4)
        engine = make_engine(netlist, lib, liberty)
        assert list(engine._hpwl.items()) == list(
            frozen_hpwl(netlist, engine.placement).items())

    @pytest.mark.parametrize("design", ["twins", "c17", "fabric"])
    def test_node_order_equals_frozen_topological_gates(self, lib, liberty, design):
        netlist = {"twins": twin_registers, "c17": lambda: c17(lib),
                   "fabric": lambda: structured_asic(300, seed=4)}[design]()
        expected = frozen_topological_names(netlist, lib)
        assert [n.name for n in make_engine(netlist, lib, liberty, placed=False).nodes] == expected
        assert [g.name for g in netlist.topological_gates(lib)] == expected

    def test_nodes_topological_registers_in_netlist_order(self, lib, liberty):
        netlist = twin_registers()
        engine = make_engine(netlist, lib, liberty, placed=False)
        assert [n.name for n in engine.nodes] == [
            g.name for g in netlist.topological_gates(lib)]
        assert [n.name for n in engine.registers] == ["ffz", "ffa"]
        assert [n.d_net for n in engine.registers] == ["x", "y"]

    def test_endpoints_outputs_first_then_d_pins_in_netlist_order(self, lib, liberty):
        result = make_engine(twin_registers(), lib, liberty, placed=False).run()
        assert [(e.net, e.transition) for e in result.endpoints] == [
            ("out", "rise"), ("out", "fall"),
            ("x", "rise"), ("x", "fall"), ("y", "rise"), ("y", "fall")]

    def test_fabric_endpoint_order(self, lib, liberty):
        netlist = structured_asic(200, seed=4)
        result = make_engine(netlist, lib, liberty).run()
        d_nets = [gate.connections[lib[gate.cell_name].inputs[0]]
                  for gate in netlist.gates.values() if lib[gate.cell_name].is_sequential]
        assert len(d_nets) > 1
        expected = [(net, t) for net in list(netlist.outputs) + d_nets
                    for t in ("rise", "fall") if (net, t) in result.arrivals]
        assert [(e.net, e.transition) for e in result.endpoints] == expected

    def test_worst_endpoint_is_first_of_ties(self, lib, liberty):
        result = make_engine(twin_registers(), lib, liberty, placed=False).run(
            TimingConstraints(clock_period_ps=60.0))
        by_key = {(e.net, e.transition): e.slack for e in result.endpoints}
        assert by_key[("x", "rise")] == by_key[("y", "rise")]
        assert by_key[("x", "fall")] == by_key[("y", "fall")]
        worst = result.worst_endpoint
        assert worst.net == "x"
        assert worst.slack < by_key[("out", "rise")]


class TestPaths:
    def test_path_reconstruction_consistent(self, lib, liberty):
        engine = make_engine(ripple_carry_adder(4), lib, liberty)
        result = engine.run()
        for path in top_paths(result, 5):
            assert path.arrival == pytest.approx(
                sum(s.delay for s in path.stages) + result.arrivals[
                    (path.stages[0].net, path.stages[0].transition)
                ]
            )
            assert path.stages[-1].net == path.endpoint_net

    def test_paths_sorted_by_slack(self, lib, liberty):
        engine = make_engine(ripple_carry_adder(6), lib, liberty)
        paths = top_paths(engine.run(), 8)
        slacks = [p.slack for p in paths]
        assert slacks == sorted(slacks)

    def test_rank_map(self, lib, liberty):
        engine = make_engine(ripple_carry_adder(4), lib, liberty)
        paths = top_paths(engine.run(), 6)
        ranks = path_rank_map(paths)
        assert ranks[paths[0].endpoint_net] == 0

    def test_unknown_endpoint_raises(self, lib, liberty):
        engine = make_engine(inverter_chain(2), lib, liberty, placed=False)
        with pytest.raises(KeyError):
            reconstruct_path(engine.run(), "ghost", "rise")

    def test_path_str(self, lib, liberty):
        engine = make_engine(inverter_chain(3), lib, liberty, placed=False)
        (path,) = top_paths(engine.run(), 1)
        assert "inv0 -> inv1 -> inv2" in str(path)


class TestDerates:
    def test_shorter_gates_speed_up(self, lib, liberty, model):
        netlist = inverter_chain(6)
        engine = make_engine(netlist, lib, liberty, placed=False)
        nominal = engine.run().critical_delay
        derates = {
            f"inv{i}": derate_for_delta_l(lib["INV_X1"], -8.0, model) for i in range(6)
        }
        faster = engine.run(derates=derates).critical_delay
        assert faster < nominal

    def test_longer_gates_slow_down(self, lib, liberty, model):
        netlist = inverter_chain(6)
        engine = make_engine(netlist, lib, liberty, placed=False)
        nominal = engine.run().critical_delay
        derates = {
            f"inv{i}": derate_for_delta_l(lib["INV_X1"], +8.0, model) for i in range(6)
        }
        assert engine.run(derates=derates).critical_delay > nominal

    def test_cap_scale_loads_driver(self, lib, liberty):
        netlist = inverter_chain(3)
        engine = make_engine(netlist, lib, liberty, placed=False)
        nominal = engine.run().critical_delay
        # Bloat inv1's input cap: inv0 sees a heavier load.
        derates = {"inv1": InstanceDerate(cap_scale=2.0)}
        assert engine.run(derates=derates).critical_delay > nominal

    def make_measurement(self, rect, drawn, cds):
        m = GateCdMeasurement(gate_rect=rect, drawn_cd=drawn)
        m.slice_positions = list(range(len(cds)))
        m.slice_cds = list(cds)
        return m

    def test_derates_from_measurements(self, lib, liberty, model):
        netlist = inverter_chain(2)
        inv = lib["INV_X1"]
        measurements = {}
        for t in inv.transistors:
            # inv0 prints 8nm short -> faster; inv1 at drawn.
            measurements[("inv0", t.name)] = self.make_measurement(
                t.gate_rect, t.length, [t.length - 8.0] * 3
            )
            measurements[("inv1", t.name)] = self.make_measurement(
                t.gate_rect, t.length, [t.length] * 3
            )
        derates = derates_from_measurements(netlist, lib, measurements, model)
        assert derates["inv0"].delay_rise_scale < 1.0
        assert derates["inv0"].cap_scale < 1.0
        assert derates["inv1"].delay_rise_scale == pytest.approx(1.0, abs=1e-3)

    def test_failed_gate_flagged(self, lib, model):
        netlist = inverter_chain(1)
        inv = lib["INV_X1"]
        t = inv.transistors[0]
        measurements = {
            ("inv0", t.name): self.make_measurement(t.gate_rect, t.length, [90.0, 0.0, 90.0])
        }
        derates = derates_from_measurements(netlist, lib, measurements, model)
        assert derates["inv0"].failed

    def test_unmeasured_instances_skipped(self, lib, model):
        netlist = inverter_chain(2)
        derates = derates_from_measurements(netlist, lib, {}, model)
        assert derates == {}

    def test_instance_leakage_short_gates_leak_more(self, lib, model):
        netlist = inverter_chain(2)
        inv = lib["INV_X1"]
        measurements = {}
        for t in inv.transistors:
            measurements[("inv0", t.name)] = self.make_measurement(
                t.gate_rect, t.length, [t.length - 10.0] * 3
            )
        leaks = instance_leakage(netlist, lib, measurements, model)
        assert leaks["inv0"] > leaks["inv1"]


class TestCornersAndMc:
    def test_corner_ordering(self, lib, liberty, model):
        engine = make_engine(ripple_carry_adder(4), lib, liberty)
        corners = run_corners(engine, model)
        assert corners["slow"] < corners["typical"] < corners["fast"]

    def test_custom_corner(self, lib, liberty, model):
        engine = make_engine(inverter_chain(4), lib, liberty, placed=False)
        corners = run_corners(engine, model, corners=(CornerSpec("wild", 12.0),))
        assert set(corners) == {"wild"}

    def test_mc_within_corner_bounds(self, lib, liberty, model):
        engine = make_engine(ripple_carry_adder(4), lib, liberty)
        corners = run_corners(engine, model)
        mc = run_monte_carlo(engine, model, samples=25,
                             spec=CdVariationSpec(sigma_random_nm=1.5,
                                                  sigma_correlated_nm=1.5))
        # Corners (all gates simultaneously +-6nm) must bound the MC spread.
        assert corners["slow"] <= mc.min_wns
        assert mc.mean_wns <= corners["fast"]

    def test_mc_reproducible(self, lib, liberty, model):
        engine = make_engine(inverter_chain(5), lib, liberty, placed=False)
        a = run_monte_carlo(engine, model, samples=10)
        b = run_monte_carlo(engine, model, samples=10)
        assert a.wns_samples == b.wns_samples

    def test_mc_statistics(self, lib, liberty, model):
        engine = make_engine(inverter_chain(5), lib, liberty, placed=False)
        mc = run_monte_carlo(engine, model, samples=30)
        assert mc.sigma_wns > 0
        assert mc.min_wns <= mc.percentile_wns(1) <= mc.percentile_wns(99)

    def test_base_derates_compose(self, lib, liberty, model):
        engine = make_engine(inverter_chain(5), lib, liberty, placed=False)
        slow_base = {
            f"inv{i}": InstanceDerate(delay_rise_scale=1.5, delay_fall_scale=1.5)
            for i in range(5)
        }
        plain = run_monte_carlo(engine, model, samples=5)
        derated = run_monte_carlo(engine, model, samples=5, base_derates=slow_base)
        assert derated.mean_wns < plain.mean_wns
