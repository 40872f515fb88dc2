"""Property-style parity: ``run_incremental`` vs a full ``StaEngine.run``.

Exercises the incremental re-timing path on large registered vehicles
(the structured-ASIC fabric) under randomized mixed derates — delay
scales, ``cap_scale`` load changes, and ``failed`` quarantine flags — and
requires *bit-identical* arrivals, slews, predecessors and endpoint
slacks, not approximate agreement.  Covers both sides of the path
selection: large cones take one kernel pass, small cones the cone splice.
Also pins the reconvergent-fanout merge: a re-timed cone that rejoins
itself must not leave a stale worst-slew behind (the bug class this file
guards).  The kernel path's endpoints and dict key order are pinned
against the full run's.  The integer cone walk is checked against the set
walk it replaced.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import build_library
from repro.circuits import c17, random_logic, structured_asic
from repro.circuits.netlist import Netlist
from repro.device import AlphaPowerModel
from repro.pdk import make_tech_90nm
from repro.place import place_rows
from repro.timing import (
    InstanceDerate,
    StaEngine,
    TimingConstraints,
    affected_gates,
    characterize_library,
    diff_derates,
    retime,
    run_incremental,
)
from repro.timing.kernel import SampleKernel


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
def fabric_engine(lib, liberty):
    netlist = structured_asic(400, seed=3)
    placement = place_rows(netlist, lib)
    return netlist, StaEngine(netlist, lib, liberty, placement)


def assert_bit_identical(a, b):
    """Exact equality — the incremental contract is ==, not approx."""
    assert set(a.arrivals) == set(b.arrivals)
    assert a.arrivals == b.arrivals
    assert a.slews == b.slews
    assert a.predecessors == b.predecessors
    ea = sorted((e.net, e.transition, e.arrival, e.required) for e in a.endpoints)
    eb = sorted((e.net, e.transition, e.arrival, e.required) for e in b.endpoints)
    assert ea == eb
    assert a.wns == b.wns


def random_derates(netlist, rng, fraction, with_failed=True):
    """A mixed derate map over a random subset of instances."""
    names = sorted(netlist.gates)
    chosen = rng.sample(names, max(1, int(len(names) * fraction)))
    derates = {}
    for name in chosen:
        kind = rng.randrange(3 if with_failed else 2)
        if kind == 0:    # delay-only (the classic CD derate)
            scale = 1.0 + rng.uniform(-0.08, 0.12)
            derates[name] = InstanceDerate(delay_rise_scale=scale,
                                           delay_fall_scale=scale * 1.01)
        elif kind == 1:  # load change: ripples to the driver of each input
            derates[name] = InstanceDerate(cap_scale=1.0 + rng.uniform(-0.1, 0.2))
        else:            # quarantined instance
            derates[name] = InstanceDerate(failed=True)
    return derates


class TestFabricParity:
    # 1.0 is the flow's case: the sta_post stage derates every instance
    @pytest.mark.parametrize(
        "seed,fraction", [(11, 0.02), (12, 0.05), (13, 0.2), (14, 1.0)]
    )
    def test_mixed_derates_bit_identical(self, fabric_engine, seed, fraction):
        netlist, engine = fabric_engine
        constraints = TimingConstraints(clock_period_ps=900.0)
        baseline = engine.run(constraints)
        rng = random.Random(seed)
        derates = random_derates(netlist, rng, fraction)
        full = engine.run(constraints, derates)
        incremental = run_incremental(engine, baseline, diff_derates({}, derates),
                                      constraints, derates)
        assert_bit_identical(full, incremental)

    def test_two_step_retime(self, fabric_engine):
        """old -> new derate transitions (not just {} -> new)."""
        netlist, engine = fabric_engine
        constraints = TimingConstraints(clock_period_ps=900.0)
        rng = random.Random(21)
        old = random_derates(netlist, rng, 0.1)
        new = dict(old)
        # mutate a slice: drop some, change some, add some
        names = sorted(old)
        for name in names[::3]:
            del new[name]
        for name in names[1::3]:
            new[name] = InstanceDerate(delay_rise_scale=1.07, delay_fall_scale=1.07)
        new["b0_ff0"] = InstanceDerate(cap_scale=1.15)
        previous = engine.run(constraints, old)
        stepped = retime(engine, previous, old, new, constraints)
        full = engine.run(constraints, new)
        assert_bit_identical(full, stepped)

    def test_identity_derate_diff_is_empty(self):
        # an explicit identity entry is not a change
        assert diff_derates({}, {"g": InstanceDerate()}) == set()
        assert diff_derates({"g": InstanceDerate()}, {}) == set()

    def test_cone_is_register_bounded(self, fabric_engine, lib):
        """A stage-0 change stays inside stage 0 and its two banks.

        The closure may touch bank-0 flops (they drive the changed gate's
        inputs, so their load changes) and bank-1 flops (they capture
        stage-0 outputs), but it must never *cross* those registers into
        stage 1 or beyond — that containment is what keeps incremental
        re-timing cheap on a registered fabric.
        """
        netlist, engine = fabric_engine
        changed = next(name for name in netlist.gates if name.startswith("s0_"))
        cone = affected_gates(engine, {changed})
        allowed = ("s0_", "b0_", "b1_", "in_")
        offenders = [n for n in cone if not n.startswith(allowed)]
        assert offenders == []
        # and the cone is a small fraction of a 400-gate fabric
        assert len(cone) < len(netlist.gates) / 4


@pytest.fixture
def kernel_passes(monkeypatch):
    """The kernels that ran a ``SampleKernel.state`` pass, one entry per pass."""
    passes = []
    state = SampleKernel.state

    def counted(kernel, *args):
        passes.append(kernel)
        return state(kernel, *args)

    monkeypatch.setattr(SampleKernel, "state", counted)
    return passes


def nearest_gates(engine, pivot, k=24):
    """The ``k`` gates placed nearest ``pivot``: a localized what-if."""
    centers = {name: engine.placement.gates[name].bbox.center
               for name in engine.netlist.gates}
    at = centers[pivot]
    return set(sorted(centers, key=lambda n: (
        (centers[n].x - at.x) ** 2 + (centers[n].y - at.y) ** 2, n))[:k])


class TestPathSelection:
    """Large cones take one kernel pass, small ones the cone splice; both
    are == a full run."""

    CONSTRAINTS = TimingConstraints(clock_period_ps=900.0)

    def retime_from_scratch(self, engine, derates, changed=None):
        baseline = engine.run(self.CONSTRAINTS)
        if changed is None:
            changed = diff_derates({}, derates)
        return run_incremental(engine, baseline, changed, self.CONSTRAINTS, derates)

    @pytest.mark.parametrize("where", ["everywhere", "cluster"])
    def test_fabric_takes_the_kernel_path(self, fabric_engine, kernel_passes, where):
        netlist, engine = fabric_engine
        if where == "everywhere":
            derates = random_derates(netlist, random.Random(14), 1.0)
        else:
            derates = {name: InstanceDerate(1.06, 1.05, 1.03)
                       for name in nearest_gates(engine, "s1_c0_g0")}
        full = engine.run(self.CONSTRAINTS, derates)
        incremental = self.retime_from_scratch(engine, derates)
        assert len(kernel_passes) == 1
        assert_bit_identical(full, incremental)
        # the kernel writes its dicts in the full run's insertion order
        assert list(incremental.arrivals) == list(full.arrivals)
        assert list(incremental.predecessors) == list(full.predecessors)

    @pytest.mark.parametrize("design", ["c17", "random_logic20"])
    def test_small_designs_take_the_scalar_path(self, lib, liberty, kernel_passes,
                                                design):
        netlist = c17(lib) if design == "c17" else random_logic(20, seed=2)
        engine = StaEngine(netlist, lib, liberty, place_rows(netlist, lib))
        # every gate changes, so the cone is the whole design
        derates = random_derates(netlist, random.Random(5), 1.0)
        incremental = self.retime_from_scratch(engine, derates)
        assert kernel_passes == []
        assert engine._kernel is None
        assert_bit_identical(engine.run(self.CONSTRAINTS, derates), incremental)

    def test_entry_naming_no_gate_is_ignored_on_the_kernel_path(
            self, fabric_engine, kernel_passes):
        netlist, engine = fabric_engine
        derates = random_derates(netlist, random.Random(15), 1.0)
        changed = diff_derates({}, derates)
        derates["no_such_gate"] = InstanceDerate(2.0, 2.0, 2.0)
        incremental = self.retime_from_scratch(engine, derates, changed)
        assert len(kernel_passes) == 1
        assert_bit_identical(engine.run(self.CONSTRAINTS, derates), incremental)
        del derates["no_such_gate"]
        assert_bit_identical(engine.run(self.CONSTRAINTS, derates), incremental)

    def test_non_finite_scale_takes_the_scalar_path(self, fabric_engine, kernel_passes):
        netlist, engine = fabric_engine
        derates = random_derates(netlist, random.Random(16), 1.0, with_failed=False)
        derates["s1_c0_g0"] = InstanceDerate(delay_rise_scale=math.inf)
        incremental = self.retime_from_scratch(engine, derates)
        assert kernel_passes == []
        assert math.inf in incremental.arrivals.values()
        assert_bit_identical(engine.run(self.CONSTRAINTS, derates), incremental)

    def test_empty_change_set_builds_no_kernel(self, fabric_engine, lib, liberty,
                                               kernel_passes):
        netlist, built = fabric_engine
        engine = StaEngine(netlist, lib, liberty, built.placement)
        baseline = engine.run(self.CONSTRAINTS)
        incremental = run_incremental(engine, baseline, set(), self.CONSTRAINTS, {})
        assert kernel_passes == []
        assert engine._kernel is None
        assert_bit_identical(baseline, incremental)


class TestReconvergentFanout:
    """Targeted audit of the stale-slew merge on reconvergent fanout.

    Diamond: src drives two branches (fast buf / slow chain) that rejoin
    in one NAND2.  A derate on *one* branch changes the rejoin gate's
    worst input slew; the incremental merge must pick up the new worst
    even though the other branch's contribution was computed in the
    baseline pass.
    """

    @pytest.fixture(scope="class")
    def diamond(self, lib, liberty):
        nl = Netlist("diamond")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_gate("src", "NAND2_X1", {"A": "a", "B": "b", "Z": "mid"})
        nl.add_gate("fast", "BUF_X1", {"A": "mid", "Z": "p"})
        nl.add_gate("slow1", "INV_X1", {"A": "mid", "Z": "q1"})
        nl.add_gate("slow2", "INV_X1", {"A": "q1", "Z": "q"})
        nl.add_gate("join", "NAND2_X1", {"A": "p", "B": "q", "Z": "out"})
        nl.add_output("out")
        nl.validate(lib)
        return nl, StaEngine(nl, lib, liberty)

    @pytest.mark.parametrize("changed,scale", [
        ("fast", 1.5), ("slow1", 1.5), ("fast", 0.6), ("slow2", 2.0),
        ("src", 1.3),
    ])
    def test_branch_derate_reconverges_exactly(self, diamond, changed, scale):
        nl, engine = diamond
        constraints = TimingConstraints(clock_period_ps=500.0)
        baseline = engine.run(constraints)
        derates = {changed: InstanceDerate(delay_rise_scale=scale,
                                           delay_fall_scale=scale)}
        full = engine.run(constraints, derates)
        incremental = run_incremental(engine, baseline, {changed},
                                      constraints, derates)
        assert_bit_identical(full, incremental)

    def test_cap_change_on_branch_reaches_src(self, diamond):
        # cap_scale on a branch input changes the load seen by src: the
        # cone must include src and therefore both branches
        nl, engine = diamond
        cone = affected_gates(engine, {"fast"})
        assert {"fast", "src", "slow1", "slow2", "join"} <= cone
        constraints = TimingConstraints(clock_period_ps=500.0)
        baseline = engine.run(constraints)
        derates = {"fast": InstanceDerate(cap_scale=1.4)}
        full = engine.run(constraints, derates)
        incremental = run_incremental(engine, baseline, {"fast"},
                                      constraints, derates)
        assert_bit_identical(full, incremental)

    def test_failed_branch_reconverges_exactly(self, diamond):
        nl, engine = diamond
        constraints = TimingConstraints(clock_period_ps=500.0)
        baseline = engine.run(constraints)
        derates = {"slow1": InstanceDerate(failed=True)}
        full = engine.run(constraints, derates)
        incremental = run_incremental(engine, baseline, {"slow1"},
                                      constraints, derates)
        assert_bit_identical(full, incremental)


class TestKernelResult:
    """A kernel-path what-if is the full run's result: its endpoints come off
    the kernel's endpoint table, its dicts are in the full run's key order."""

    CONSTRAINTS = TimingConstraints(clock_period_ps=900.0)

    @pytest.fixture
    def pair(self, fabric_engine, kernel_passes):
        """(the kernel-path result, the full run) for a derated fabric."""
        netlist, engine = fabric_engine
        derates = random_derates(netlist, random.Random(31), 1.0)
        baseline = engine.run(self.CONSTRAINTS)
        result = run_incremental(engine, baseline, diff_derates({}, derates),
                                 self.CONSTRAINTS, derates)
        assert len(kernel_passes) == 1
        return result, engine.run(self.CONSTRAINTS, derates)

    def test_endpoints_in_full_run_order(self, pair):
        result, full = pair
        assert result.endpoints == full.endpoints  # same order, same required times
        assert (result.wns, result.tns, result.critical_delay) == (
            full.wns, full.tns, full.critical_delay)

    @pytest.mark.parametrize("name", ["arrivals", "slews", "predecessors"])
    def test_each_map_in_full_run_order(self, pair, name):
        result, full = pair
        assert list(getattr(result, name).items()) == list(getattr(full, name).items())

    def test_equals_the_full_result_at_any_period(self, pair):
        result, full = pair
        assert result == full
        assert result.with_clock_period(1234.0) == full.with_clock_period(1234.0)


def set_walk_closure(engine, changed_gates):
    """The set walk ``affected_gates`` replaced: the oracle for its cone."""
    driver_of = {node.out_net: node.name for node in engine.nodes}
    seeds = set(changed_gates)
    for gate_name in changed_gates:
        for net in engine.node(gate_name).sink_nets:
            if net in driver_of:
                seeds.add(driver_of[net])
    affected = set(seeds)
    dirty_nets = set()
    for node in engine.nodes:
        if node.name in affected:
            dirty_nets.add(node.out_net)
            continue
        if node.lib_cell.is_sequential:
            continue
        if not dirty_nets.isdisjoint(node.sink_nets):
            affected.add(node.name)
            dirty_nets.add(node.out_net)
    return affected


def shift_register(stages):
    """Registers feeding registers, with a NAND tap on every Q."""
    netlist = Netlist(f"shift{stages}")
    for net in ("ck", "a", "b"):
        netlist.add_input(net)
    prev = "a"
    for i in range(stages):
        netlist.add_gate(f"ff{i}", "DFF_X1", {"D": prev, "CK": "ck", "Q": f"q{i}"})
        netlist.add_gate(f"tap{i}", "NAND2_X1", {"A": f"q{i}", "B": "b", "Z": f"t{i}"})
        netlist.add_output(f"t{i}")
        prev = f"q{i}"
    return netlist


@pytest.fixture(scope="module")
def cone_engines(lib, liberty):
    """Unplaced engines: combinational random logic, registered fabrics and
    a shift register (a register's reader is a register)."""
    netlists = [random_logic(60, seed=seed) for seed in (1, 2)]
    netlists += [structured_asic(160, seed=seed) for seed in (1, 2, 5)]
    netlists.append(shift_register(6))
    return [StaEngine(netlist, lib, liberty) for netlist in netlists]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_integer_cone_equals_the_set_walk(cone_engines, data):
    engine = data.draw(st.sampled_from(cone_engines))
    names = sorted(engine.netlist.gates)
    registers = sorted(node.name for node in engine.registers)
    changed = set(data.draw(st.lists(st.sampled_from(names), max_size=6)))
    if registers:
        changed |= set(data.draw(st.lists(st.sampled_from(registers), max_size=3)))
    assert affected_gates(engine, changed) == set_walk_closure(engine, changed)
