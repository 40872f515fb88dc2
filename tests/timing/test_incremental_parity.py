"""Property-style parity: ``run_incremental`` vs a full ``StaEngine.run``.

Exercises the incremental re-timing path on large registered vehicles
(the structured-ASIC fabric) under randomized mixed derates — delay
scales, ``cap_scale`` load changes, and ``failed`` quarantine flags — and
requires *bit-identical* arrivals, slews, and endpoint slacks, not
approximate agreement.  Also pins the reconvergent-fanout merge: a
re-timed cone that rejoins itself must not leave a stale worst-slew
behind (the bug class this file guards).
"""

import random

import pytest

from repro.cells import build_library
from repro.circuits import structured_asic
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
