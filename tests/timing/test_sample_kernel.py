"""Parity of the batched timing kernel with the scalar engine.

``run_monte_carlo`` and ``run_corners`` run every sample through
``repro.timing.kernel.SampleKernel``.  Each sample's WNS and critical delay
must equal, under ``==``, one ``StaEngine.run`` on derates built gate by
gate with ``derate_for_delta_l`` and ``compose_derates``.  A large what-if
through ``run_incremental`` is one single-sample kernel pass; its arrivals,
slews, predecessors and endpoints must equal a full ``StaEngine.run``.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cells import build_library
from repro.circuits import Netlist, c17, inverter_chain, random_logic, structured_asic
from repro.device import AlphaPowerModel
from repro.pdk import make_tech_90nm
from repro.place import place_rows
from repro.timing import (
    InstanceDerate,
    StaEngine,
    TimingConstraints,
    characterize_library,
    run_corners,
    run_incremental,
    run_monte_carlo,
)
from repro.timing import LibertyLibrary, mc
from repro.timing.kernel import SampleKernel, _AxisBank, _bracket, _merge, derate_columns
from repro.timing.liberty import _bracket as scalar_bracket
from repro.timing.mc import DEFAULT_CORNERS, MC_BATCH, CdVariationSpec, CornerSpec

CONSTRAINTS = TimingConstraints(clock_period_ps=450.0, input_slew_ps=42.0,
                                input_arrival_ps=5.0, output_load_ff=3.5)
CORNERS = DEFAULT_CORNERS + (CornerSpec("wild", 12.0),)
SPEC = CdVariationSpec(seed=7)


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


DESIGNS = {
    "c17": lambda lib: (c17(lib), True),
    "rand80": lambda lib: (random_logic(80, seed=5), True),
    "fabric200": lambda lib: (structured_asic(200), True),
    # no placement: the correlated component is one shared offset
    "chain_unplaced": lambda lib: (inverter_chain(12), False),
}


@pytest.fixture(scope="module", params=sorted(DESIGNS))
def engine(request, lib, liberty):
    netlist, placed = DESIGNS[request.param](lib)
    return StaEngine(netlist, lib, liberty, place_rows(netlist, lib) if placed else None)


def mixed_base(engine, seed=3):
    """Random base derates on every other gate: delay scales, ``cap_scale``
    != 1, and ``failed`` on every third of them."""
    rng = random.Random(seed)
    return {node.name: InstanceDerate(delay_rise_scale=rng.uniform(0.9, 1.15),
                                      delay_fall_scale=rng.uniform(0.9, 1.15),
                                      cap_scale=rng.uniform(0.85, 1.2),
                                      failed=k % 3 == 0)
            for k, node in enumerate(engine.nodes) if k % 2 == 0}


def scalar_derates(engine, model, deltas, base):
    derates = {}
    for node in engine.nodes:
        sampled = mc.derate_for_delta_l(node.cell, deltas[node.name], model)
        prior = base.get(node.name)
        derates[node.name] = sampled if prior is None else mc.compose_derates(prior, sampled)
    return derates


def scalar_monte_carlo(engine, model, samples, spec, constraints, base):
    """Per-sample (WNS, critical delay) through ``StaEngine.run``."""
    runs = [engine.run(constraints, scalar_derates(
        engine, model,
        mc.sample_instance_deltas(engine.netlist, engine.placement, spec, index), base))
        for index in range(samples)]
    return [r.wns for r in runs], [r.critical_delay for r in runs]


def scalar_corners(engine, model, constraints, corners):
    return {corner.name: engine.run(constraints, scalar_derates(
        engine, model, dict.fromkeys(engine.netlist.gates, corner.delta_l_nm), {})).wns
        for corner in corners}


@pytest.mark.parametrize("with_base", [False, True], ids=["no_base", "base"])
@pytest.mark.parametrize("samples", [0, 1, 7, MC_BATCH + 3])
def test_monte_carlo_matches_scalar(engine, model, samples, with_base):
    base = mixed_base(engine) if with_base else {}
    result = run_monte_carlo(engine, model, samples=samples, spec=SPEC,
                             constraints=CONSTRAINTS, base_derates=base)
    wns, critical = scalar_monte_carlo(engine, model, samples, SPEC, CONSTRAINTS, base)
    assert len(result.wns_samples) == samples
    assert result.wns_samples == wns
    assert result.critical_delay_samples == critical


def test_default_constraints_match_scalar(engine, model):
    result = run_monte_carlo(engine, model, samples=3, spec=SPEC)
    wns, critical = scalar_monte_carlo(engine, model, 3, SPEC, None, {})
    assert (result.wns_samples, result.critical_delay_samples) == (wns, critical)
    assert run_corners(engine, model) == scalar_corners(engine, model, None, DEFAULT_CORNERS)


def test_corners_match_scalar(engine, model):
    assert (run_corners(engine, model, CONSTRAINTS, CORNERS)
            == scalar_corners(engine, model, CONSTRAINTS, CORNERS))
    assert run_corners(engine, model, CONSTRAINTS, ()) == {}


def test_length_clamp_is_hit(lib, liberty, model, tech):
    netlist = structured_asic(200)
    engine = StaEngine(netlist, lib, liberty, place_rows(netlist, lib))
    spec = CdVariationSpec(mean_nm=-50.0, sigma_random_nm=4.0, seed=2)
    floor = 0.8 * tech.device.l_min - engine.nodes[0].cell.transistors[0].length
    lowest = min(min(mc.sample_instance_deltas(netlist, engine.placement, spec, i).values())
                 for i in range(5))
    assert lowest < floor
    result = run_monte_carlo(engine, model, samples=5, spec=spec, constraints=CONSTRAINTS,
                             base_derates=mixed_base(engine))
    assert (result.wns_samples, result.critical_delay_samples) == scalar_monte_carlo(
        engine, model, 5, spec, CONSTRAINTS, mixed_base(engine))


def test_derate_arrays_match_derate_for_delta_l(lib, liberty, model):
    """Element by element over a whole fabric: numpy's exp and power differ
    from libm in the last bit on some inputs, so swapping either in fails."""
    netlist = structured_asic(1000, seed=1)
    engine = StaEngine(netlist, lib, liberty, place_rows(netlist, lib))
    base = mixed_base(engine)
    draws = [mc.sample_instance_deltas(netlist, engine.placement,
                                       CdVariationSpec(seed=4, mean_nm=-3.0), i)
             for i in range(8)]
    delta_l = np.array([[d[node.name] for node in engine.nodes] for d in draws]).T.copy()
    rise, fall, cap = mc._delta_l_derates(engine, model, delta_l, derate_columns(engine, base))
    for s, deltas in enumerate(draws):
        expected = scalar_derates(engine, model, deltas, base)
        got = [(rise[g, s], fall[g, s], cap[g, s]) for g in range(len(engine.nodes))]
        assert got == [(expected[node.name].delay_rise_scale,
                        expected[node.name].delay_fall_scale,
                        expected[node.name].cap_scale) for node in engine.nodes]


def mixed_axis_liberty(lib, model):
    """Every other cell function characterized on a coarse grid, and every arc's slew
    tables on a third grid: tables of one level sit on different axes, and
    an arc's delay and slew tables do not share theirs."""
    fine = characterize_library(lib, model)
    coarse = characterize_library(lib, model, slews=(4.0, 50.0, 300.0), loads=(0.3, 6.0, 40.0))
    skewed = characterize_library(lib, model, slews=(8.0, 25.0, 70.0, 160.0, 400.0),
                                  loads=(0.7, 2.5, 9.0, 24.0))
    mixed = LibertyLibrary()
    bases = sorted({name.split("_")[0] for name in fine.cells})
    for name in sorted(fine.cells):
        cell = (fine if bases.index(name.split("_")[0]) % 2 else coarse)[name]
        arcs = [dataclasses.replace(arc, slew_rise=other.slew_rise, slew_fall=other.slew_fall)
                for arc, other in zip(cell.arcs, skewed[name].arcs)]
        mixed.add(dataclasses.replace(cell, arcs=arcs))
    return mixed


@pytest.mark.parametrize("design", ["rand80", "fabric200"])
def test_tables_on_different_axes_match_scalar(lib, model, design):
    netlist, _ = DESIGNS[design](lib)
    engine = StaEngine(netlist, lib, mixed_axis_liberty(lib, model), place_rows(netlist, lib))
    kernel = engine.sample_kernel()
    assert not np.array_equal(*kernel._pair)
    assert any(len(level.delay_axes.groups) > 1 for level in kernel._levels)
    result = run_monte_carlo(engine, model, samples=9, spec=SPEC, constraints=CONSTRAINTS,
                             base_derates=mixed_base(engine))
    assert (result.wns_samples, result.critical_delay_samples) == scalar_monte_carlo(
        engine, model, 9, SPEC, CONSTRAINTS, mixed_base(engine))
    assert (run_corners(engine, model, CONSTRAINTS, CORNERS)
            == scalar_corners(engine, model, CONSTRAINTS, CORNERS))


def test_bracket_matches_scalar_bracket():
    """Below, on and above each end, on interior grid points and between
    them, with rows on different axes (one of them a single point)."""
    axes = [(5.0, 15.0, 30.0, 60.0), (0.5, 2.0, 8.0), (7.0,)]
    values = [-1.0, 0.5, 2.0, 4.9, 5.0, 5.1, 7.0, 8.0, 15.0, 22.5, 30.0, 59.9, 60.0, 61.0, 1e9]
    ids = np.array([k % len(axes) for k in range(9)])
    x = np.array([values] * len(ids))
    i0, i1, t = _bracket(x, _AxisBank(axes).rows(ids))
    for row, axis in enumerate(ids):
        assert [(i0[row, s], i1[row, s], t[row, s]) for s in range(len(values))] == [
            scalar_bracket(axes[axis], value) for value in values]


@st.composite
def merges(draw):
    """Outputs of 1-5 arcs over 1-3 samples.  Candidates and slews are small
    integers, so ties on arrival and later winners with a smaller slew than
    the slew merged so far are frequent."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    samples = draw(st.integers(1, 3))
    value = st.integers(0, 3).map(float)
    grid = st.lists(st.lists(value, min_size=samples, max_size=samples),
                    min_size=sum(sizes), max_size=sum(sizes))
    return sizes, np.array(draw(grid)), np.array(draw(grid)), draw(st.integers(0, 40))


@given(merges())
def test_segmented_merge_matches_the_scalar_merge(case):
    """``_merge`` against ``StaEngine._propagate``'s loop: ``candidate >
    current`` takes the arc's arrival and slew, anything else merges the
    slew with ``max``."""
    sizes, candidate, out_slew, first_row = case
    starts = np.cumsum([0] + sizes[:-1])
    segment = np.repeat(np.arange(len(sizes)), sizes)
    row = np.arange(first_row, first_row + len(candidate))[:, None]
    arrival, slew, winner = _merge(candidate, out_slew, row, starts, segment)
    for k, (start, size) in enumerate(zip(starts, sizes)):
        for s in range(candidate.shape[1]):
            current, merged, won = -math.inf, None, None
            for r in range(start, start + size):
                if candidate[r, s] > current:
                    current, merged, won = candidate[r, s], out_slew[r, s], first_row + r
                else:
                    merged = max(merged, out_slew[r, s])
            assert (arrival[k, s], slew[k, s], winner[k, s]) == (current, merged, won)


def test_kernel_is_built_lazily_once(lib, liberty):
    engine = StaEngine(c17(lib), lib, liberty)
    assert engine._kernel is None
    kernel = engine.sample_kernel()
    assert engine.sample_kernel() is kernel


def test_no_endpoints_raises_like_the_scalar_engine(lib, liberty, model):
    netlist = Netlist("dangling")
    netlist.add_input("a")
    netlist.add_gate("g", "INV_X1", {"A": "a", "Z": "z"})
    engine = StaEngine(netlist, lib, liberty)
    with pytest.raises(ValueError, match="no endpoints"):
        engine.run().wns
    with pytest.raises(ValueError, match="no endpoints"):
        run_monte_carlo(engine, model, samples=2)
    assert run_monte_carlo(engine, model, samples=0).wns_samples == []


@pytest.mark.slow
def test_fabric1k_parity(lib, liberty, model):
    """64 samples and the three corners on the 1k-gate fabric."""
    netlist = structured_asic(1000, seed=1)
    engine = StaEngine(netlist, lib, liberty, place_rows(netlist, lib))
    base = mixed_base(engine)
    result = run_monte_carlo(engine, model, samples=64, spec=SPEC,
                             constraints=CONSTRAINTS, base_derates=base)
    assert (result.wns_samples, result.critical_delay_samples) == scalar_monte_carlo(
        engine, model, 64, SPEC, CONSTRAINTS, base)
    assert (run_corners(engine, model, CONSTRAINTS)
            == scalar_corners(engine, model, CONSTRAINTS, DEFAULT_CORNERS))


@pytest.mark.slow
def test_fabric1k_whatif_parity(lib, liberty, monkeypatch):
    """24 localized what-ifs on the 1k-gate fabric, each derating the 24
    gates placed nearest a random gate on top of a base annotation, all on
    the kernel path and each == a full ``StaEngine.run``."""
    netlist = structured_asic(1000, seed=1)
    engine = StaEngine(netlist, lib, liberty, place_rows(netlist, lib))
    passes = []
    state = SampleKernel.state

    def counted(kernel, *args):
        passes.append(kernel)
        return state(kernel, *args)

    monkeypatch.setattr(SampleKernel, "state", counted)
    base = mixed_base(engine)
    previous = engine.run(CONSTRAINTS, base)
    names = sorted(netlist.gates)
    centers = {name: engine.placement.gates[name].bbox.center for name in names}
    rng = random.Random(17)
    for _ in range(24):
        pivot = centers[rng.choice(names)]
        near = sorted(names, key=lambda n: (
            (centers[n].x - pivot.x) ** 2 + (centers[n].y - pivot.y) ** 2, n))[:24]
        scale = 1.0 + rng.uniform(0.02, 0.08)
        derates = dict(base)
        for name in near:
            old = base.get(name, InstanceDerate())
            derates[name] = dataclasses.replace(
                old, delay_rise_scale=old.delay_rise_scale * scale,
                delay_fall_scale=old.delay_fall_scale * scale,
                cap_scale=old.cap_scale * (1.0 + (scale - 1.0) / 2))
        result = run_incremental(engine, previous, set(near), CONSTRAINTS, derates)
        full = engine.run(CONSTRAINTS, derates)
        assert result.arrivals == full.arrivals
        assert result.slews == full.slews
        assert result.predecessors == full.predecessors
        assert result.endpoints == full.endpoints
    assert len(passes) == 24
