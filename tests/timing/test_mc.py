"""Regression tests for Monte-Carlo statistical timing.

Pins the empty-result behaviour (a clear ``ValueError("no samples")``
instead of ``ZeroDivisionError``/bare ``ValueError`` from the arithmetic),
the nearest-rank percentile definition (the old ``int`` truncation was
biased one order statistic high), the sticky ``failed`` flag through
derate composition (an earlier inline composition dropped
``sampled.failed`` whenever base derates were present), the
correlated-field normalization (the raw ``cos*cos`` wave delivered only
half the requested correlated sigma), the spec's validation, and the
batched draw, sample by sample, against the per-gate formula it replaced.
"""

import math
import random
import statistics

import numpy as np
import pytest

from repro.cells import build_library
from repro.circuits import c17, inverter_chain, random_logic, structured_asic
from repro.device import AlphaPowerModel
from repro.pdk import make_tech_90nm
from repro.place import place_rows
from repro.timing import (
    InstanceDerate,
    StaEngine,
    characterize_library,
    compose_derates,
    run_monte_carlo,
)
from repro.timing import mc
from repro.timing.mc import (
    MC_BATCH,
    CdVariationSpec,
    MonteCarloResult,
    draw_delta_l,
    sample_instance_deltas,
)


@pytest.fixture(scope="module")
def empty():
    return MonteCarloResult()


class TestEmptyResult:
    def test_mean_raises_clearly(self, empty):
        with pytest.raises(ValueError, match="no samples"):
            empty.mean_wns

    def test_sigma_raises_clearly(self, empty):
        with pytest.raises(ValueError, match="no samples"):
            empty.sigma_wns

    def test_min_raises_clearly(self, empty):
        with pytest.raises(ValueError, match="no samples"):
            empty.min_wns

    def test_percentile_raises_clearly(self, empty):
        with pytest.raises(ValueError, match="no samples"):
            empty.percentile_wns(50)

    def test_zero_sample_run_returns_empty_result(self):
        tech = make_tech_90nm()
        lib = build_library(tech)
        model = AlphaPowerModel(tech.device)
        engine = StaEngine(inverter_chain(2), lib,
                           characterize_library(lib, model), None)
        result = run_monte_carlo(engine, model, samples=0)
        assert result.wns_samples == []
        with pytest.raises(ValueError, match="no samples"):
            result.mean_wns


class TestNearestRankPercentile:
    @pytest.fixture(scope="class")
    def ten(self):
        # Deliberately unsorted: percentile must sort internally.
        return MonteCarloResult(wns_samples=[7.0, 2.0, 9.0, 4.0, 1.0,
                                             8.0, 3.0, 10.0, 5.0, 6.0])

    def test_median_is_fifth_order_statistic(self, ten):
        # Nearest rank: ceil(0.5 * 10) = 5th smallest, not the 6th.
        assert ten.percentile_wns(50) == 5.0

    def test_q0_is_minimum(self, ten):
        assert ten.percentile_wns(0) == 1.0

    def test_q100_is_maximum(self, ten):
        assert ten.percentile_wns(100) == 10.0

    def test_intermediate_rank(self, ten):
        assert ten.percentile_wns(30) == 3.0  # ceil(3.0) = 3rd smallest
        assert ten.percentile_wns(31) == 4.0  # ceil(3.1) = 4th smallest

    def test_single_sample_any_q(self):
        one = MonteCarloResult(wns_samples=[42.0])
        for q in (0, 25, 50, 75, 100):
            assert one.percentile_wns(q) == 42.0

    def test_out_of_range_q_rejected(self, ten):
        with pytest.raises(ValueError, match="percentile"):
            ten.percentile_wns(-1)
        with pytest.raises(ValueError, match="percentile"):
            ten.percentile_wns(101)

    def test_summary_stats_still_work(self, ten):
        assert ten.mean_wns == pytest.approx(5.5)
        assert ten.min_wns == 1.0
        assert ten.sigma_wns == pytest.approx(2.8722813, rel=1e-6)


class TestComposeDerates:
    def test_scales_multiply(self):
        a = InstanceDerate(delay_rise_scale=1.1, delay_fall_scale=1.2,
                           cap_scale=1.3)
        b = InstanceDerate(delay_rise_scale=0.9, delay_fall_scale=1.1,
                           cap_scale=1.0)
        c = compose_derates(a, b)
        assert c.delay_rise_scale == pytest.approx(1.1 * 0.9)
        assert c.delay_fall_scale == pytest.approx(1.2 * 1.1)
        assert c.cap_scale == pytest.approx(1.3)
        assert not c.failed

    @pytest.mark.parametrize("prior,sampled,expect", [
        (True, False, True),
        (False, True, True),   # the regression: sampled.failed was dropped
        (True, True, True),
        (False, False, False),
    ])
    def test_failed_flag_is_sticky(self, prior, sampled, expect):
        composed = compose_derates(InstanceDerate(failed=prior),
                                   InstanceDerate(failed=sampled))
        assert composed.failed is expect

    def test_sampled_failure_survives_mc_with_base_derates(self):
        """End-to-end regression: a base-derated instance whose sampled CD
        collapses must stay failed inside run_monte_carlo."""
        tech = make_tech_90nm()
        lib = build_library(tech)
        model = AlphaPowerModel(tech.device)
        netlist = inverter_chain(3)
        engine = StaEngine(netlist, lib, characterize_library(lib, model), None)
        base = {name: InstanceDerate(delay_rise_scale=1.02,
                                     delay_fall_scale=1.02)
                for name in netlist.gates}
        constraints = None
        plain = run_monte_carlo(engine, model, samples=3, constraints=constraints)
        with_base = run_monte_carlo(engine, model, samples=3,
                                    constraints=constraints, base_derates=base)
        # base derates slow every instance: every sample's WNS shrinks
        for p, w in zip(plain.wns_samples, with_base.wns_samples):
            assert w < p


class TestCorrelatedFieldNormalization:
    @pytest.fixture(scope="class")
    def placed_fabric(self):
        tech = make_tech_90nm()
        lib = build_library(tech)
        netlist = structured_asic(400, seed=5)
        return netlist, place_rows(netlist, lib)

    def test_correlated_sigma_delivered(self, placed_fabric):
        """Over many samples, the per-gate delta variance must match
        sigma_correlated^2 + sigma_random^2 — not the /4-deficient value
        the unnormalized cos*cos wave delivered."""
        netlist, placement = placed_fabric
        spec = CdVariationSpec(mean_nm=0.0, sigma_random_nm=1.0,
                               sigma_correlated_nm=3.0,
                               correlation_length_nm=20_000.0, seed=9)
        values = []
        for index in range(400):
            deltas = sample_instance_deltas(netlist, placement, spec, index)
            values.extend(deltas.values())
        sigma = statistics.pstdev(values)
        expected = math.sqrt(spec.sigma_correlated_nm ** 2
                             + spec.sigma_random_nm ** 2)
        deficient = math.sqrt(spec.sigma_correlated_nm ** 2 / 4
                              + spec.sigma_random_nm ** 2)
        # well clear of the old /4-deficient sigma (~1.8 vs ~3.16)
        assert sigma == pytest.approx(expected, rel=0.10)
        assert abs(sigma - deficient) > 0.8

    def test_zero_correlated_sigma_unaffected(self, placed_fabric):
        netlist, placement = placed_fabric
        spec = CdVariationSpec(sigma_random_nm=1.0, sigma_correlated_nm=0.0,
                               seed=9)
        deltas = sample_instance_deltas(netlist, placement, spec, 0)
        sigma = statistics.pstdev(deltas.values())
        assert sigma == pytest.approx(1.0, rel=0.2)

    def test_spatially_smooth(self, placed_fabric):
        """Neighbouring gates share most of their correlated component."""
        netlist, placement = placed_fabric
        spec = CdVariationSpec(sigma_random_nm=0.0, sigma_correlated_nm=2.0,
                               correlation_length_nm=200_000.0, seed=3)
        deltas = sample_instance_deltas(netlist, placement, spec, 1)
        names = sorted(netlist.gates,
                       key=lambda n: (placement.gates[n].bbox.center.y,
                                      placement.gates[n].bbox.center.x))
        diffs = []
        for a, b in zip(names, names[1:]):
            ca = placement.gates[a].bbox.center
            cb = placement.gates[b].bbox.center
            if ca.y == cb.y and abs(cb.x - ca.x) < 3000:  # same-row neighbours
                diffs.append(abs(deltas[a] - deltas[b]))
        spread = max(deltas.values()) - min(deltas.values())
        assert diffs and max(diffs) < max(spread, 1e-9) * 0.2


def frozen_sample_instance_deltas(netlist, placement, spec, sample_index):
    """``sample_instance_deltas`` as it was when it read ``bbox.center``;
    kept verbatim so the inlined center cannot move a float or a draw."""
    rng = random.Random(spec.seed * 1_000_003 + sample_index)
    phase_x = rng.uniform(0, 2 * math.pi)
    phase_y = rng.uniform(0, 2 * math.pi)
    amplitude = rng.gauss(0.0, spec.sigma_correlated_nm)
    deltas = {}
    for gate_name in netlist.gates:
        correlated = 0.0
        if placement is not None and spec.sigma_correlated_nm > 0:
            center = placement.gates[gate_name].bbox.center
            wave = math.cos(
                2 * math.pi * center.x / spec.correlation_length_nm + phase_x
            ) * math.cos(2 * math.pi * center.y / spec.correlation_length_nm + phase_y)
            correlated = amplitude * 2.0 * wave
        elif spec.sigma_correlated_nm > 0:
            correlated = amplitude
        deltas[gate_name] = spec.mean_nm + correlated + rng.gauss(0.0, spec.sigma_random_nm)
    return deltas


class TestSampleDeltasPinned:
    @pytest.mark.parametrize("spec", [
        CdVariationSpec(seed=1),
        CdVariationSpec(mean_nm=-1.5, sigma_random_nm=0.5, sigma_correlated_nm=3.0,
                        correlation_length_nm=7_000.0, seed=4),
        CdVariationSpec(sigma_correlated_nm=0.0, seed=9),
    ])
    @pytest.mark.parametrize("placed", [True, False])
    def test_equals_frozen_formula(self, spec, placed):
        lib = build_library(make_tech_90nm())
        netlist = structured_asic(150, seed=2)
        placement = place_rows(netlist, lib) if placed else None
        for index in range(4):
            assert list(sample_instance_deltas(netlist, placement, spec, index).items()) == list(
                frozen_sample_instance_deltas(netlist, placement, spec, index).items())


class TestSpecValidation:
    @pytest.mark.parametrize("field,value", [
        ("correlation_length_nm", 0.0),
        ("correlation_length_nm", -5_000.0),
        ("correlation_length_nm", float("nan")),
        ("sigma_random_nm", -0.5),
        ("sigma_correlated_nm", -1.0),
        # a NaN sigma made every WNS sample NaN, and an infinite mean made
        # it -inf, because `min(...) < 0` is False for NaN and the mean
        # was not checked at all
        ("sigma_random_nm", float("nan")),
        ("sigma_correlated_nm", float("nan")),
        ("sigma_random_nm", float("inf")),
        ("sigma_correlated_nm", float("inf")),
        ("mean_nm", float("nan")),
        ("mean_nm", float("inf")),
        ("mean_nm", float("-inf")),
    ])
    def test_rejected_at_construction(self, field, value):
        # A zero length used to raise ZeroDivisionError in the middle of a
        # placed draw.
        with pytest.raises(ValueError, match=f"{field}.* must be"):
            CdVariationSpec(**{field: value})

    def test_zero_sigmas_are_valid(self):
        spec = CdVariationSpec(sigma_random_nm=0.0, sigma_correlated_nm=0.0)
        assert spec.sigma_random_nm == spec.sigma_correlated_nm == 0.0

    def test_infinite_correlation_length_is_a_uniform_offset(self):
        spec = CdVariationSpec(sigma_random_nm=0.0, correlation_length_nm=float("inf"))
        lib = build_library(make_tech_90nm())
        netlist = structured_asic(150, seed=2)
        deltas = sample_instance_deltas(netlist, place_rows(netlist, lib), spec, 0)
        assert len(set(deltas.values())) == 1
        assert math.isfinite(next(iter(deltas.values())))


@pytest.fixture(scope="module")
def library():
    tech = make_tech_90nm()
    lib = build_library(tech)
    return lib, characterize_library(lib, AlphaPowerModel(tech.device))


def assert_batch_matches_frozen(engine, spec, indices):
    """``draw_delta_l`` on the engine's cached centres, as ``run_monte_carlo``
    calls it, row by row against the per-gate formula; also in
    ``engine.nodes`` order through the cached gate order."""
    gates = mc._engine_gates(engine)
    batch = draw_delta_l(spec, indices, len(gates.order), gates.centres)
    assert batch.shape == (len(indices), len(engine.netlist.gates))
    by_node = batch.T[gates.order]
    for s, index in enumerate(indices):
        frozen = frozen_sample_instance_deltas(engine.netlist, engine.placement, spec, index)
        assert dict(zip(engine.netlist.gates, batch[s].tolist())) == frozen
        assert by_node[:, s].tolist() == [frozen[node.name] for node in engine.nodes]


class TestBatchedDraw:
    DESIGNS = {
        "c17": (lambda lib: c17(lib), True),               # 6 gates
        "rand21": (lambda lib: random_logic(21, seed=3), True),
        "chain7_unplaced": (lambda lib: inverter_chain(7), False),
    }

    @pytest.fixture(scope="class", params=sorted(DESIGNS))
    def engine(self, request, library):
        lib, liberty = library
        make, placed = self.DESIGNS[request.param]
        netlist = make(lib)
        return StaEngine(netlist, lib, liberty, place_rows(netlist, lib) if placed else None)

    @pytest.mark.parametrize("spec", [
        CdVariationSpec(seed=1),
        CdVariationSpec(mean_nm=-1.5, sigma_random_nm=0.5, sigma_correlated_nm=3.0,
                        correlation_length_nm=7_000.0, seed=4),
        CdVariationSpec(sigma_correlated_nm=0.0, seed=9),
        # seed * 1_000_003 + index > 2**32: a multi-word MT seed, as the
        # benchmark's specs (~4e11) use
        CdVariationSpec(seed=400_009),
    ], ids=["default", "short_field", "uncorrelated", "wide_seed"])
    @pytest.mark.parametrize("batch", [1, 7, MC_BATCH + 3])
    def test_equals_frozen_formula(self, engine, spec, batch):
        assert_batch_matches_frozen(engine, spec, range(5, 5 + batch))

    def test_indices_need_not_be_contiguous(self, engine):
        assert_batch_matches_frozen(engine, CdVariationSpec(seed=3), [9, 0, 4, 4])

    def test_empty_batch(self, engine):
        gates = mc._engine_gates(engine)
        empty = draw_delta_l(CdVariationSpec(), [], len(gates.order), gates.centres)
        assert empty.shape == (0, len(gates.order))


@pytest.mark.parametrize("cell_name", ["INV_X1", "NAND2_X1", "AOI21_X1"])
def test_array_derate_equals_the_float_call(library, cell_name):
    """Element by element, the length clamp included: an array ``delta_l``
    gives what the float call gives for each of its elements."""
    lib, _ = library
    model = AlphaPowerModel(make_tech_90nm().device)
    cell = lib[cell_name]
    rng = random.Random(11)
    delta_l = [[rng.gauss(-2.0, 6.0) for _ in range(5)] for _ in range(40)]
    delta_l[0][:2] = [-60.0, 0.0]  # below the clamp, and no shift
    derate = mc.derate_for_delta_l(cell, np.array(delta_l), model)
    for r, row in enumerate(delta_l):
        for s, value in enumerate(row):
            expected = mc.derate_for_delta_l(cell, value, model)
            assert (derate.delay_rise_scale[r, s], derate.delay_fall_scale[r, s],
                    derate.cap_scale[r, s]) == (expected.delay_rise_scale,
                                                expected.delay_fall_scale, expected.cap_scale)


@pytest.mark.slow
def test_fabric1k_draw_equals_frozen_formula(library):
    """64 samples of the 1k-gate fabric (500 Gaussian pairs per sample)."""
    lib, liberty = library
    netlist = structured_asic(1000, seed=1)
    engine = StaEngine(netlist, lib, liberty, place_rows(netlist, lib))
    assert_batch_matches_frozen(engine, CdVariationSpec(seed=100_004), range(64))
