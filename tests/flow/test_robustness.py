"""Tests for preflight validation, per-gate quarantine with degraded
coverage, StageError wrapping, and partial-failure-safe sweeps."""

import math

import pytest

from repro.cells import build_library
from repro.circuits import Netlist, inverter_chain
from repro.flow import (
    FlowConfig,
    FlowContext,
    FlowSweep,
    InputValidationError,
    PostOpcTimingFlow,
    QuarantineExceededError,
    StageError,
)
from repro.geometry import Rect
from repro.litho import LithographySimulator
from repro.metrology.gate_cd import (
    GateCdMeasurement,
    measurement_fault,
    quarantine_measurements,
)
from repro.pdk import make_tech_90nm
from repro.timing import quarantine_derates
from repro.timing.sta import InstanceDerate


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


def _measurement(drawn=80.0, cds=(78.0, 79.0, 80.0)):
    return GateCdMeasurement(
        gate_rect=Rect(0, 0, drawn, 400),
        drawn_cd=drawn,
        slice_positions=list(range(len(cds))),
        slice_cds=list(cds),
    )


class TestMeasurementFault:
    def test_sound_measurement_passes(self):
        assert measurement_fault(_measurement()) is None

    def test_no_slices_is_fault(self):
        assert "slices" in measurement_fault(_measurement(cds=()))

    def test_non_finite_cd_is_fault(self):
        assert "non-finite" in measurement_fault(
            _measurement(cds=(78.0, float("nan"), 80.0)))
        assert "non-finite" in measurement_fault(
            _measurement(cds=(78.0, float("inf"), 80.0)))

    def test_negative_cd_is_fault(self):
        assert "negative" in measurement_fault(_measurement(cds=(78.0, -5.0)))

    def test_out_of_band_cd_is_fault(self):
        assert "outside" in measurement_fault(_measurement(cds=(900.0, 910.0)))
        assert "outside" in measurement_fault(_measurement(cds=(5.0, 6.0)))

    def test_catastrophic_open_is_not_quarantined(self):
        # CD 0.0 is real data: the printability-failure path owns it.
        assert measurement_fault(_measurement(cds=(0.0, 0.0, 0.0))) is None
        assert measurement_fault(_measurement(cds=(0.0, 78.0, 80.0))) is None

    def test_quarantine_split(self):
        measurements = {
            ("g1", "m0"): _measurement(),
            ("g2", "m0"): _measurement(cds=(float("nan"),)),
        }
        clean, faults = quarantine_measurements(measurements)
        assert set(clean) == {("g1", "m0")}
        assert set(faults) == {("g2", "m0")}


class TestQuarantineDerates:
    def test_physical_derates_pass(self):
        clean, faults = quarantine_derates({"g1": InstanceDerate(1.1, 0.9, 1.05)})
        assert set(clean) == {"g1"} and not faults

    def test_non_finite_scale_quarantined(self):
        derates = {
            "g1": InstanceDerate(float("nan"), 1.0, 1.0),
            "g2": InstanceDerate(1.0, float("inf"), 1.0),
            "g3": InstanceDerate(1.0, 1.0, 0.0),
            "ok": InstanceDerate(1.0, 1.0, 1.0),
        }
        clean, faults = quarantine_derates(derates)
        assert set(clean) == {"ok"}
        assert set(faults) == {"g1", "g2", "g3"}
        assert all("non-physical" in why for why in faults.values())


class TestPreflight:
    def test_empty_netlist_rejected(self, tech, lib):
        empty = Netlist(name="void")
        flow = PostOpcTimingFlow(empty, tech, cells=lib)
        with pytest.raises(InputValidationError, match="netlist"):
            flow.run(FlowConfig(opc_mode="none", clock_period_ps=400))

    def test_non_positive_tile_size_rejected(self, tech, lib):
        flow = PostOpcTimingFlow(inverter_chain(2), tech, cells=lib)
        flow.simulator.max_tile_px = 0
        try:
            with pytest.raises(InputValidationError, match="max_tile_px"):
                flow.run(FlowConfig(opc_mode="none", clock_period_ps=400))
        finally:
            flow.simulator.max_tile_px = 512

    @pytest.mark.parametrize("opc_mode", ["none", "rule", "model", "selective"])
    def test_tile_window_too_small_for_ambit(self, tech, lib, opc_mode):
        # metrology plans tiles in every OPC mode, so a tile that cannot
        # hold two ambits is rejected before any stage runs
        sim = LithographySimulator.for_tech(tech, ambit=3000.0, max_tile_px=64)
        flow = PostOpcTimingFlow(inverter_chain(2), tech, cells=lib, simulator=sim)
        with pytest.raises(InputValidationError, match="max_tile_px"):
            flow.run(FlowConfig(opc_mode=opc_mode, clock_period_ps=400))

    def test_sharded_run_skips_tile_check_without_model_opc(self, tech, lib):
        # a sharded rule-OPC run plans no tiles; a model-OPC run still does
        sim = LithographySimulator.for_tech(tech, ambit=3000.0, max_tile_px=64)
        flow = PostOpcTimingFlow(inverter_chain(2), tech, cells=lib, simulator=sim)
        flow.preflight(FlowConfig(opc_mode="rule", litho_shards=2))
        with pytest.raises(InputValidationError, match="max_tile_px"):
            flow.preflight(FlowConfig(opc_mode="model", litho_shards=2))

    @pytest.mark.parametrize("opc_mode", ["none", "rule"])
    def test_shard_window_too_small_for_ambit(self, tech, lib, opc_mode):
        # tiles of 2048 px fit a 5000 nm ambit; 1024 px shard windows do not
        sim = LithographySimulator.for_tech(tech, ambit=5000.0, max_tile_px=2048)
        flow = PostOpcTimingFlow(inverter_chain(2), tech, cells=lib, simulator=sim)
        flow.preflight(FlowConfig(opc_mode=opc_mode))
        with pytest.raises(InputValidationError, match="litho_shards"):
            flow.run(FlowConfig(opc_mode=opc_mode, clock_period_ps=400,
                                litho_shards=2))

    def test_bad_config_fields_named(self):
        with pytest.raises(InputValidationError, match="opc_mode"):
            FlowConfig(opc_mode="psm")
        with pytest.raises(InputValidationError, match="clock_period_ps"):
            FlowConfig(clock_period_ps=-1)
        with pytest.raises(InputValidationError, match="n_critical_paths"):
            FlowConfig(n_critical_paths=0)
        with pytest.raises(InputValidationError, match="n_slices"):
            FlowConfig(n_slices=0)
        with pytest.raises(InputValidationError, match="max_quarantine_fraction"):
            FlowConfig(max_quarantine_fraction=1.5)


def _poison_metrology(monkeypatch, poisoned_gates):
    """Make the metrology worker return NaN CDs for the given gates."""
    from repro.metrology.gate_cd import measure_tile_chunk as real_chunk

    def poisoned(payload):
        results = real_chunk(payload)
        for measured in results:
            for key, measurement in measured.items():
                if key[0] in poisoned_gates and measurement.slice_cds:
                    measurement.slice_cds[0] = float("nan")
        return results

    monkeypatch.setattr("repro.flow.stages.measure_tile_chunk", poisoned)


class TestFlowQuarantine:
    def test_bad_gate_degrades_coverage_not_run(self, tech, lib, monkeypatch):
        _poison_metrology(monkeypatch, {"inv0"})
        flow = PostOpcTimingFlow(inverter_chain(3), tech, cells=lib,
                                 context=FlowContext())
        report = flow.run(FlowConfig(opc_mode="none", clock_period_ps=400))
        assert report.quarantined_gates == ["inv0"]
        assert "non-finite" in report.quarantine_reasons["inv0"]
        assert report.coverage == pytest.approx(2 / 3)
        assert all(key[0] != "inv0" for key in report.measurements)
        assert math.isfinite(report.wns_post)
        assert report.trace.quarantined_gates >= 1
        assert "coverage" in report.summary()

    def test_threshold_exceeded_raises(self, tech, lib, monkeypatch):
        _poison_metrology(monkeypatch, {"inv0", "inv1"})
        flow = PostOpcTimingFlow(inverter_chain(3), tech, cells=lib,
                                 context=FlowContext())
        with pytest.raises(QuarantineExceededError) as excinfo:
            flow.run(FlowConfig(opc_mode="none", clock_period_ps=400,
                                max_quarantine_fraction=0.5))
        assert excinfo.value.fraction == pytest.approx(2 / 3)
        assert excinfo.value.quarantined == ["inv0", "inv1"]

    def test_threshold_at_one_never_raises(self, tech, lib, monkeypatch):
        _poison_metrology(monkeypatch, {"inv0", "inv1"})
        flow = PostOpcTimingFlow(inverter_chain(3), tech, cells=lib,
                                 context=FlowContext())
        report = flow.run(FlowConfig(opc_mode="none", clock_period_ps=400,
                                     max_quarantine_fraction=1.0))
        assert len(report.quarantined_gates) == 2
        assert report.coverage == pytest.approx(1 / 3)

    def test_clean_run_has_full_coverage(self, tech, lib):
        flow = PostOpcTimingFlow(inverter_chain(2), tech, cells=lib)
        report = flow.run(FlowConfig(opc_mode="none", clock_period_ps=400))
        assert report.coverage == 1.0
        assert report.quarantined_gates == []
        assert report.trace.quarantined_gates == 0

    def test_markdown_report_carries_coverage(self, tech, lib, monkeypatch):
        from repro.analysis.flow_report import flow_report_markdown

        _poison_metrology(monkeypatch, {"inv0"})
        flow = PostOpcTimingFlow(inverter_chain(3), tech, cells=lib,
                                 context=FlowContext())
        report = flow.run(FlowConfig(opc_mode="none", clock_period_ps=400))
        text = flow_report_markdown(report)
        assert "Extraction coverage" in text
        assert "`inv0`" in text


class TestStageErrorWrapping:
    def test_failing_stage_wrapped_with_stage_and_key(self, tech, lib, monkeypatch):
        def explode(payload):
            raise RuntimeError("cosmic ray")

        monkeypatch.setattr("repro.flow.stages.measure_tile_chunk", explode)
        flow = PostOpcTimingFlow(inverter_chain(2), tech, cells=lib,
                                 context=FlowContext())
        with pytest.raises(StageError) as excinfo:
            flow.run(FlowConfig(opc_mode="none", clock_period_ps=400))
        assert excinfo.value.stage == "metrology"
        assert excinfo.value.key
        assert isinstance(excinfo.value.cause, RuntimeError)
        assert isinstance(excinfo.value.__cause__, RuntimeError)


class _OneModeFails:
    """Stand-in flow: raises for one mode, returns a sentinel otherwise."""

    def __init__(self, failing_mode):
        self.failing_mode = failing_mode
        self.context = FlowContext()
        self.ran = []

    def run(self, config, journal=None, interrupt=None):
        self.ran.append(config.opc_mode)
        if config.opc_mode == self.failing_mode:
            raise RuntimeError(f"{config.opc_mode} exploded")
        return f"report-{config.opc_mode}"


class TestSweepPartialFailure:
    def test_raising_mode_keeps_completed_reports(self):
        flow = _OneModeFails("model")
        result = FlowSweep(flow, modes=("none", "rule", "model", "selective")).run()
        assert flow.ran == ["none", "rule", "model", "selective"]
        assert set(result.reports) == {"none", "rule", "selective"}
        assert set(result.failures) == {"model"}
        assert "exploded" in result.failures["model"]

    def test_real_sweep_survives_quarantine_failure(self, tech, lib, monkeypatch):
        # Poison every gate: each mode trips the quarantine threshold, but
        # the sweep still returns (with every failure captured) instead of
        # discarding completed work.
        _poison_metrology(monkeypatch, {"inv0", "inv1"})
        flow = PostOpcTimingFlow(inverter_chain(2), tech, cells=lib,
                                 context=FlowContext())
        result = FlowSweep(flow, modes=("none", "rule")).run(
            FlowConfig(opc_mode="none", clock_period_ps=400,
                       max_quarantine_fraction=0.1))
        assert result.reports == {}
        assert set(result.failures) == {"none", "rule"}
        assert all("QuarantineExceededError" in f for f in result.failures.values())

    def test_table_renders_survivors_plus_failure_footer(self, tech, lib):
        flow = PostOpcTimingFlow(inverter_chain(2), tech, cells=lib,
                                 context=FlowContext())
        result = FlowSweep(flow, modes=("none",)).run(
            FlowConfig(opc_mode="none", clock_period_ps=400))
        result.failures["model"] = "RuntimeError: boom"
        text = result.table()
        assert "none" in text
        assert "failed modes (1):" in text
        assert "model: RuntimeError: boom" in text

    def test_clean_sweep_has_no_failures(self, tech, lib):
        flow = PostOpcTimingFlow(inverter_chain(2), tech, cells=lib,
                                 context=FlowContext())
        result = FlowSweep(flow, modes=("none", "rule")).run(
            FlowConfig(opc_mode="none", clock_period_ps=400))
        assert result.failures == {}
        assert "failed modes" not in result.table()
