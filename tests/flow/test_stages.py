"""Tests for the stage-graph flow engine.

Covers the artifact cache (hits on repeated configs, invalidation when a
stage's config slice changes), serial-vs-parallel numerical parity on a
forced multi-tile setup, the sweep's artifact sharing, and the small
supporting pieces (stable_hash, FlowContext, ParallelExecutor, FlowTrace).
"""

import dataclasses
import json

import pytest

from repro.cells import build_library
from repro.circuits import c17, inverter_chain
from repro.flow import (
    FlowConfig,
    FlowContext,
    FlowSweep,
    FlowTrace,
    ParallelExecutor,
    PostOpcTimingFlow,
    split_chunks,
    stable_hash,
)
from repro.litho import LithographySimulator, ProcessCondition
from repro.pdk import make_tech_90nm


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


def _scale_chunk(payload):
    """Module-level so the process backend can pickle it."""
    shared, chunk = payload
    return [shared * x for x in chunk]


def small_tile_simulator(tech):
    """A simulator whose tile grid splits even c17 into many tiles."""
    sim = LithographySimulator.for_tech(tech, ambit=600.0, max_tile_px=192)
    sim.calibrate_to_anchor(tech.rules.gate_length, tech.rules.poly_pitch)
    return sim


class TestStableHash:
    def test_deterministic(self):
        cfg = FlowConfig(opc_mode="rule", clock_period_ps=500)
        assert stable_hash(cfg) == stable_hash(
            FlowConfig(opc_mode="rule", clock_period_ps=500))

    def test_field_sensitivity(self):
        a = FlowConfig(opc_mode="rule")
        b = FlowConfig(opc_mode="model")
        assert stable_hash(a) != stable_hash(b)

    def test_mapping_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_sequence_order_sensitive(self):
        assert stable_hash([1, 2]) != stable_hash([2, 1])

    def test_condition_hashable(self):
        a = ProcessCondition(dose=1.0, defocus_nm=0.0)
        b = ProcessCondition(dose=0.95, defocus_nm=80.0)
        assert stable_hash(a) != stable_hash(b)


class TestFlowContext:
    def test_memo_computes_once(self):
        ctx = FlowContext()
        calls = []
        for _ in range(3):
            ctx.memo("opc.rule_base", "k1", lambda: calls.append(1) or "mask")
        assert len(calls) == 1
        assert ctx.hits["opc.rule_base"] == 2
        assert ctx.misses["opc.rule_base"] == 1

    def test_lookup_miss_returns_sentinel(self):
        from repro.flow.context import MISSING

        assert FlowContext().lookup("absent") is MISSING


class TestParallelExecutor:
    def test_split_chunks_balanced(self):
        assert split_chunks(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
        assert split_chunks([], 4) == []
        assert split_chunks([1], 8) == [[1]]

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor("gpu")

    def test_map_chunks_order_preserved(self):
        tasks = list(range(11))
        expected = [3 * x for x in tasks]
        for backend in ("serial", "thread", "process"):
            ex = ParallelExecutor(backend, jobs=3)
            assert ex.map_chunks(_scale_chunk, 3, tasks) == expected

    def test_from_jobs(self):
        assert ParallelExecutor.from_jobs(1).backend == "serial"
        assert ParallelExecutor.from_jobs(4).backend == "process"


class TestFlowTrace:
    def test_roundtrip_and_totals(self, tmp_path):
        trace = FlowTrace()
        trace.add("place", 0.5, cache_hit=False, counters={"gates": 6})
        trace.add("opc", 1.5, cache_hit=True)
        assert trace.cache_hits == 1 and trace.cache_misses == 1
        assert trace.total_wall_s == pytest.approx(2.0)
        assert trace.runtimes() == {"place": 0.5, "opc": 1.5}
        out = tmp_path / "trace.json"
        trace.write_json(str(out))
        payload = json.loads(out.read_text())
        assert [s["name"] for s in payload["stages"]] == ["place", "opc"]
        assert payload["stages"][0]["counters"] == {"gates": 6}


class TestArtifactCache:
    @pytest.fixture(scope="class")
    def flow(self, tech, lib):
        return PostOpcTimingFlow(inverter_chain(3), tech, cells=lib)

    def test_repeat_run_hits_cache(self, flow):
        config = FlowConfig(opc_mode="none", clock_period_ps=400)
        first = flow.run(config)
        second = flow.run(config)
        assert all(not r.cache_hit for r in first.trace)
        assert all(r.cache_hit for r in second.trace)
        assert second.wns_post == first.wns_post
        assert second.measurements == first.measurements
        assert second.leakage_post == first.leakage_post

    def test_condition_change_invalidates_downstream_only(self, flow):
        base = FlowConfig(opc_mode="none", clock_period_ps=400)
        flow.run(base)
        shifted = dataclasses.replace(
            base, condition=ProcessCondition(dose=0.97, defocus_nm=60.0))
        report = flow.run(shifted)
        by_name = {r.name: r for r in report.trace}
        # Upstream stages don't depend on the process condition...
        assert by_name["place"].cache_hit
        assert by_name["sta_drawn"].cache_hit
        assert by_name["tag_critical"].cache_hit
        # ...but metrology and everything fed by it must recompute.
        assert not by_name["metrology"].cache_hit
        assert not by_name["back_annotate"].cache_hit
        assert not by_name["sta_post"].cache_hit

    def test_period_change_is_free(self, flow):
        """STA is cached period-independently and rebased on assembly."""
        a = flow.run(FlowConfig(opc_mode="none", clock_period_ps=400))
        b = flow.run(FlowConfig(opc_mode="none", clock_period_ps=800))
        assert all(r.cache_hit for r in b.trace)
        assert b.wns_drawn == pytest.approx(a.wns_drawn + 400)
        assert b.wns_post == pytest.approx(a.wns_post + 400)

    def test_auto_period_from_drawn_sta(self, tech, lib):
        flow = PostOpcTimingFlow(inverter_chain(3), tech, cells=lib)
        report = flow.run(FlowConfig(opc_mode="none", clock_period_ps=None))
        # Auto period = margin x drawn critical delay -> small positive WNS.
        assert report.drawn_sta.clock_period_ps > 0
        assert report.wns_drawn > 0
        assert report.wns_drawn < 0.2 * report.drawn_sta.clock_period_ps


class TestSweepSharing:
    def test_four_modes_one_placement_one_drawn_sta(self, tech, lib):
        flow = PostOpcTimingFlow(c17(lib), tech, cells=lib)
        result = FlowSweep(flow).run(FlowConfig(clock_period_ps=500))
        assert result.modes == ["none", "rule", "model", "selective"]
        ctx = flow.context
        assert ctx.misses["place"] == 1 and ctx.hits["place"] == 3
        assert ctx.misses["sta_drawn"] == 1 and ctx.hits["sta_drawn"] == 3
        assert ctx.misses["tag_critical"] == 1 and ctx.hits["tag_critical"] == 3
        # rule/model/selective share one rule-OPC base computation.
        assert ctx.misses["opc.rule_base"] == 1
        assert ctx.hits["opc.rule_base"] == 2
        assert ctx.consistency() == []
        # Every mode produced a full report over the same drawn baseline.
        drawn = {r.wns_drawn for r in result.reports.values()}
        assert len(drawn) == 1
        assert "OPC-mode sweep" in result.table()


class TestSerialParallelParity:
    @pytest.fixture(scope="class")
    def reports(self, tech, lib):
        """Run the identical multi-tile selective flow serially and parallel."""
        config = FlowConfig(opc_mode="selective", clock_period_ps=500,
                            n_critical_paths=2)
        out = {}
        for label, kwargs in {
            "serial": dict(jobs=1),
            "process": dict(jobs=2),
            "thread": dict(executor=ParallelExecutor("thread", 2)),
        }.items():
            flow = PostOpcTimingFlow(c17(lib), tech, cells=lib,
                                     simulator=small_tile_simulator(tech),
                                     **kwargs)
            out[label] = flow.run(config)
        return out

    def test_multiple_tiles_exercised(self, reports):
        counters = reports["serial"].trace.record_for("metrology").counters
        assert counters["tiles"] > 1

    def test_parallel_backends_bit_identical(self, reports):
        ref = reports["serial"]
        for label in ("process", "thread"):
            got = reports[label]
            assert got.wns_post == ref.wns_post
            assert got.wns_drawn == ref.wns_drawn
            assert got.leakage_post == ref.leakage_post
            assert got.mask_polygons == ref.mask_polygons
            assert got.measurements.keys() == ref.measurements.keys()
            for name, m in ref.measurements.items():
                assert got.measurements[name].slice_cds == m.slice_cds
