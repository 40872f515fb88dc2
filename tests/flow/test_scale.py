"""Scale path through the flow: sharded metrology + incremental STA.

The fast tests pin the wiring on a small design: the ``sta_post`` stage's
incremental re-time is bit-identical to a full engine run, sharded metrology
feeds the same back-annotation contract, and the shard count participates
in the stage cache key (shard windows measure slightly different CDs than
512-pixel tiles, so the two must never share cache entries).

The ``slow``-marked class is the CI ``scale-smoke`` job: a 1k-gate
structured-ASIC vehicle end-to-end with ``litho_shards``, the cached
rerun, and serial-vs-process dispatch identity of the shard plan.
"""

import pytest

from repro.cells import build_library
from repro.circuits import c17, structured_asic
from repro.flow import FlowConfig, FlowTrace, ParallelExecutor, PostOpcTimingFlow
from repro.flow.stages import CANONICAL_PERIOD_PS
from repro.metrology import plan_metrology_shards
from repro.metrology.gate_cd import measure_tile_chunk
from repro.pdk import make_tech_90nm
from repro.timing import TimingConstraints


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


def _sta_equal(a, b):
    assert a.arrivals == b.arrivals
    assert a.slews == b.slews
    ea = sorted((e.net, e.transition, e.arrival, e.required) for e in a.endpoints)
    eb = sorted((e.net, e.transition, e.arrival, e.required) for e in b.endpoints)
    assert ea == eb


def _stage_record(report, name):
    records = [r for r in report.trace if r.name == name]
    assert records, f"no {name} record in trace"
    return records[-1]


class TestShardedFlowFast:
    @pytest.fixture(scope="class")
    def flow(self, tech, lib):
        return PostOpcTimingFlow(c17(lib), tech, cells=lib)

    def test_sta_post_matches_full_engine_run(self, flow):
        """The stage's incremental re-time equals a full engine run."""
        config = FlowConfig(opc_mode="rule")
        trace = FlowTrace()
        artifacts = flow.graph.execute(flow, config, flow.context, trace)
        full = flow.engine.run(
            TimingConstraints(clock_period_ps=CANONICAL_PERIOD_PS),
            artifacts["derates"],
        )
        post = artifacts["post_sta"]
        _sta_equal(full, post)
        assert full.predecessors == post.predecessors
        record = [r for r in trace if r.name == "sta_post"][-1]
        assert record.counters["retimed_instances"] == len(flow.netlist.gates)

    def test_sharded_metrology_end_to_end(self, flow):
        report = flow.run(FlowConfig(opc_mode="rule", litho_shards=2))
        assert report.coverage == 1.0
        record = _stage_record(report, "metrology")
        assert record.counters.get("litho_shards", 0) >= 1
        # same gates measured as the tile path
        tile = flow.run(FlowConfig(opc_mode="rule", litho_shards=0))
        assert set(report.measurements) == set(tile.measurements)

    def test_shard_count_is_a_cache_key(self, flow):
        config = FlowConfig(opc_mode="rule", litho_shards=2)
        flow.run(config)
        replay = flow.run(config)
        assert _stage_record(replay, "metrology").cache_hit
        other = flow.run(FlowConfig(opc_mode="rule", litho_shards=3))
        # a different shard count must recompute, not reuse
        assert not _stage_record(other, "metrology").cache_hit

    def test_negative_shards_rejected(self):
        from repro.flow import InputValidationError

        with pytest.raises(InputValidationError):
            FlowConfig(litho_shards=-1)


@pytest.mark.slow
@pytest.mark.timeout(3600)
class TestScaleSmoke1k:
    """The CI scale-smoke vehicle: 1k gates, sharded litho, e2e."""

    VEHICLE = 1000
    SHARDS = 4

    @pytest.fixture(scope="class")
    def flow_and_report(self, tech, lib):
        netlist = structured_asic(self.VEHICLE)
        flow = PostOpcTimingFlow(netlist, tech, cells=lib)
        config = FlowConfig(opc_mode="rule", litho_shards=self.SHARDS)
        report = flow.run(config)
        return flow, config, report

    def test_e2e_completes_with_full_coverage(self, flow_and_report):
        _, _, report = flow_and_report
        assert report.coverage >= 0.95
        assert report.wns_post == report.wns_post  # not NaN
        record = _stage_record(report, "metrology")
        assert record.counters.get("litho_shards", 0) >= self.SHARDS
        assert record.counters["gates_measured"] > 0

    def test_incremental_sta_post_was_used(self, flow_and_report):
        _, _, report = flow_and_report
        record = _stage_record(report, "sta_post")
        assert record.counters.get("retimed_instances", 0) > 0

    def test_cached_rerun_hits_90_percent(self, flow_and_report):
        flow, config, report = flow_and_report
        replay = flow.run(config)
        hits = replay.trace.cache_hits
        assert hits / len(replay.trace) >= 0.9
        _sta_equal(report.post_sta, replay.post_sta)

    def test_shard_dispatch_serial_vs_process_identical(self, flow_and_report,
                                                        tech, lib):
        """The same 1k shard plan through serial and 2-process dispatch."""
        from repro.pdk import Layers
        from repro.place import assemble_layout, instance_gate_rects, place_rows
        from repro.place.assembler import TOP_CELL

        flow, _, _ = flow_and_report
        netlist = structured_asic(self.VEHICLE)
        placement = place_rows(netlist, lib)
        layout = assemble_layout(netlist, lib, placement)
        polys = layout.flat_polygons(TOP_CELL, Layers.POLY)
        rects = instance_gate_rects(netlist, lib, placement)
        tasks = plan_metrology_shards(flow.simulator, polys, rects,
                                      shards=self.SHARDS)
        serial = {k: m for chunk in measure_tile_chunk((flow.simulator, tasks))
                  for k, m in chunk.items()}
        executor = ParallelExecutor.from_jobs(2)
        chunks = executor.map_chunks(measure_tile_chunk, flow.simulator, tasks)
        parallel = {k: m for chunk in chunks for k, m in chunk.items()}
        assert set(serial) == set(parallel)
        for key in serial:
            assert serial[key].slice_cds == parallel[key].slice_cds
            assert serial[key].slice_positions == parallel[key].slice_positions
