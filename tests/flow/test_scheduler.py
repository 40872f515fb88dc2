"""Tests for the concurrent OPC-mode sweep.

The four OPC modes run as four concurrent :class:`FlowService` jobs on
one shared flow context.  Each job runs its flow serially on a worker
thread; the shared prefix (placement, drawn STA, critical-path tagging,
the rule-OPC base) must still be computed exactly once across the
sweep, with the same books the serial sweep keeps.
"""

import asyncio

import pytest

from repro.cells import build_library
from repro.circuits import c17
from repro.flow import FlowConfig, FlowService, PostOpcTimingFlow
from repro.pdk import make_tech_90nm

MODES = ("none", "rule", "model", "selective")


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


class TestConcurrentSweep:
    @pytest.fixture(scope="class")
    def sweep(self, tech, lib, tmp_path_factory):
        flow = PostOpcTimingFlow(c17(lib), tech, cells=lib)
        run_root = tmp_path_factory.mktemp("concurrent-sweep")

        async def scenario():
            async with FlowService(
                {"c17": flow}, workers=len(MODES), run_root=str(run_root)
            ) as service:
                jobs = {
                    mode: service.submit(
                        "c17",
                        config=FlowConfig(opc_mode=mode, clock_period_ps=500),
                    )
                    for mode in MODES
                }
                return {
                    mode: await service.report(job, timeout=600)
                    for mode, job in jobs.items()
                }

        return flow.context, asyncio.run(scenario())

    def test_shared_prefix_computed_exactly_once(self, sweep):
        ctx, reports = sweep
        for report in reports.values():
            assert report["state"] == "done" and report["exit_code"] == 0
        # same exact sharing the serial sweep guarantees: dedup waits
        # count as hits, so the books agree with TestSweepSharing
        assert ctx.misses["place"] == 1 and ctx.hits["place"] == 3
        assert ctx.misses["sta_drawn"] == 1 and ctx.hits["sta_drawn"] == 3
        assert ctx.misses["tag_critical"] == 1 and ctx.hits["tag_critical"] == 3
        assert ctx.misses["opc.rule_base"] == 1
        assert ctx.consistency() == []
