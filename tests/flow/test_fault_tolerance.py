"""Tests for fault-tolerant parallel dispatch.

A chunk that raises, hard-kills its worker (BrokenProcessPool), or times
out is retried in a fresh pool and finally degraded to serial in-process
execution; results stay bit-identical to the serial reference and every
failure is counted on the executor and the stage trace.  Faults are
injected deterministically through a :class:`FaultPlan`: ``chunk`` makes
the pool worker raise, ``worker-exit`` makes the pool worker process exit.
"""

import os
import time

import pytest

from repro.cells import build_library
from repro.circuits import c17
from repro.flow import (
    ChaosError,
    FaultPlan,
    FaultSpec,
    FlowConfig,
    ParallelExecutor,
    PostOpcTimingFlow,
)
from repro.litho import LithographySimulator
from repro.pdk import make_tech_90nm


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


def _scale_chunk(payload):
    """Module-level so the process pool can pickle it."""
    shared, chunk = payload
    return [shared * x for x in chunk]


def _first_call(marker_dir):
    """True for the first caller across all processes (exclusive-create
    marker file), False for every later one."""
    try:
        fd = os.open(os.path.join(marker_dir, "slow"),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _slow_scale_chunk(payload):
    """Sleeps ``delay`` seconds once (the first call anywhere), then is
    fast."""
    (marker_dir, delay, factor), chunk = payload
    if _first_call(marker_dir):
        time.sleep(delay)
    return [factor * x for x in chunk]


def _plan(site="chunk", times=1, match=""):
    return FaultPlan([FaultSpec(site=site, match=match, times=times)])


def small_tile_simulator(tech):
    """A simulator whose tile grid splits even c17 into many tiles."""
    sim = LithographySimulator.for_tech(tech, ambit=600.0, max_tile_px=192)
    sim.calibrate_to_anchor(tech.rules.gate_length, tech.rules.poly_pitch)
    return sim


TASKS = list(range(13))
EXPECTED = [3 * x for x in TASKS]


class TestExecutorRetry:
    def test_injected_raise_is_retried(self):
        plan = _plan()
        ex = ParallelExecutor(2, retries=2, fault_plan=plan)
        assert ex.map_chunks(_scale_chunk, 3, TASKS) == EXPECTED
        assert plan.fired == {"chunk": 1}
        assert ex.stats["chunk_failures"] == 1
        assert ex.stats["retries"] == 1
        assert ex.stats["degraded_chunks"] == 0

    def test_exhausted_retries_degrade_to_serial(self):
        ex = ParallelExecutor(2, retries=0, fault_plan=_plan())
        assert ex.map_chunks(_scale_chunk, 3, TASKS) == EXPECTED
        assert ex.stats["degraded_chunks"] == 1

    def test_worker_crash_breaks_pool_and_recovers(self):
        plan = _plan("worker-exit")
        ex = ParallelExecutor(3, retries=2, fault_plan=plan)
        assert ex.map_chunks(_scale_chunk, 3, TASKS) == EXPECTED
        assert plan.fired == {"worker-exit": 1}
        assert ex.stats["chunk_failures"] >= 1
        assert ex.stats["retries"] >= 1

    def test_counters_dict_receives_accounting(self):
        ex = ParallelExecutor(2, retries=1, fault_plan=_plan())
        counters = {}
        ex.map_chunks(_scale_chunk, 3, TASKS, counters=counters)
        assert counters["worker_failures"] == 1
        assert counters["worker_retries"] == 1
        assert counters["worker_degraded"] == 0

    def test_persistent_fault_exhausts_and_propagates(self):
        # Chunk 0 fails its first try, its retry and its serial fallback:
        # the in-process fallback raises, so the fault propagates.
        plan = _plan(times=99, match="0")
        ex = ParallelExecutor(2, retries=1, fault_plan=plan)
        with pytest.raises(ChaosError, match="injected chunk fault in chunk 0"):
            ex.map_chunks(_scale_chunk, 3, TASKS)
        assert plan.fired == {"chunk": 3}

    def test_counts_survive_a_raising_fallback(self):
        # The fallback re-raises the persistent fault; the failures that
        # ended the call still reach the stats and the caller's counters.
        plan = _plan(times=3, match="0")
        ex = ParallelExecutor(2, retries=1, fault_plan=plan)
        counters = {}
        with pytest.raises(ChaosError):
            ex.map_chunks(_scale_chunk, 3, TASKS, counters=counters)
        snapshot = ex.stats_snapshot()
        assert (snapshot["chunk_failures"], snapshot["retries"],
                snapshot["degraded_chunks"]) == (2, 1, 1)
        assert (counters["worker_failures"], counters["worker_retries"],
                counters["worker_degraded"]) == (2, 1, 1)

    def test_serial_path_raises_in_process(self):
        plan = _plan(times=99)
        with pytest.raises(ChaosError, match="injected chunk fault"):
            ParallelExecutor(fault_plan=plan).map_chunks(
                _scale_chunk, 3, TASKS)
        assert plan.fired == {"chunk": 1}

    def test_chunk_timeout_fails_and_retries(self, tmp_path):
        ex = ParallelExecutor(2, retries=1, chunk_timeout=0.8)
        shared = (str(tmp_path), 4.0, 3)
        assert ex.map_chunks(_slow_scale_chunk, shared, TASKS) == EXPECTED
        assert ex.stats["chunk_failures"] == 1
        assert ex.stats["retries"] == 1

    def test_timeout_abandons_straggler_and_counts_it(self, tmp_path):
        # A timed-out worker process is still running its chunk; the round
        # gives up on it and the leak is counted so operators can see it.
        ex = ParallelExecutor(2, retries=0, chunk_timeout=0.8)
        shared = (str(tmp_path), 4.0, 3)
        counters = {}
        assert ex.map_chunks(_slow_scale_chunk, shared, TASKS,
                             counters=counters) == EXPECTED
        assert ex.stats["abandoned"] == 1
        assert ex.stats["degraded_chunks"] == 1
        assert counters["worker_abandoned"] == 1

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)
        with pytest.raises(ValueError):
            ParallelExecutor(2, retries=-1)
        with pytest.raises(ValueError):
            ParallelExecutor(2, chunk_timeout=0.0)


class TestFaultTolerantFlow:
    def test_crashed_worker_flow_matches_serial(self, tech, lib):
        """The acceptance scenario: the first dispatched chunk's worker
        process exits, and the run completes bit-identical to serial with
        the retry recorded in the trace."""
        config = FlowConfig(opc_mode="none", clock_period_ps=500)
        serial = PostOpcTimingFlow(c17(lib), tech, cells=lib,
                                   simulator=small_tile_simulator(tech))
        ref = serial.run(config)
        assert ref.trace.record_for("metrology").counters["tiles"] > 1

        plan = _plan("worker-exit")
        executor = ParallelExecutor(2, retries=2, fault_plan=plan)
        faulty = PostOpcTimingFlow(c17(lib), tech, cells=lib,
                                   simulator=small_tile_simulator(tech),
                                   executor=executor)
        got = faulty.run(config)

        assert got.wns_post == ref.wns_post
        assert got.wns_drawn == ref.wns_drawn
        assert got.leakage_post == ref.leakage_post
        assert got.measurements.keys() == ref.measurements.keys()
        for name, m in ref.measurements.items():
            assert got.measurements[name].slice_cds == m.slice_cds

        assert plan.fired == {"worker-exit": 1}
        counters = got.trace.record_for("metrology").counters
        # The broken pool fails every chunk still in it, so at least one.
        assert counters["worker_failures"] >= 1
        assert counters["worker_retries"] == counters["worker_failures"]
        assert counters["worker_degraded"] == 0
