"""Chaos suite: seeded fault plans drive every failure mode to its
documented terminal state in bounded time.

Fault classes and their contracts (see architecture.md "Service
hardening"):

* ``disk-read`` corruption  -> recompute, job completes (exit 0);
* ``disk-write`` failure    -> memory-only degradation, job completes;
* ``journal-write`` failure -> job fails (exit 1), service survives;
* ``stage-run`` crash       -> StageError, job fails (exit 1), breaker
  counts it;
* ``stage-hang``            -> hung-stage watchdog fails the job
  (exit 2) and the worker moves on to the next queued job;
* ``chunk`` (worker kill)   -> retried, bit-identical results;
* ``socket`` drop           -> client sees EOF, reconnect works.

Deadlines, the circuit-breaker state machine, and orphan-job recovery
ride the same harness.  Every fault is seeded through
:meth:`FaultPlan.seeded`, so a failure here reproduces with its seed.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.cells import build_library
from repro.circuits import c17
from repro.flow import (
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    ChaosError,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    FlowConfig,
    FlowContext,
    FlowService,
    InputValidationError,
    ParallelExecutor,
    PostOpcTimingFlow,
    RunJournal,
    ServiceRejectedError,
    stable_hash,
)
from repro.flow.chaos import SITES, inject_stage_fault
from repro.flow.service import _WIRE_CONFIG_FIELDS
from repro.pdk import make_tech_90nm

pytestmark = pytest.mark.timeout(120)

FAST = FlowConfig(opc_mode="rule", clock_period_ps=500)


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


def _flow(tech, lib, **kwargs):
    return PostOpcTimingFlow(c17(lib), tech, cells=lib, **kwargs)


def _flows(tech, lib, **kwargs):
    return {"c17": _flow(tech, lib, **kwargs)}


def _flows_hanging_in_metrology(tech, lib):
    """c17 flows whose metrology stage blocks until the plan is released,
    so a short deadline expires mid-run however fast the flow computes."""
    plan = FaultPlan([FaultSpec(site="stage-hang", match="metrology")])
    return plan, _flows(tech, lib, context=FlowContext(fault_plan=plan))


# -- the harness itself -------------------------------------------------------


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(InputValidationError):
            FaultSpec(site="warp-core")
        with pytest.raises(InputValidationError):
            FaultSpec(site="chunk", times=0)
        with pytest.raises(InputValidationError):
            FaultSpec(site="stage-hang", delay_s=0.0)

    def test_seeded_covers_every_site_and_is_deterministic(self):
        sites = {FaultPlan.seeded(seed)[1].site for seed in range(len(SITES))}
        assert sites == set(SITES)
        assert FaultPlan.seeded(3)[1] == FaultPlan.seeded(3)[1]
        # stage faults get a deterministic stage target from the seed
        for seed in range(20):
            _, spec = FaultPlan.seeded(seed, site="stage-run")
            assert spec.match == FaultPlan.seeded(seed, site="stage-run")[1].match
            assert spec.match  # always targets a concrete stage

    def test_trigger_consumes_tokens_and_matches(self):
        plan = FaultPlan([FaultSpec(site="stage-run", match="opc", times=2)])
        assert plan.trigger("disk-read") is None  # wrong site
        assert plan.trigger("stage-run", "place") is None  # wrong key
        assert plan.trigger("stage-run", "opc") is not None
        assert plan.trigger("stage-run", "opc") is not None
        assert plan.trigger("stage-run", "opc") is None  # tokens spent
        assert plan.fired == {"stage-run": 2}

    def test_release_unblocks_an_injected_hang(self):
        plan, spec = FaultPlan.seeded(4, delay_s=30.0)
        assert spec.site == "stage-hang"
        releaser = threading.Timer(0.1, plan.release)
        releaser.start()
        t0 = time.monotonic()
        plan.hang(spec)
        releaser.join()
        assert time.monotonic() - t0 < 5.0  # woke early, not after 30s

    def test_inject_stage_fault_raises_chaos_error(self):
        plan = FaultPlan([FaultSpec(site="stage-run", match="opc")])
        inject_stage_fault(plan, "place")  # no match: no-op
        with pytest.raises(ChaosError):
            inject_stage_fault(plan, "opc")


class TestCircuitBreaker:
    def test_state_machine(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(2, 10.0, time_fn=lambda: clock["t"])
        assert breaker.admit() is None
        breaker.record(False)
        assert breaker.admit() is None  # one failure below threshold
        breaker.record(False)
        assert breaker.state == "open"
        assert breaker.admit() == pytest.approx(10.0)
        clock["t"] = 6.0
        assert breaker.admit() == pytest.approx(4.0)
        clock["t"] = 11.0
        assert breaker.admit() is None  # the half-open probe
        assert breaker.state == "half-open"
        assert breaker.admit() is not None  # only one probe at a time
        breaker.record(False)  # probe failed: straight back to open
        assert breaker.state == "open"
        clock["t"] = 22.0
        assert breaker.admit() is None
        breaker.record(True)  # probe succeeded
        assert breaker.state == "closed" and breaker.failures == 0
        assert breaker.admit() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(0, 1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(1, 0.0)


# -- cache-layer faults -------------------------------------------------------


class TestDiskFaults:
    def test_disk_corruption_recovers_bit_identical(self, tech, lib, tmp_path):
        cache_dir = str(tmp_path / "cache")
        baseline = _flow(
            tech, lib, context=FlowContext(cache_dir=cache_dir)
        ).run(FAST)

        plan, spec = FaultPlan.seeded(0)
        assert spec.site == "disk-read"
        ctx = FlowContext(cache_dir=cache_dir, fault_plan=plan)
        report = _flow(tech, lib, context=ctx).run(FAST)

        assert plan.fired["disk-read"] == 1
        assert ctx.disk_corruptions == 1  # injected rot was detected...
        assert report.wns_post == baseline.wns_post  # ...and recomputed
        assert report.leakage_post == baseline.leakage_post
        assert ctx.consistency() == []

    def test_disk_write_failure_degrades_to_memory(self, tech, lib, tmp_path):
        plan, spec = FaultPlan.seeded(1, times=2)
        assert spec.site == "disk-write"
        ctx = FlowContext(cache_dir=str(tmp_path / "cache"), fault_plan=plan)
        report = _flow(tech, lib, context=ctx).run(FAST)
        assert plan.fired["disk-write"] == 2
        assert ctx.disk_write_errors == 2
        assert report.post_sta is not None  # the run still completed


# -- service-layer faults -----------------------------------------------------


class TestServiceFaults:
    def test_journal_write_failure_fails_job_service_survives(
        self, tech, lib, tmp_path
    ):
        plan, spec = FaultPlan.seeded(2)
        assert spec.site == "journal-write"

        async def scenario():
            async with FlowService(
                _flows(tech, lib), run_root=str(tmp_path),
                fault_plan=plan,
            ) as service:
                doomed = service.submit("c17", config=FAST)
                first = await service.report(doomed, timeout=600)
                healthy = service.submit("c17", config=FAST)
                second = await service.report(healthy, timeout=600)
                return first, second

        first, second = asyncio.run(scenario())
        assert first["state"] == "failed"
        assert first["exit_code"] == EXIT_FAILURE
        assert "chaos: injected journal write failure" in first["error"]
        assert second["state"] == "done" and second["exit_code"] == 0
        assert plan.fired["journal-write"] == 1

    def test_stage_crash_fails_job_and_breaker_counts_it(
        self, tech, lib
    ):
        plan, spec = FaultPlan.seeded(3)
        assert spec.site == "stage-run"
        ctx = FlowContext(fault_plan=plan)

        async def scenario():
            async with FlowService(_flows(tech, lib, context=ctx)) as service:
                job = service.submit("c17", config=FAST)
                report = await service.report(job, timeout=600)
                with pytest.raises(ServiceRejectedError) as excinfo:
                    await service.result(job, timeout=600)
                return report, excinfo.value.reason, service.health()

        report, reason, health = asyncio.run(scenario())
        assert report["state"] == "failed"
        assert report["exit_code"] == EXIT_FAILURE
        assert "ChaosError" in report["error"]
        assert spec.match in report["error"]  # names the injected stage
        assert reason == "failed-job"
        assert health["breakers"]["c17"]["consecutive_failures"] == 1
        assert plan.fired["stage-run"] == 1

    def test_watchdog_fails_hung_job_while_next_job_completes(
        self, tech, lib, tmp_path
    ):
        plan, spec = FaultPlan.seeded(4, delay_s=30.0)
        assert spec.site == "stage-hang"
        ctx = FlowContext(fault_plan=plan)
        flows = _flows(tech, lib, context=ctx)

        async def scenario():
            try:
                # stage_timeout must exceed the longest *healthy* stage
                # compute (~1s for c17's litho stage: heartbeats are per
                # settle, so a slow stage is legitimately silent) while
                # staying far below the 30s injected hang.
                async with FlowService(
                    flows, workers=1, run_root=str(tmp_path),
                    stage_timeout_s=4.0, watchdog_poll_s=0.05,
                ) as service:
                    # The queued job must not share the hung stage's
                    # artifact key (seed 4 hangs "opc", and opc_mode is in
                    # that stage's config slice), or it would block on the
                    # hung job's in-flight settle and get watchdog-killed
                    # too.
                    hung = service.submit("c17", config=FAST)
                    queued = service.submit(
                        "c17",
                        config=FlowConfig(opc_mode="none",
                                          clock_period_ps=600),
                    )
                    hung_report = await service.report(hung, timeout=600)
                    queued_report = await service.report(queued, timeout=600)
                    return hung_report, queued_report
            finally:
                plan.release()  # free the wedged worker thread

        hung_report, queued_report = asyncio.run(scenario())
        assert hung_report["state"] == "failed"
        assert hung_report["exit_code"] == EXIT_INTERRUPTED
        assert hung_report["reason"] == "hung-stage"
        assert "no scheduler heartbeat" in hung_report["error"]
        # the single worker was recycled, not pinned:
        assert queued_report["state"] == "done"
        assert queued_report["exit_code"] == 0
        assert plan.fired["stage-hang"] == 1
        # the journal carries the watchdog's verdict as the terminal record
        records = [
            json.loads(line)
            for line in (tmp_path / hung_report["id"] / "journal.jsonl")
            .read_text().splitlines()
        ]
        assert records[-1]["type"] == "failed"
        assert records[-1]["reason"] == "hung-stage"

    def test_abandoned_job_thread_stops_at_next_stage_boundary(
        self, tech, lib
    ):
        plan, flows = _flows_hanging_in_metrology(tech, lib)
        ctx = flows["c17"].context

        async def scenario():
            service = FlowService(flows, workers=1)
            await service.start()
            try:
                job = service.submit("c17", config=FAST)
                waited = 0.0
                while plan.fired.get("stage-hang", 0) == 0:
                    assert waited < 300, "metrology never started"
                    await asyncio.sleep(0.01)
                    waited += 0.01
                await service.stop(drain_timeout=0.1)
                return service.status(job)
            finally:
                plan.release()  # the hung stage finishes on its thread

        # asyncio.run returns only after the released thread has exited
        status = asyncio.run(scenario())
        assert status["state"] == "failed"
        assert status["reason"] == "stopped"
        # the stage in flight at the stop settled and was cached; the
        # thread then stopped instead of running the rest of the flow
        assert ctx.misses["metrology"] == 1
        assert not {"back_annotate", "sta_post", "hold", "power"} \
            & set(ctx.misses)

    def test_deadline_exceeded_fails_job_with_exit_2(self, tech, lib):
        plan, flows = _flows_hanging_in_metrology(tech, lib)

        async def scenario():
            try:
                async with FlowService(
                    flows, workers=1, watchdog_poll_s=0.05,
                ) as service:
                    job = service.submit("c17", config=FAST, deadline_s=0.2)
                    report = await service.report(job, timeout=600)
                    with pytest.raises(ServiceRejectedError) as excinfo:
                        await service.result(job, timeout=600)
                    return report, excinfo.value.reason
            finally:
                plan.release()

        report, reason = asyncio.run(scenario())
        assert report["state"] == "failed"
        assert report["exit_code"] == EXIT_INTERRUPTED
        assert report["reason"] == "deadline"
        assert "deadline exceeded" in report["error"]
        assert reason == "deadline"

    def test_config_deadline_is_honored_too(self, tech, lib):
        config = FlowConfig(opc_mode="rule", clock_period_ps=500,
                            deadline_s=0.2)

        plan, flows = _flows_hanging_in_metrology(tech, lib)

        async def scenario():
            try:
                async with FlowService(flows, watchdog_poll_s=0.05) as service:
                    job = service.submit("c17", config=config)
                    return await service.report(job, timeout=600)
            finally:
                plan.release()

        report = asyncio.run(scenario())
        assert report["state"] == "failed"
        assert report["reason"] == "deadline"

    def test_breaker_opens_after_failures_and_probe_recovers(
        self, tech, lib
    ):
        plan = FaultPlan([FaultSpec(site="stage-run", match="", times=1)])
        ctx = FlowContext(fault_plan=plan)

        async def scenario():
            async with FlowService(
                _flows(tech, lib, context=ctx),
                breaker_threshold=1, breaker_cooldown_s=0.3,
            ) as service:
                doomed = service.submit("c17", config=FAST)
                await service.report(doomed, timeout=600)
                with pytest.raises(ServiceRejectedError) as excinfo:
                    service.submit("c17", config=FAST)
                rejection = excinfo.value
                open_state = service.health()["breakers"]["c17"]["state"]
                await asyncio.sleep(0.35)
                probe = service.submit("c17", config=FAST)  # half-open
                probe_report = await service.report(probe, timeout=600)
                closed_state = service.health()["breakers"]["c17"]["state"]
                return rejection, open_state, probe_report, closed_state

        rejection, open_state, probe_report, closed_state = \
            asyncio.run(scenario())
        assert rejection.reason == "circuit-open"
        assert rejection.retry_after is not None
        assert 0.0 < rejection.retry_after <= 0.3
        assert open_state == "open"
        assert probe_report["state"] == "done"
        assert closed_state == "closed"

    def test_socket_drop_client_reconnects(self, tech, lib, tmp_path):
        plan, spec = FaultPlan.seeded(6)
        assert spec.site == "socket"
        socket_path = str(tmp_path / "chaos.sock")

        async def rpc(request):
            reader, writer = await asyncio.open_unix_connection(socket_path)
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return line

        async def scenario():
            async with FlowService(
                _flows(tech, lib), fault_plan=plan,
            ) as service:
                await service.serve_unix(socket_path)
                dropped = await rpc({"op": "ping"})
                retried = await rpc({"op": "ping"})
                return dropped, retried

        dropped, retried = asyncio.run(scenario())
        assert dropped == b""  # injected drop: EOF instead of a response
        assert json.loads(retried)["ok"] is True
        assert plan.fired["socket"] == 1


# -- executor-layer faults ----------------------------------------------------


def _triple_chunk(payload):
    shared, chunk = payload
    return [shared * x for x in chunk]


class TestChunkFaults:
    def test_injected_worker_kill_is_retried_bit_identical(self):
        plan, spec = FaultPlan.seeded(5)
        assert spec.site == "chunk"
        tasks = list(range(23))
        expected = ParallelExecutor("serial").map_chunks(
            _triple_chunk, 3, tasks
        )
        ex = ParallelExecutor("thread", jobs=4, retries=1, fault_plan=plan)
        counters = {}
        got = ex.map_chunks(_triple_chunk, 3, tasks, counters=counters)
        assert got == expected
        assert plan.fired["chunk"] == 1
        assert ex.stats["chunk_failures"] == 1
        assert ex.stats["retries"] == 1
        assert ex.stats["abandoned"] == 0
        assert counters["worker_failures"] == 1


# -- crash recovery -----------------------------------------------------------


def _orphan_manifest(flow, config):
    return {
        "design": "c17",
        "op": "flow",
        "fingerprint": flow.fingerprint,
        "config_hash": stable_hash(config),
        "config_wire": {
            name: getattr(config, name) for name in _WIRE_CONFIG_FIELDS
        },
    }


class TestOrphanRecovery:
    def test_orphan_resumes_and_counter_advances(self, tech, lib, tmp_path):
        flows = _flows(tech, lib)
        journal = RunJournal.create(
            str(tmp_path / "job-0007"),
            _orphan_manifest(flows["c17"], FAST),
        )
        journal.append("stage", name="place", key="k0")
        journal.close()

        async def scenario():
            async with FlowService(
                flows, run_root=str(tmp_path)
            ) as service:
                assert "job-0007" in service.jobs
                orphan = await service.report("job-0007", timeout=600)
                fresh = service.submit("c17", config=FAST)
                await service.report(fresh, timeout=600)
                return orphan, fresh

        orphan, fresh = asyncio.run(scenario())
        assert orphan["state"] == "done" and orphan["exit_code"] == 0
        assert orphan["resumed"] is True
        assert fresh == "job-0008"  # counter advanced past the orphan
        types = [
            json.loads(line)["type"]
            for line in (tmp_path / "job-0007" / "journal.jsonl")
            .read_text().splitlines()
        ]
        assert "resumed" in types and types[-1] == "complete"

    @pytest.mark.parametrize("stale", ["fingerprint", "retired_wire_field"])
    def test_unresumable_orphan_fails_terminally(
        self, tech, lib, tmp_path, stale
    ):
        flows = _flows(tech, lib)
        manifest = _orphan_manifest(flows["c17"], FAST)
        if stale == "fingerprint":
            manifest["fingerprint"] = "deadbeef"  # a different build's run
        else:
            # a journal written while incremental_sta was still a wire field
            manifest["config_wire"]["incremental_sta"] = True
        journal = RunJournal.create(str(tmp_path / "job-0009"), manifest)
        journal.close()

        async def scenario():
            async with FlowService(
                flows, run_root=str(tmp_path)
            ) as service:
                status = service.status("job-0009")
                fresh = service.submit("c17", config=FAST)
                await service.report(fresh, timeout=600)
            # second restart: the journaled verdict is terminal, so the
            # scan skips it instead of retrying forever
            async with FlowService(
                flows, run_root=str(tmp_path)
            ) as service2:
                return status, fresh, set(service2.jobs)

        status, fresh, second_jobs = asyncio.run(scenario())
        assert status["state"] == "failed"
        assert "orphan not resumable" in status["error"]
        assert fresh == "job-0010"
        assert "job-0009" not in second_jobs

    def test_terminal_runs_are_not_re_enqueued(self, tech, lib, tmp_path):
        flows = _flows(tech, lib)

        async def first_life():
            async with FlowService(
                flows, run_root=str(tmp_path)
            ) as service:
                job = service.submit("c17", config=FAST)
                return await service.report(job, timeout=600)

        async def second_life():
            async with FlowService(
                flows, run_root=str(tmp_path)
            ) as service:
                return set(service.jobs), service.submit("c17", config=FAST)

        first = asyncio.run(first_life())
        assert first["state"] == "done"
        jobs, fresh = asyncio.run(second_life())
        assert jobs == set()  # the completed run was left alone
        assert fresh == "job-0002"  # ...but still owns its id range
