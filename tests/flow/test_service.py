"""Tests for the flow-service front-end.

Lifecycle and rejection taxonomy run against real flows without letting
jobs execute (submit is synchronous, so the bounded queue can be filled
before any worker task gets the event loop); the exactly-once guarantee
runs two identical concurrent jobs through one shared context and proves
every artifact key was computed once; the socket protocol is exercised
end-to-end over a UNIX socket.
"""

import asyncio
import json
import os

import pytest

from repro.cells import build_library
from repro.circuits import c17
from repro.flow import (
    EXIT_FAILURE,
    FlowConfig,
    FlowReport,
    FlowService,
    PostOpcTimingFlow,
    ServiceRejectedError,
)
from repro.pdk import make_tech_90nm


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


def _flows(tech, lib):
    return {"c17": PostOpcTimingFlow(c17(lib), tech, cells=lib)}


class TestLifecycleAndRejections:
    def test_rejects_before_start_and_after_stop(self, tech, lib):
        async def scenario():
            service = FlowService(_flows(tech, lib))
            with pytest.raises(ServiceRejectedError) as excinfo:
                service.submit("c17")
            assert excinfo.value.reason == "stopped"
            async with service:
                pass
            with pytest.raises(ServiceRejectedError) as excinfo:
                service.submit("c17")
            assert excinfo.value.reason == "stopped"

        asyncio.run(scenario())

    def test_unknown_design_and_bad_op(self, tech, lib):
        async def scenario():
            async with FlowService(_flows(tech, lib)) as service:
                with pytest.raises(ServiceRejectedError) as excinfo:
                    service.submit("b19")
                assert excinfo.value.reason == "unknown-design"
                with pytest.raises(ServiceRejectedError) as excinfo:
                    service.submit("c17", op="render")
                assert excinfo.value.reason == "bad-config"
                with pytest.raises(ServiceRejectedError) as excinfo:
                    service.status("job-9999")
                assert excinfo.value.reason == "unknown-job"

        asyncio.run(scenario())

    def test_bounded_queue_backpressure(self, tech, lib):
        async def scenario():
            # submit() is synchronous: with no await in between, the
            # worker tasks never run, so the queue genuinely fills
            service = FlowService(_flows(tech, lib), max_queue=2)
            await service.start()
            first = service.submit("c17")
            second = service.submit("c17")
            with pytest.raises(ServiceRejectedError) as excinfo:
                service.submit("c17")
            assert excinfo.value.reason == "queue-full"
            assert service.status(first)["state"] == "queued"
            # stop() drains the never-started jobs as explicit failures
            # rather than silently dropping them
            await service.stop()
            for job_id in (first, second):
                status = service.status(job_id)
                assert status["state"] == "failed"
                assert status["exit_code"] == EXIT_FAILURE
                assert "service stopped" in status["error"]

        asyncio.run(scenario())

    def test_constructor_validation(self, tech, lib):
        with pytest.raises(ValueError):
            FlowService({})
        with pytest.raises(ValueError):
            FlowService(_flows(tech, lib), max_queue=0)
        with pytest.raises(ValueError):
            FlowService(_flows(tech, lib), workers=0)


class TestExactlyOnce:
    def test_two_identical_submissions_compute_each_key_once(
        self, tech, lib, tmp_path
    ):
        config = FlowConfig(opc_mode="rule", clock_period_ps=500)
        flows = _flows(tech, lib)
        ctx = flows["c17"].context

        async def scenario():
            async with FlowService(
                flows, workers=2, run_root=str(tmp_path)
            ) as service:
                a = service.submit("c17", config=config)
                b = service.submit("c17", config=config)
                return (
                    await service.report(a, timeout=600),
                    await service.report(b, timeout=600),
                    await service.result(a, timeout=600),
                    await service.result(b, timeout=600),
                )

        report_a, report_b, result_a, result_b = asyncio.run(scenario())

        for report in (report_a, report_b):
            assert report["state"] == "done" and report["exit_code"] == 0
        assert isinstance(result_a, FlowReport)
        # identical configs through one context: bit-identical reports
        assert result_a.wns_post == result_b.wns_post
        assert result_a.leakage_post == result_b.leakage_post

        # exactly-once: every stage key computed a single time across
        # both jobs (9 stages + the intra-OPC rule-base memo)
        assert all(count == 1 for count in ctx.misses.values())
        assert sum(ctx.misses.values()) == 10
        summaries = (report_a["summary"], report_b["summary"])
        assert sum(s["cache_misses"] for s in summaries) == 9
        assert sum(s["cache_hits"] for s in summaries) == 9
        # the second job was served by the first's in-flight work:
        # dedup counters across the jobs match the context's books
        assert sum(s["deduped"] for s in summaries) <= ctx.deduped
        assert ctx.deduped >= 1
        assert ctx.consistency() == []

        # per-job journals: one stage record per stage, both runs
        # complete, and the journaled dedup counters match the summaries
        journaled_deduped = 0
        for job_id in ("job-0001", "job-0002"):
            journal_path = tmp_path / job_id / "journal.jsonl"
            records = [
                json.loads(line)
                for line in journal_path.read_text().splitlines()
            ]
            types = [r["type"] for r in records]
            assert types[0] == "manifest" and types[-1] == "complete"
            stages = [r for r in records if r["type"] == "stage"]
            assert len(stages) == 9
            journaled_deduped += sum(
                r["counters"].get("deduped", 0) for r in stages
            )
        assert journaled_deduped == sum(s["deduped"] for s in summaries)


class TestHealthAndJobIds:
    def test_health_reflects_queue_workers_breakers_and_cache(self, tech, lib):
        async def scenario():
            async with FlowService(_flows(tech, lib), workers=2) as service:
                idle = service.health()
                assert idle["running"] is True
                assert idle["queue_depth"] == 0
                assert [w["job"] for w in idle["workers"]] == [None, None]
                assert idle["jobs"] == {}
                assert idle["breakers"]["c17"]["state"] == "closed"
                assert idle["cache"]["disk_corruptions"] == 0
                assert idle["executor"]["abandoned"] == 0

                config = FlowConfig(opc_mode="none", clock_period_ps=500)
                job_id = service.submit("c17", config=config)
                # submit is synchronous: the worker has not yet run, so
                # the job is still visible in the queue depth
                assert service.health()["queue_depth"] == 1
                await service.report(job_id, timeout=600)
                settled = service.health()
                assert settled["jobs"] == {"done": 1}
                assert settled["queue_depth"] == 0
                assert settled["breakers"]["c17"]["consecutive_failures"] == 0

        asyncio.run(scenario())

    def test_rejected_submit_does_not_burn_job_ids(self, tech, lib):
        async def scenario():
            service = FlowService(_flows(tech, lib), max_queue=1, workers=1)
            await service.start()
            config = FlowConfig(opc_mode="none", clock_period_ps=500)
            first = service.submit("c17", config=config)
            assert first == "job-0001"
            with pytest.raises(ServiceRejectedError) as excinfo:
                service.submit("c17", config=config)
            assert excinfo.value.reason == "queue-full"
            await service.report(first, timeout=600)
            # the rejected submit consumed no id: the next accepted job
            # is numbered contiguously
            second = service.submit("c17", config=config)
            assert second == "job-0002"
            await service.report(second, timeout=600)
            await service.stop()

        asyncio.run(scenario())


class TestSocketProtocol:
    def test_unix_socket_roundtrip(self, tech, lib, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        config = {"opc_mode": "rule", "clock_period_ps": 500}

        async def rpc(request):
            reader, writer = await asyncio.open_unix_connection(socket_path)
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return response

        async def scenario():
            async with FlowService(_flows(tech, lib)) as service:
                await service.serve_unix(socket_path)
                assert os.path.exists(socket_path)

                ping = await rpc({"op": "ping"})
                assert ping["ok"] and ping["designs"] == ["c17"]

                submitted = await rpc({"op": "submit", "design": "c17",
                                       "kind": "flow", "config": config})
                assert submitted["ok"]
                job_id = submitted["id"]

                report = await rpc({"op": "report", "id": job_id,
                                    "timeout": 600})
                assert report["ok"] and report["state"] == "done"
                assert report["exit_code"] == 0
                assert report["summary"]["opc_mode"] == "rule"
                assert report["summary"]["stages"] == 9

                status = await rpc({"op": "status", "id": job_id})
                assert status["ok"] and status["state"] == "done"

                rejected = await rpc({"op": "submit", "design": "b19"})
                assert not rejected["ok"]
                assert rejected["reason"] == "unknown-design"

                # not a wire field, and a retired one
                for bad_config in ({"rule_recipe": 1},
                                   {"incremental_sta": False}):
                    bad_field = await rpc({"op": "submit", "design": "c17",
                                           "config": bad_config})
                    assert not bad_field["ok"]
                    assert bad_field["reason"] == "bad-config"

                bad_op = await rpc({"op": "frobnicate"})
                assert not bad_op["ok"] and bad_op["reason"] == "bad-config"

                not_json = await rpc(["not", "an", "object"])
                assert not not_json["ok"]
                assert not_json["reason"] == "bad-request"

        asyncio.run(scenario())

    def test_wire_timeout_and_deadline_validation(self, tech, lib, tmp_path):
        socket_path = str(tmp_path / "repro.sock")

        async def rpc(request):
            reader, writer = await asyncio.open_unix_connection(socket_path)
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return response

        async def scenario():
            async with FlowService(_flows(tech, lib)) as service:
                await service.serve_unix(socket_path)

                # malformed timeouts are rejected before the job lookup
                for bad in ("soon", True, -1):
                    resp = await rpc({"op": "report", "id": "job-0001",
                                      "timeout": bad})
                    assert not resp["ok"], bad
                    assert resp["reason"] == "bad-config"
                    assert "timeout" in resp["error"]

                bad_deadline = await rpc({"op": "submit", "design": "c17",
                                          "deadline_s": "fast"})
                assert not bad_deadline["ok"]
                assert bad_deadline["reason"] == "bad-config"

                # a deadline is a submit field, never a config field
                config_deadline = await rpc({
                    "op": "submit", "design": "c17",
                    "config": {"opc_mode": "rule", "deadline_s": 5},
                })
                assert not config_deadline["ok"]
                assert config_deadline["reason"] == "bad-config"
                assert "deadline_s" in config_deadline["error"]

                submitted = await rpc({
                    "op": "submit", "design": "c17",
                    "config": {"opc_mode": "rule", "clock_period_ps": 500},
                })
                assert submitted["ok"]
                job_id = submitted["id"]

                # an expired wait is a structured timeout response, not a
                # dropped connection or a bad-request
                early = await rpc({"op": "report", "id": job_id,
                                   "timeout": 0.01})
                assert not early["ok"]
                assert early["reason"] == "timeout"
                assert early["id"] == job_id
                assert "not settled" in early["error"]

                final = await rpc({"op": "report", "id": job_id,
                                   "timeout": 600})
                assert final["ok"] and final["state"] == "done"

                health = await rpc({"op": "health"})
                assert health["ok"] and health["running"]
                assert health["jobs"].get("done") == 1
                assert health["breakers"]["c17"]["state"] == "closed"

        asyncio.run(scenario())
