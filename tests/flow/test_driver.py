"""The one run driver: CLI runs and service jobs open, run and settle
journaled flows and sweeps through the same code, so they write the same
run directory.

Pinned here: the manifest schema (``op`` and ``config_wire`` on both
surfaces, equal apart from ``run_id``), the ``op`` check on resume, the
sweep-failure rule (no surviving mode: exit 1, a ``failed`` record, and
the service's circuit breaker counts it) and ``repro sweep --run-dir``
end to end.
"""

import asyncio
import json
import os

import pytest

import repro.__main__ as cli
from repro.cells import build_library
from repro.circuits import c17
from repro.flow import (
    FaultPlan,
    FaultSpec,
    FlowConfig,
    FlowContext,
    FlowService,
    InputValidationError,
    PostOpcTimingFlow,
    RunJournal,
)
from repro.flow.driver import run_manifest
from repro.flow.postopc import OPC_MODES
from repro.pdk import make_tech_90nm

#: the CLI's ``--opc none --period 500`` config with every other flag at
#: its default
CLI_CONFIG = FlowConfig(opc_mode="none", clock_period_ps=500.0)
CLI_FLOW = ["flow", "--design", "c17", "--opc", "none", "--period", "500"]


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


def _records(run_dir):
    path = os.path.join(run_dir, RunJournal.FILENAME)
    return [json.loads(line) for line in open(path)]


def _every_place_fails():
    """One ``place`` fault per sweep mode: no mode survives."""
    return FaultPlan([FaultSpec(site="stage-run", match="place", times=4)])


class TestManifestCheck:
    def test_op_mismatch_is_rejected(self):
        recorded = {"op": "flow", "fingerprint": "f", "config_hash": "c"}
        with pytest.raises(InputValidationError, match="op flow"):
            RunJournal.check_manifest(recorded, {**recorded, "op": "sweep"})

    def test_manifest_without_op_still_matches(self):
        legacy = {"command": "flow", "fingerprint": "f", "config_hash": "c"}
        RunJournal.check_manifest(
            legacy, {"op": "sweep", "fingerprint": "f", "config_hash": "c"}
        )


class TestCliRunDir:
    def test_sweep_resume_of_flow_run_dir_exits_3(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert cli.main(CLI_FLOW + ["--run-dir", run_dir]) == 0
        before = _records(run_dir)
        code = cli.main(["sweep", "--design", "c17", "--period", "500",
                         "--run-dir", run_dir, "--resume"])
        assert code == 3
        assert "journal op flow" in capsys.readouterr().err
        assert _records(run_dir) == before  # nothing appended

    def test_run_dir_written_before_op_was_recorded_resumes(self, tmp_path):
        run_dir = str(tmp_path / "run")
        assert cli.main(CLI_FLOW + ["--run-dir", run_dir]) == 0
        records = _records(run_dir)
        manifest = records[0]
        old = {key: manifest[key] for key in
               ("type", "run_id", "version", "design", "fingerprint",
                "config_hash")}
        old["command"] = "flow"  # the manifest schema before `op`
        path = os.path.join(run_dir, RunJournal.FILENAME)
        with open(path, "w") as fh:
            for record in [old] + records[1:-1]:  # drop `complete`
                fh.write(json.dumps(record) + "\n")
        assert cli.main(CLI_FLOW + ["--run-dir", run_dir, "--resume"]) == 0
        types = [r["type"] for r in _records(run_dir)]
        assert "resumed" in types and types[-1] == "complete"

    def test_sweep_run_dir_end_to_end(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert cli.main(["sweep", "--design", "c17", "--period", "500",
                         "--run-dir", run_dir]) == 0
        assert "journal:" in capsys.readouterr().out
        records = _records(run_dir)
        manifest = records[0]
        assert manifest["type"] == "manifest"
        assert manifest["op"] == "sweep"
        assert manifest["design"] == "c17"
        assert manifest["config_wire"] == {
            "opc_mode": "none", "clock_period_ps": 500.0,
            "n_critical_paths": 5, "n_slices": 5, "use_routing": False,
            "max_quarantine_fraction": 0.5, "litho_shards": 0,
        }
        modes = [r for r in records if r["type"] == "mode"]
        assert [(m["mode"], m["status"]) for m in modes] == [
            (mode, "ok") for mode in OPC_MODES
        ]
        complete = records[-1]
        assert complete["type"] == "complete"
        assert set(complete) == {
            "type", "modes", "failures", "stages", "cache_hits",
            "cache_misses", "deduped", "table",
        }
        assert sorted(complete["modes"]) == sorted(OPC_MODES)
        assert complete["failures"] == {}
        assert complete["stages"] == 9 * len(OPC_MODES)
        for summary in complete["modes"].values():
            assert {"wns_drawn", "wns_post", "coverage"} <= set(summary)

    def test_sweep_with_no_surviving_mode_exits_1(
        self, tmp_path, monkeypatch, capsys
    ):
        real_engine = cli._make_flow_engine

        def engine_with_faults(args):
            context, executor = real_engine(args)
            context.fault_plan = _every_place_fails()
            return context, executor

        monkeypatch.setattr(cli, "_make_flow_engine", engine_with_faults)
        run_dir = str(tmp_path / "run")
        code = cli.main(["sweep", "--design", "c17", "--period", "500",
                         "--run-dir", run_dir])
        assert code == 1
        assert "every sweep mode failed" in capsys.readouterr().err
        records = _records(run_dir)
        assert [r["status"] for r in records if r["type"] == "mode"] == [
            "failed"
        ] * len(OPC_MODES)
        assert records[-1]["type"] == "failed"
        assert records[-1]["exit_code"] == 1
        assert "every sweep mode failed" in records[-1]["error"]

    def test_design_size_run_journals_the_netlist_that_ran(
        self, tmp_path, monkeypatch
    ):
        # --design-size replaces --design; the run stops at its first
        # stage, after the manifest is written.
        real_engine = cli._make_flow_engine

        def engine_with_faults(args):
            context, executor = real_engine(args)
            context.fault_plan = FaultPlan(
                [FaultSpec(site="stage-run", match="place")]
            )
            return context, executor

        monkeypatch.setattr(cli, "_make_flow_engine", engine_with_faults)
        run_dir = str(tmp_path / "run")
        assert cli.main(["flow", "--design-size", "90", "--opc", "none",
                         "--period", "500", "--run-dir", run_dir]) == 1
        records = _records(run_dir)
        assert records[0]["design"] == "fab90"
        assert records[-1]["type"] == "failed"


class TestServiceMatchesCli:
    def test_cli_run_and_service_job_write_the_same_manifest(
        self, tech, lib, tmp_path
    ):
        cli_dir = str(tmp_path / "cli")
        assert cli.main(CLI_FLOW + ["--run-dir", cli_dir]) == 0
        flow = PostOpcTimingFlow(c17(lib), tech, cells=lib,
                                 context=FlowContext())
        run_root = str(tmp_path / "service")

        async def scenario():
            async with FlowService({"c17": flow},
                                   run_root=run_root) as service:
                job_id = service.submit("c17", "flow", CLI_CONFIG)
                return job_id, await service.report(job_id, timeout=600)

        job_id, report = asyncio.run(scenario())
        assert report["exit_code"] == 0
        cli_records = _records(cli_dir)
        job_records = _records(os.path.join(run_root, job_id))

        def without_run_id(manifest):
            return {k: v for k, v in manifest.items() if k != "run_id"}

        assert without_run_id(cli_records[0]) == without_run_id(job_records[0])
        assert cli_records[0] == {
            **run_manifest("c17", "flow", flow, CLI_CONFIG),
            "type": "manifest", "version": cli_records[0]["version"],
            "run_id": cli_records[0]["run_id"],
        }
        # one terminal payload: the service's summary, on both surfaces
        assert job_records[-1] == {"type": "complete", **report["summary"]}
        assert set(cli_records[-1]) == set(job_records[-1])


class TestServiceSweepFailure:
    def test_sweep_with_no_surviving_mode_fails_and_trips_breaker(
        self, tech, lib, tmp_path
    ):
        flow = PostOpcTimingFlow(
            c17(lib), tech, cells=lib,
            context=FlowContext(fault_plan=_every_place_fails()),
        )

        async def scenario():
            async with FlowService({"c17": flow}, run_root=str(tmp_path),
                                   breaker_threshold=1) as service:
                job_id = service.submit("c17", "sweep", CLI_CONFIG)
                report = await service.report(job_id, timeout=600)
                return job_id, report, service.health()["breakers"]["c17"]

        job_id, report, breaker = asyncio.run(scenario())
        assert report["state"] == "failed"
        assert report["exit_code"] == 1
        assert "every sweep mode failed" in report["error"]
        assert breaker["state"] == "open"
        assert breaker["consecutive_failures"] == 1
        records = _records(str(tmp_path / job_id))
        assert records[-1]["type"] == "failed"
        assert records[-1]["exit_code"] == 1
