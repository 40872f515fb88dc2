"""Crash recovery for the flow service: ``kill -9`` survival.

The durability claim under test: a ``repro serve`` process SIGKILLed
mid-job leaves an orphan journal under ``--run-root``; a restart over the
same run root re-enqueues the orphan through the fingerprint-validated
resume path, replays every pre-kill stage from the shared disk cache, and
settles the job with a report bit-identical to an uninterrupted
in-process run.
"""

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cells import build_library
from repro.circuits import c17
from repro.flow import FlowConfig, PostOpcTimingFlow
from repro.pdk import make_tech_90nm

SRC = str(Path(__file__).resolve().parents[2] / "src")

pytestmark = pytest.mark.timeout(600)


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _rpc(socket_path, request, timeout=600.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        sock.sendall(json.dumps(request).encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)


def _wait_for_server(socket_path, proc, deadline_s=300.0):
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        assert proc.poll() is None, "server died during startup"
        if os.path.exists(socket_path):
            try:
                if _rpc(socket_path, {"op": "ping"}, timeout=5.0)["ok"]:
                    return
            except (OSError, ValueError):
                pass
        time.sleep(0.02)
    raise AssertionError("server never answered ping")


def _journal_records(journal_path):
    """Parse journal lines, tolerating a SIGKILL-truncated final line."""
    records = []
    for line in open(journal_path):
        try:
            records.append(json.loads(line))
        except ValueError:
            pass
    return records


class TestServeKillRecovery:
    def test_sigkill_mid_job_then_restart_resumes_orphan(self, tmp_path):
        run_root = str(tmp_path / "runs")
        cache_dir = str(tmp_path / "cache")
        sock_a = str(tmp_path / "a.sock")
        sock_b = str(tmp_path / "b.sock")
        base = [sys.executable, "-m", "repro", "serve", "--designs", "c17",
                "--run-root", run_root, "--cache-dir", cache_dir,
                "--workers", "1"]
        env = _cli_env()
        config = {"opc_mode": "rule", "clock_period_ps": 500}

        # Reference: the same request, uninterrupted, in-process.
        tech = make_tech_90nm()
        lib = build_library(tech)
        reference = PostOpcTimingFlow(c17(lib), tech, cells=lib).run(
            FlowConfig(**config)
        )

        proc = subprocess.Popen(base + ["--socket", sock_a], env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            _wait_for_server(sock_a, proc)
            submitted = _rpc(sock_a, {"op": "submit", "design": "c17",
                                      "kind": "flow", "config": config})
            assert submitted["ok"]
            job_id = submitted["id"]
            assert job_id == "job-0001"

            # Kill -9 once the first stage has settled (journaled +
            # written to the disk cache) but well before the run ends.
            journal_path = os.path.join(run_root, job_id, "journal.jsonl")
            deadline = time.time() + 300
            while time.time() < deadline:
                assert proc.poll() is None, "server died before the kill"
                # wait for a settled-stage record specifically
                if os.path.exists(journal_path) and any(
                    '"type": "stage"' in line for line in open(journal_path)
                ):
                    break
                time.sleep(0.005)
            proc.kill()  # SIGKILL: no drain, no journal close, no goodbye
            proc.wait(timeout=600)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=600)

        pre_kill = [r["name"] for r in _journal_records(journal_path)
                    if r.get("type") == "stage"]
        assert pre_kill, "journal never recorded a settled stage"
        assert not any(r.get("type") == "complete"
                       for r in _journal_records(journal_path)), \
            "job finished before the kill; nothing to recover"

        # Restart over the same run root: start() re-enqueues the orphan.
        proc = subprocess.Popen(base + ["--socket", sock_b], env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            _wait_for_server(sock_b, proc)
            report = _rpc(sock_b, {"op": "report", "id": job_id,
                                   "timeout": 590})
            assert report["ok"], report
            assert report["state"] == "done" and report["exit_code"] == 0
            assert report["resumed"] is True

            # Bit-identical to the uninterrupted reference run.
            summary = report["summary"]
            assert summary["wns_drawn"] == reference.wns_drawn
            assert summary["wns_post"] == reference.wns_post
            assert summary["leakage_post"] == reference.leakage_post
            assert summary["coverage"] == reference.coverage

            # A fresh submit numbers past the recovered orphan.
            fresh = _rpc(sock_b, {"op": "submit", "design": "c17",
                                  "kind": "flow", "config": config})
            assert fresh["ok"] and fresh["id"] == "job-0002"
            assert _rpc(sock_b, {"op": "report", "id": "job-0002",
                                 "timeout": 590})["ok"]
        finally:
            proc.kill()
            proc.wait(timeout=600)

        records = _journal_records(journal_path)
        types = [r["type"] for r in records]
        assert "resumed" in types and types[-1] == "complete"
        # Every stage settled before the kill replays as a cache hit.
        post = [r for r in records if r.get("type") == "stage"]
        replayed = {r["name"]: r for r in post[len(pre_kill):]}
        for name in pre_kill:
            assert replayed[name]["cache_hit"], f"{name} recomputed"
