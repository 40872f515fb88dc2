"""Tests for the run journal and the graceful-interruption guard."""

import json
import os
import signal
import threading

import pytest

from repro.flow import (
    EXIT_INTERRUPTED,
    EXIT_QUARANTINE,
    EXIT_VALIDATION,
    FaultPlan,
    FaultSpec,
    FlowInterrupted,
    InputValidationError,
    InterruptGuard,
    QuarantineExceededError,
    RunJournal,
    StageError,
)
from repro.flow.journal import JournalClosedError


class TestJournalRoundTrip:
    def test_create_writes_manifest(self, tmp_path):
        journal = RunJournal.create(str(tmp_path / "run"),
                                    {"fingerprint": "abc", "config_hash": "def"})
        manifest = journal.manifest()
        assert manifest["fingerprint"] == "abc"
        assert manifest["config_hash"] == "def"
        assert manifest["run_id"]
        journal.close()

    def test_records_round_trip_in_order(self, tmp_path):
        journal = RunJournal.create(str(tmp_path), {"fingerprint": "f"})
        journal.append("stage", name="place", key="k1")
        journal.append("stage", name="opc", key="k2")
        journal.finish("complete", wns_post=-12.5)
        journal.close()

        reread = RunJournal(str(tmp_path))
        types = [r["type"] for r in reread.records()]
        assert types == ["manifest", "stage", "stage", "complete"]
        assert reread.completed_stage_keys() == {"place": "k1", "opc": "k2"}

    def test_create_refuses_existing_journal(self, tmp_path):
        RunJournal.create(str(tmp_path), {"fingerprint": "f"}).close()
        with pytest.raises(InputValidationError, match="resume"):
            RunJournal.create(str(tmp_path), {"fingerprint": "f"})

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = RunJournal.create(str(tmp_path), {"fingerprint": "f"})
        journal.append("stage", name="place", key="k1")
        journal.close()
        with open(journal.path, "a") as fh:
            fh.write('{"type": "stage", "name": "opc", "key"')  # killed mid-write
        reread = RunJournal(str(tmp_path))
        assert [r["type"] for r in reread.records()] == ["manifest", "stage"]
        assert reread.completed_stage_keys() == {"place": "k1"}

    def test_was_interrupted(self, tmp_path):
        journal = RunJournal.create(str(tmp_path), {"fingerprint": "f"})
        journal.record_interrupted("SIGINT", next_stage="metrology")
        assert journal.was_interrupted()
        journal.finish("complete")
        assert not journal.was_interrupted()
        journal.close()

    def test_appends_are_fsynced_json_lines(self, tmp_path):
        journal = RunJournal.create(str(tmp_path), {"fingerprint": "f"})
        journal.append("stage", name="place", key="k")
        # Read through a *different* handle while the writer is open: the
        # line must already be on disk (durability against kill -9).
        lines = open(journal.path).read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["name"] == "place"
        journal.close()


class TestClosedJournal:
    def test_append_after_close_raises_and_leaves_file_unchanged(
        self, tmp_path
    ):
        journal = RunJournal.create(str(tmp_path), {"fingerprint": "f"})
        journal.append("stage", name="place", key="k1")
        journal.close()
        before = (tmp_path / RunJournal.FILENAME).read_bytes()
        with pytest.raises(JournalClosedError, match="'stage'"):
            journal.append("stage", name="opc", key="k2")
        with pytest.raises(JournalClosedError):
            journal.finish("complete")
        assert (tmp_path / RunJournal.FILENAME).read_bytes() == before

    def test_finish_writes_terminal_record_then_refuses_appends(
        self, tmp_path
    ):
        journal = RunJournal.create(str(tmp_path), {"fingerprint": "f"})
        journal.finish("failed", error="stopped", reason="hung-stage")
        with pytest.raises(JournalClosedError):
            journal.append("stage", name="opc", key="k2")
        journal.close()  # idempotent
        records = RunJournal(str(tmp_path)).records()
        assert [r["type"] for r in records] == ["manifest", "failed"]
        assert records[-1]["reason"] == "hung-stage"

    def test_failed_finish_leaves_journal_open(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="journal-write", match="complete")])
        journal = RunJournal.create(str(tmp_path), {"fingerprint": "f"},
                                    fault_plan=plan)
        with pytest.raises(OSError, match="injected"):
            journal.finish("complete")
        journal.finish("failed", error="OSError: injected")
        types = [r["type"] for r in RunJournal(str(tmp_path)).records()]
        assert types == ["manifest", "failed"]


class TestListenerRegistrationRace:
    def test_add_listener_concurrent_with_append(self, tmp_path):
        """Subscribing from one thread while another appends must lose
        neither listeners nor notifications: both sides serialize their
        list access on the journal's write lock."""
        journal = RunJournal.create(str(tmp_path), {"fingerprint": "f"})
        calls = []
        barrier = threading.Barrier(2)
        errors = []

        def subscribe():
            barrier.wait()
            try:
                for _ in range(100):
                    journal.add_listener(
                        lambda rec: calls.append(rec["type"]))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def write():
            barrier.wait()
            try:
                for i in range(100):
                    journal.append("note", i=i)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=subscribe),
                   threading.Thread(target=write)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # every registration survived the race: a quiescent append
        # notifies all 100 listeners exactly once
        calls.clear()
        journal.append("final")
        assert calls == ["final"] * 100
        journal.close()


class TestJournalResume:
    def test_resume_requires_existing_journal(self, tmp_path):
        with pytest.raises(InputValidationError, match="no journal"):
            RunJournal.resume(str(tmp_path / "nope"), {"fingerprint": "f"})

    def test_resume_appends_resumed_record(self, tmp_path):
        RunJournal.create(str(tmp_path), {"fingerprint": "f",
                                          "config_hash": "c"}).close()
        journal = RunJournal.resume(str(tmp_path), {"fingerprint": "f",
                                                    "config_hash": "c"})
        assert [r["type"] for r in journal.records()] == ["manifest", "resumed"]
        journal.close()

    def test_resume_rejects_fingerprint_mismatch(self, tmp_path):
        RunJournal.create(str(tmp_path), {"fingerprint": "f",
                                          "config_hash": "c"}).close()
        with pytest.raises(InputValidationError, match="fingerprint"):
            RunJournal.resume(str(tmp_path), {"fingerprint": "OTHER",
                                              "config_hash": "c"})

    def test_resume_rejects_config_mismatch(self, tmp_path):
        RunJournal.create(str(tmp_path), {"fingerprint": "f",
                                          "config_hash": "c"}).close()
        with pytest.raises(InputValidationError, match="config_hash"):
            RunJournal.resume(str(tmp_path), {"fingerprint": "f",
                                              "config_hash": "OTHER"})


class TestInterruptGuard:
    def test_checkpoint_noop_without_signal(self):
        with InterruptGuard() as guard:
            guard.checkpoint(next_stage="place")  # must not raise

    def test_first_signal_sets_flag_then_checkpoint_raises(self):
        with InterruptGuard() as guard:
            os.kill(os.getpid(), signal.SIGINT)
            assert guard.interrupted == "SIGINT"
            with pytest.raises(FlowInterrupted) as excinfo:
                guard.checkpoint(next_stage="metrology")
        assert excinfo.value.signal_name == "SIGINT"
        assert excinfo.value.next_stage == "metrology"
        assert excinfo.value.exit_code == EXIT_INTERRUPTED

    def test_second_signal_aborts_immediately(self):
        with InterruptGuard() as guard:
            os.kill(os.getpid(), signal.SIGINT)
            assert guard.interrupted == "SIGINT"
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)

    def test_sigterm_is_graceful_too(self):
        with InterruptGuard() as guard:
            os.kill(os.getpid(), signal.SIGTERM)
            assert guard.interrupted == "SIGTERM"
            with pytest.raises(FlowInterrupted):
                guard.checkpoint()

    def test_handlers_restored_on_exit(self):
        before = (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM))
        with InterruptGuard():
            pass
        after = (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM))
        assert before == after


class TestErrorTaxonomy:
    def test_exit_codes(self):
        assert InputValidationError("x", "bad").exit_code == EXIT_VALIDATION
        assert FlowInterrupted("SIGINT").exit_code == EXIT_INTERRUPTED
        assert QuarantineExceededError(0.6, 0.5, ["g1"]).exit_code == EXIT_QUARANTINE

    def test_validation_error_is_value_error(self):
        assert isinstance(InputValidationError("f", "m"), ValueError)

    def test_validation_error_names_field(self):
        err = InputValidationError("n_critical_paths", "must be >= 1")
        assert err.field == "n_critical_paths"
        assert "n_critical_paths" in str(err)

    def test_stage_error_carries_stage_key_cause(self):
        cause = RuntimeError("boom")
        err = StageError("metrology", "abc123", cause)
        assert err.stage == "metrology"
        assert err.key == "abc123"
        assert err.cause is cause
        assert "metrology" in str(err) and "boom" in str(err)

    def test_quarantine_error_reports_fraction(self):
        err = QuarantineExceededError(0.75, 0.5, [f"g{i}" for i in range(12)])
        assert err.fraction == 0.75
        assert err.threshold == 0.5
        assert "75.0%" in str(err) and "..." in str(err)
