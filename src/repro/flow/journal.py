"""Run durability: the append-only run journal and graceful interruption.

A :class:`RunJournal` lives in a *run directory* (``--run-dir``) and
records the run as an append-only ``journal.jsonl``: a ``manifest`` line
(run id, op, flow fingerprint, config hash — see
:func:`~repro.flow.driver.run_manifest`), one ``stage`` line per settled
stage (artifact key, wall time, cache tier, counters), per-mode lines for
sweeps, and an ``interrupted`` line or a terminal ``complete`` /
``failed`` one (written by :meth:`RunJournal.finish`).
Every line is flushed and fsynced, so even a SIGKILLed process leaves a
consistent prefix on disk; a torn final line (the process died mid-write)
is tolerated on read.  :meth:`RunJournal.close` is final: a later append
raises :class:`JournalClosedError`, so a run abandoned on a worker thread
cannot write past the record that settled it.

Resume (``--resume``) replays the journal: the manifest is checked
against the current op, flow fingerprint and config hash (a mismatched resume
is an :class:`~repro.flow.errors.InputValidationError`, not a silently
wrong run), and the run directory's artifact cache serves every journaled
stage, so only post-interrupt work is computed.

:class:`InterruptGuard` implements the graceful-stop contract: the first
SIGINT/SIGTERM sets a flag that the stage graph checks *between* stages —
the in-flight stage settles, its artifacts are persisted, and the run
exits with :class:`~repro.flow.errors.FlowInterrupted` (exit code 2).  A
second signal aborts immediately via :class:`KeyboardInterrupt`.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import uuid
from types import FrameType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    TextIO,
)

if TYPE_CHECKING:
    from repro.flow.chaos import FaultPlan
    from repro.flow.trace import StageRecord

from repro.flow.errors import FlowInterrupted, InputValidationError

#: schema version stamped on every manifest (bump on incompatible change)
JOURNAL_VERSION = 1


class JournalClosedError(RuntimeError):
    """An append reached a journal after :meth:`RunJournal.close`."""


class RunJournal:
    """Append-only journal of one (possibly multi-session) run.

    Open with :meth:`create` for a fresh run directory or :meth:`resume`
    to continue an interrupted one; ``CACHE_SUBDIR`` names the artifact
    cache that makes the replay cheap.
    """

    FILENAME = "journal.jsonl"
    CACHE_SUBDIR = "cache"

    def __init__(self, run_dir: str,
                 fault_plan: Optional["FaultPlan"] = None) -> None:
        self.run_dir = run_dir
        self.path = os.path.join(run_dir, self.FILENAME)
        self._fh: Optional[TextIO] = None
        self._closed = False
        #: deterministic write-fault injection (chaos harness); None in
        #: production
        self.fault_plan = fault_plan
        #: callbacks invoked with each successfully appended record — the
        #: flow service hangs its hung-stage heartbeat off these
        self._listeners: List[Callable[[Dict[str, Any]], None]] = []
        #: appends may come from several threads (a service job's flow
        #: thread and the event loop that settles the job); the lock keeps
        #: each JSON line whole and orders them against close()
        self._write_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, run_dir: str, manifest: Dict[str, Any],
               fault_plan: Optional["FaultPlan"] = None) -> "RunJournal":
        """Start a fresh journal; refuses a directory that already has one
        (pass ``--resume`` or pick a new directory instead of silently
        clobbering an earlier run's history)."""
        journal = cls(run_dir, fault_plan=fault_plan)
        if journal.exists():
            raise InputValidationError(
                "run_dir",
                f"{run_dir} already contains a journal; "
                "pass --resume to continue it or choose a fresh directory",
            )
        os.makedirs(run_dir, exist_ok=True)
        journal.append("manifest", run_id=uuid.uuid4().hex[:12],
                       version=JOURNAL_VERSION, **manifest)
        return journal

    @classmethod
    def resume(cls, run_dir: str, manifest: Dict[str, Any],
               fault_plan: Optional["FaultPlan"] = None) -> "RunJournal":
        """Reopen an interrupted run, verifying it is the *same* run
        (:meth:`check_manifest`)."""
        journal = cls(run_dir, fault_plan=fault_plan)
        if not journal.exists():
            raise InputValidationError(
                "run_dir", f"{run_dir} has no journal to resume"
            )
        recorded = journal.manifest()
        if recorded is None:
            raise InputValidationError(
                "run_dir", f"{journal.path} has no readable manifest record"
            )
        cls.check_manifest(recorded, manifest)
        journal.append("resumed", run_id=recorded.get("run_id"))
        return journal

    @staticmethod
    def check_manifest(recorded: Dict[str, Any],
                       manifest: Dict[str, Any]) -> None:
        """Raise :class:`InputValidationError` unless ``recorded`` is the
        manifest of the run ``manifest`` describes.

        The op, fingerprint and config hash must match — resuming a flow
        as a sweep, or with a different design or config, would serve
        artifacts that do not belong to it.  A field either side lacks
        is not compared (journals written before ``op`` was recorded
        still resume).
        """
        for field in ("op", "fingerprint", "config_hash"):
            want, got = manifest.get(field), recorded.get(field)
            if want is not None and got is not None and want != got:
                raise InputValidationError(
                    "run_dir",
                    f"journal {field} {got} does not match this invocation "
                    f"({want}); --resume must replay the same "
                    "op+design+config",
                )

    def exists(self) -> bool:
        return os.path.exists(self.path) and os.path.getsize(self.path) > 0

    def close(self) -> None:
        """Close for good: every later append raises
        :class:`JournalClosedError` (idempotent)."""
        with self._write_lock:
            self._close_locked()

    def _close_locked(self) -> None:
        self._closed = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- writing -------------------------------------------------------------

    def add_listener(self, listener: Callable[[Dict[str, Any]], None]) -> None:
        """Register a callback fired (outside the write lock) after each
        successful append — the service's hung-stage watchdog listens here
        for stage heartbeats.  Listener errors are swallowed: telemetry
        must never fail the run."""
        with self._write_lock:
            self._listeners.append(listener)

    def append(self, record_type: str, **payload: Any) -> Dict[str, Any]:
        """Append one record; flushed and fsynced so a kill -9 an instant
        later still finds it on disk."""
        return self._append(record_type, payload, close=False)

    def finish(self, record_type: str, **payload: Any) -> Dict[str, Any]:
        """Append a terminal record and close, in one hold of the write
        lock: no other thread's append can land after it.  A failed write
        leaves the journal open, so the caller can still record why."""
        return self._append(record_type, payload, close=True)

    def _append(self, record_type: str, payload: Dict[str, Any],
                close: bool) -> Dict[str, Any]:
        record = {"type": record_type, **payload}
        with self._write_lock:
            if self._closed:
                raise JournalClosedError(
                    f"{self.path} is closed; refusing {record_type!r} record"
                )
            if (self.fault_plan is not None
                    and self.fault_plan.trigger("journal-write", record_type)
                    is not None):
                raise OSError("chaos: injected journal write failure")
            if self._fh is None:
                os.makedirs(self.run_dir, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
            if close:
                self._close_locked()
            listeners = list(self._listeners)
        for listener in listeners:
            try:
                listener(record)
            # repro-lint: allow[broad-except] observability hook: a bad listener must not fail the journaled run
            except Exception:
                pass
        return record

    def record_stage(self, record: "StageRecord", key: str,
                     quarantined: int = 0) -> None:
        """Journal one settled stage (live or cache-served)."""
        self.append(
            "stage",
            name=record.name,
            key=key,
            wall_s=round(record.wall_s, 6),
            cache_hit=record.cache_hit,
            cache_source=record.cache_source,
            counters=dict(record.counters),
            quarantined_gates=quarantined,
        )

    def record_mode(self, mode: str, status: str, detail: str = "") -> None:
        """Journal one sweep mode's outcome (``ok`` / ``failed``)."""
        self.append("mode", mode=mode, status=status, detail=detail)

    def record_interrupted(self, signal_name: str,
                           next_stage: Optional[str] = None) -> None:
        self.append("interrupted", signal=signal_name, next_stage=next_stage)

    # -- reading -------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Every parseable record, oldest first.

        A torn final line (the writer was killed mid-append) or stray
        garbage is skipped rather than raised — the journal must be
        readable after any crash.
        """
        if not os.path.exists(self.path):
            return []
        out: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and "type" in record:
                    out.append(record)
        return out

    def manifest(self) -> Optional[Dict[str, Any]]:
        for record in self.records():
            if record["type"] == "manifest":
                return record
        return None

    def stage_records(self) -> List[Dict[str, Any]]:
        return [r for r in self.records() if r["type"] == "stage"]

    def completed_stage_keys(self) -> Dict[str, str]:
        """Stage name -> artifact key of its most recent settled record."""
        keys: Dict[str, str] = {}
        for record in self.stage_records():
            keys[record["name"]] = record["key"]
        return keys

    def was_interrupted(self) -> bool:
        records = self.records()
        terminal = [r for r in records
                    if r["type"] in ("interrupted", "complete", "failed")]
        return bool(terminal) and terminal[-1]["type"] == "interrupted"

    def terminal_state(self) -> Optional[str]:
        """``"complete"``/``"failed"`` if the run settled, else None.

        A journal with no terminal record belongs to a run whose process
        died (or is still running) — the service's orphan scan re-enqueues
        those on startup.  ``interrupted`` is deliberately *not* terminal:
        an interrupted run is resumable by contract.
        """
        state: Optional[str] = None
        for record in self.records():
            if record["type"] in ("complete", "failed"):
                state = record["type"]
        return state


class InterruptGuard:
    """Scoped SIGINT/SIGTERM handler implementing graceful interruption.

    Inside the ``with`` block the first signal only sets
    :attr:`interrupted`; the stage graph polls :meth:`checkpoint` between
    stages, so the in-flight stage settles (and is cached + journaled)
    before :class:`FlowInterrupted` unwinds the run.  A second signal
    raises :class:`KeyboardInterrupt` immediately — the operator insisting
    beats graceful.  Handlers are restored on exit.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.interrupted: Optional[str] = None
        self._previous: Dict[int, Any] = {}

    def _handle(self, signum: int, frame: Optional[FrameType]) -> None:
        name = signal.Signals(signum).name
        if self.interrupted is not None:
            raise KeyboardInterrupt(name)
        self.interrupted = name

    def __enter__(self) -> "InterruptGuard":
        for sig in self.SIGNALS:
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except ValueError:
                # Not the main thread: polling still works via .interrupted
                # set by the owner; signals stay with the default handler.
                pass
        return self

    def __exit__(self, *exc: object) -> None:
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)
        self._previous.clear()

    def checkpoint(self, next_stage: Optional[str] = None) -> None:
        """Raise :class:`FlowInterrupted` if a stop was requested."""
        if self.interrupted is not None:
            raise FlowInterrupted(self.interrupted, next_stage=next_stage)
