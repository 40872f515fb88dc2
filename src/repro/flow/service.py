"""Flow-as-a-service front-end: an asyncio job server over the flows.

:class:`FlowService` turns a set of pre-built flows (one per design) into
an asyncio job server: ``submit`` enqueues a flow or sweep request onto a
**bounded** queue (a full queue rejects with
:class:`~repro.flow.errors.ServiceRejectedError` — backpressure, not
unbounded buffering), a fixed pool of workers drains it — each job runs
the serial stage loop on its own thread against the flows' shared
:class:`~repro.flow.context.FlowContext` — and
``status``/``result``/``report`` expose each job's lifecycle.

Because every job settles stages against the same context, two
concurrent identical submissions compute each artifact key **exactly
once**: the second job's stages either block on the first's in-flight
settle (counted ``deduped`` in its trace) or serve finished artifacts as
cache hits.  Each request carries its own quarantine budget
(``FlowConfig.max_quarantine_fraction``) and, under a ``run_root``, its
own run journal — so a service job is exactly as durable and resumable
as a CLI run.

Hardening — every job terminates in bounded time with a correct exit
code, and the service survives ``kill -9`` with no lost work:

* **Deadlines + hung-stage watchdog.**  A job's wall budget is the
  submit-time ``deadline_s`` override, else ``FlowConfig.deadline_s``,
  else the service default.  Every journal append is a heartbeat; a
  single watchdog task cancels jobs past their deadline (reason
  ``deadline``) or silent longer than ``stage_timeout_s`` (reason
  ``hung-stage``) — both surface as exit code 2 and the worker moves on
  to the next job instead of staying pinned.  The abandoned job thread
  is told to stop at its next stage boundary, and the job's journal is
  closed with the terminal record, so the thread cannot write past it.
* **Per-design circuit breakers.**  ``breaker_threshold`` consecutive
  failures (exit codes 1/2; validation and quarantine are the caller's
  fault, not the design's) open the breaker: submits reject with
  ``circuit-open`` and a ``retry_after``; after ``breaker_cooldown_s``
  one probe job is admitted half-open — success closes the breaker,
  failure re-opens it.
* **Orphan recovery.**  :meth:`start` scans ``run_root`` for journals
  with no terminal record (the previous process died mid-job) and
  re-enqueues them through the same manifest check as ``--resume``;
  pre-crash stages replay from the shared artifact cache.
* **Bounded stop.**  :meth:`stop` drains for at most ``drain_timeout``,
  then cancels stuck jobs (reason ``stopped``) and finally the workers
  themselves — it never gathers forever.

Job exit codes follow the CLI contract
(:mod:`repro.flow.errors`): 0 ok, 1 stage failure, 2 interrupted /
deadline / hung stage, 3 rejected input, 4 quarantine exceeded.

The same operations are exposed over a local socket (UNIX or TCP) as a
JSON-lines protocol — one request object per line, one response object
per line — see :meth:`FlowService.serve_unix` / :meth:`serve_tcp`.  The
``health`` op reports queue depth, worker occupancy, breaker states and
cache/executor telemetry.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.flow.chaos import FaultPlan
from repro.flow.context import FlowContext
from repro.flow.driver import (
    _WIRE_CONFIG_FIELDS,
    RUN_OPS,
    failure,
    finish_failed,
    run_manifest,
    run_op,
    summarize,
)
from repro.flow.errors import (
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    InputValidationError,
    ServiceRejectedError,
)
from repro.flow.journal import InterruptGuard, RunJournal
from repro.flow.parallel import ParallelExecutor
from repro.flow.postopc import FlowConfig, FlowReport, PostOpcTimingFlow
from repro.flow.sweep import SweepResult

#: service job directories under ``run_root`` (the orphan-scan pattern)
_JOB_DIR = re.compile(r"^job-(\d+)$")


class CircuitBreaker:
    """Consecutive-failure breaker for one design.

    State machine: ``closed`` (normal) → ``open`` after ``threshold``
    consecutive failures → ``half-open`` once ``cooldown_s`` has elapsed
    (one probe admitted; the rest keep rejecting) → ``closed`` on probe
    success or back to ``open`` on probe failure.  A wedged probe cannot
    jam the breaker: the half-open window itself expires after another
    cooldown and the next submit probes again.

    ``time_fn`` is injectable so tests drive the clock deterministically.
    """

    def __init__(
        self,
        threshold: int,
        cooldown_s: float,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be positive, got {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._time = time_fn
        self.state = "closed"  # closed | open | half-open
        self.failures = 0
        #: last open/half-open transition time (the cooldown clock)
        self.opened_at = 0.0

    def admit(self) -> Optional[float]:
        """None admits the submit; a float rejects with that retry-after.

        An ``open`` breaker whose cooldown elapsed flips to ``half-open``
        and admits exactly this call as the probe; while the probe is in
        flight further submits are rejected until the window expires.
        """
        if self.state == "closed":
            return None
        elapsed = self._time() - self.opened_at
        if elapsed >= self.cooldown_s:
            self.state = "half-open"
            self.opened_at = self._time()
            return None
        return max(0.0, self.cooldown_s - elapsed)

    def record(self, ok: bool) -> None:
        """Feed one settled job's outcome into the state machine."""
        if ok:
            self.state = "closed"
            self.failures = 0
            return
        self.failures += 1
        if self.state == "half-open" or self.failures >= self.threshold:
            self.state = "open"
            self.opened_at = self._time()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "consecutive_failures": self.failures,
            "threshold": self.threshold,
        }


@dataclass
class Job:
    """One submitted request and everything learned about it."""

    id: str
    design: str
    op: str  # "flow" | "sweep"
    config: FlowConfig
    state: str = "queued"  # queued | running | done | failed
    exit_code: Optional[int] = None
    error: str = ""
    #: JSON-able digest filled when the job settles (driver.summarize)
    summary: Dict[str, Any] = field(default_factory=dict)
    #: the Python result object, for in-process callers
    result: Optional[Union[FlowReport, SweepResult]] = None
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    #: effective wall budget (submit override > config > service default)
    deadline_s: Optional[float] = None
    #: True for an orphan re-enqueued from a pre-crash journal
    resumed: bool = False
    #: watchdog bookkeeping (service time_fn clock)
    started_at: Optional[float] = None
    last_beat: Optional[float] = None
    #: why the watchdog/stop cancelled the job ("deadline" |
    #: "hung-stage" | "stopped"); None for a job that ran to settlement
    cancel_reason: Optional[str] = None
    #: the asyncio task running the job (None until a worker picks it up)
    task: Optional["asyncio.Task[None]"] = None

    def status(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.id,
            "design": self.design,
            "op": self.op,
            "opc_mode": self.config.opc_mode,
            "state": self.state,
        }
        if self.exit_code is not None:
            payload["exit_code"] = self.exit_code
        if self.error:
            payload["error"] = self.error
        if self.cancel_reason is not None:
            payload["reason"] = self.cancel_reason
        if self.resumed:
            payload["resumed"] = True
        return payload


class FlowService:
    """Bounded-queue job service over a set of named flows.

    ``flows`` maps design names to pre-built
    :class:`~repro.flow.postopc.PostOpcTimingFlow` objects — typically
    all sharing one :class:`~repro.flow.context.FlowContext` so requests
    dedup against each other.  ``max_queue`` bounds the number of
    *queued* (not yet running) jobs; ``workers`` fixes how many jobs run
    concurrently; ``run_root`` (optional) gives every job a journaled run
    directory ``<run_root>/<job_id>/`` and enables orphan recovery on
    :meth:`start`.

    Hardening knobs (all keyword-only):

    * ``deadline_s`` — default per-job wall budget (submit-time and
      config overrides win);
    * ``stage_timeout_s`` — hung-stage watchdog: max silence between
      journal heartbeats (requires ``run_root``, where the heartbeats
      come from);
    * ``watchdog_poll_s`` — watchdog poll interval;
    * ``breaker_threshold`` / ``breaker_cooldown_s`` — per-design
      circuit breaker;
    * ``drain_timeout_s`` — default bound on :meth:`stop`;
    * ``fault_plan`` — chaos harness: injected journal-write and
      socket-drop faults (thread the same plan through the shared
      context / executor to cover the other sites);
    * ``time_fn`` — the watchdog/breaker clock, injectable for tests.

    Use as an async context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        flows: Mapping[str, PostOpcTimingFlow],
        *,
        max_queue: int = 16,
        workers: int = 2,
        run_root: Optional[str] = None,
        deadline_s: Optional[float] = None,
        stage_timeout_s: Optional[float] = None,
        watchdog_poll_s: float = 0.1,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 30.0,
        drain_timeout_s: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        if not flows:
            raise ValueError("FlowService needs at least one design")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        if stage_timeout_s is not None and stage_timeout_s <= 0:
            raise ValueError(
                f"stage_timeout_s must be positive, got {stage_timeout_s}"
            )
        if stage_timeout_s is not None and run_root is None:
            raise ValueError(
                "stage_timeout_s needs run_root: heartbeats are journal "
                "appends, and only journaled jobs have a journal"
            )
        if watchdog_poll_s <= 0:
            raise ValueError(
                f"watchdog_poll_s must be positive, got {watchdog_poll_s}"
            )
        if drain_timeout_s is not None and drain_timeout_s <= 0:
            raise ValueError(
                f"drain_timeout_s must be positive, got {drain_timeout_s}"
            )
        self.flows: Dict[str, PostOpcTimingFlow] = dict(flows)
        self.max_queue = max_queue
        self.n_workers = workers
        self.run_root = run_root
        self.deadline_s = deadline_s
        self.stage_timeout_s = stage_timeout_s
        self.watchdog_poll_s = watchdog_poll_s
        self.drain_timeout_s = drain_timeout_s
        self.fault_plan = fault_plan
        self._time = time_fn
        self.jobs: Dict[str, Job] = {}
        self._breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(breaker_threshold, breaker_cooldown_s,
                                 time_fn=time_fn)
            for name in self.flows
        }
        self._queue: Optional["asyncio.Queue[Optional[Job]]"] = None
        self._workers: List["asyncio.Task[None]"] = []
        self._watchdog_task: Optional["asyncio.Task[None]"] = None
        #: worker index -> the job it is currently running (watchdog view)
        self._active: List[Optional[Job]] = []
        self._servers: List[asyncio.AbstractServer] = []
        self._counter = 0
        self._stopped = True

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start the worker pool + watchdog, re-enqueuing any orphans
        (journaled jobs with no terminal record) found under ``run_root``
        (idempotent)."""
        if not self._stopped:
            return
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._stopped = False
        self._active = [None] * self.n_workers
        if self.run_root is not None:
            # repro-lint: allow[blocking-in-async] startup-only scan before any job runs; it feeds put_nowait on the loop's queue, so it must stay on the loop
            self._recover_orphans()
        self._workers = [
            asyncio.create_task(self._worker(i),
                                name=f"flow-service-worker-{i}")
            for i in range(self.n_workers)
        ]
        self._watchdog_task = asyncio.create_task(
            self._watchdog(), name="flow-service-watchdog"
        )

    async def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Stop accepting work; drain for a bounded time, then cancel.

        Jobs still queued (never started) are marked failed rather than
        silently dropped.  Running jobs get ``drain_timeout`` seconds
        (default :attr:`drain_timeout_s`; None = wait forever) to finish;
        past that they are cancelled with reason ``stopped`` (exit code
        2) and, as a last resort, the worker tasks themselves are
        cancelled — ``stop`` never gathers a wedged pool forever.
        """
        if self._stopped:
            return
        self._stopped = True
        timeout = drain_timeout if drain_timeout is not None \
            else self.drain_timeout_s
        assert self._queue is not None
        while True:
            try:
                queued = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if queued is not None:
                queued.state = "failed"
                queued.exit_code = EXIT_FAILURE
                queued.error = "service stopped before the job started"
                queued.done_event.set()
            self._queue.task_done()
        for _ in self._workers:
            await self._queue.put(None)
        if self._workers:
            # Not gather(): cancelling a timed-out gather would cancel the
            # workers before the stuck *jobs* were dealt with.
            _, pending = await asyncio.wait(set(self._workers),
                                            timeout=timeout)
            if pending:
                for job in self._active:
                    if (job is not None and job.task is not None
                            and not job.task.done()):
                        if job.cancel_reason is None:
                            job.cancel_reason = "stopped"
                        job.task.cancel()
                _, pending = await asyncio.wait(pending, timeout=1.0)
                for worker in pending:
                    worker.cancel()
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            await asyncio.gather(self._watchdog_task, return_exceptions=True)
            self._watchdog_task = None
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers = []

    async def __aenter__(self) -> "FlowService":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- orphan recovery -----------------------------------------------------

    def _recover_orphans(self) -> None:
        """Re-enqueue journaled jobs the previous process never finished.

        Also advances the id counter past every recovered directory so
        new submissions cannot collide with pre-crash job ids.
        """
        assert self.run_root is not None and self._queue is not None
        if not os.path.isdir(self.run_root):
            return
        for name in sorted(os.listdir(self.run_root)):
            match = _JOB_DIR.match(name)
            run_dir = os.path.join(self.run_root, name)
            if match is None or not os.path.isdir(run_dir):
                continue
            self._counter = max(self._counter, int(match.group(1)))
            probe = RunJournal(run_dir)
            if not probe.exists() or probe.terminal_state() is not None:
                continue
            job = self._rebuild_orphan(name, probe)
            self.jobs[job.id] = job
            if job.state != "queued":
                continue
            try:
                self._queue.put_nowait(job)
            except asyncio.QueueFull:
                self._fail_orphan(
                    job, "orphan not resumable: recovery queue overflow"
                )

    def _rebuild_orphan(self, job_id: str, probe: RunJournal) -> Job:
        """One orphan journal -> a queued (or failed) Job.

        The manifest must round-trip: known design and op,
        wire-expressible config, and :meth:`RunJournal.check_manifest`
        against the manifest *this* process would write — the check
        ``--resume`` applies, so recovery can never replay artifacts that
        don't belong to the current code or config.
        """
        manifest = probe.manifest() or {}
        design = str(manifest.get("design", ""))
        job = Job(id=job_id, design=design,
                  op=str(manifest.get("op", "flow")),
                  config=FlowConfig(), resumed=True)
        flow = self.flows.get(design)
        if flow is None:
            return self._fail_orphan(
                job, f"orphan not resumable: unknown design {design!r}"
            )
        if job.op not in RUN_OPS:
            return self._fail_orphan(
                job, f"orphan not resumable: unknown op {job.op!r}"
            )
        wire = manifest.get("config_wire")
        if not isinstance(wire, dict):
            return self._fail_orphan(
                job, "orphan not resumable: manifest has no config_wire"
            )
        try:
            config = self._config_from_wire(dict(wire))
            RunJournal.check_manifest(
                manifest, run_manifest(design, job.op, flow, config)
            )
        except (ServiceRejectedError, InputValidationError) as exc:
            return self._fail_orphan(job, f"orphan not resumable: {exc}")
        job.config = config
        job.deadline_s = config.deadline_s \
            if config.deadline_s is not None else self.deadline_s
        return job

    def _fail_orphan(self, job: Job, message: str) -> Job:
        """Settle an unrecoverable orphan: failed job + journaled verdict
        (so the next restart's scan skips it as terminal)."""
        job.state = "failed"
        job.exit_code = EXIT_FAILURE
        job.error = message
        job.done_event.set()
        assert self.run_root is not None
        finish_failed(RunJournal(os.path.join(self.run_root, job.id)),
                      message, EXIT_FAILURE)
        return job

    # -- operations ----------------------------------------------------------

    def submit(
        self,
        design: str,
        op: str = "flow",
        config: Optional[FlowConfig] = None,
        deadline_s: Optional[float] = None,
    ) -> str:
        """Enqueue one job; returns its id.

        Rejects with :class:`~repro.flow.errors.ServiceRejectedError`
        (never queues) when the service is stopped (``stopped``), the
        design is unknown (``unknown-design``), the op or deadline is
        malformed (``bad-config``), the design's circuit breaker is open
        (``circuit-open``, carrying ``retry_after``), or the bounded
        queue is full (``queue-full``).

        ``deadline_s`` overrides both ``config.deadline_s`` and the
        service default for this job only.
        """
        if self._stopped or self._queue is None:
            raise ServiceRejectedError("stopped", "service is not running")
        if design not in self.flows:
            known = ", ".join(sorted(self.flows))
            raise ServiceRejectedError(
                "unknown-design", f"no design {design!r} (have: {known})"
            )
        if op not in RUN_OPS:
            raise ServiceRejectedError(
                "bad-config", f"op must be 'flow' or 'sweep', got {op!r}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ServiceRejectedError(
                "bad-config", f"deadline_s must be positive, got {deadline_s}"
            )
        retry_after = self._breakers[design].admit()
        if retry_after is not None:
            raise ServiceRejectedError(
                "circuit-open",
                f"design {design!r} breaker is open after repeated "
                f"failures; retry in {retry_after:.1f}s",
                retry_after=retry_after,
            )
        config = config if config is not None else FlowConfig()
        if deadline_s is not None:
            effective: Optional[float] = deadline_s
        elif config.deadline_s is not None:
            effective = config.deadline_s
        else:
            effective = self.deadline_s
        job = Job(id="", design=design, op=op, config=config,
                  deadline_s=effective)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            raise ServiceRejectedError(
                "queue-full",
                f"bounded queue ({self.max_queue}) is full; retry later",
            ) from None
        # The id is allocated only after a successful enqueue, so rejected
        # submits never burn numbers.  Safe: no await between the put and
        # the registration, so no worker can observe the blank id.
        self._counter += 1
        job.id = f"job-{self._counter:04d}"
        self.jobs[job.id] = job
        return job.id

    def _job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceRejectedError("unknown-job", f"no job {job_id!r}")
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's lifecycle state (queued/running/done/failed)."""
        return self._job(job_id).status()

    def health(self) -> Dict[str, Any]:
        """Operational snapshot: queue, workers, breakers, cache stats.

        Context and executor telemetry is deduplicated by object
        identity, so flows sharing one context are not double-counted.
        """
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        workers = [
            {"index": index, "job": None if job is None else job.id}
            for index, job in enumerate(self._active)
        ]
        contexts: Dict[int, FlowContext] = {}
        executors: Dict[int, ParallelExecutor] = {}
        for flow in self.flows.values():
            contexts.setdefault(id(flow.context), flow.context)
            executors.setdefault(id(flow.executor), flow.executor)
        cache = {
            "mem_hits": 0, "mem_misses": 0,
            "disk_hits": 0, "disk_misses": 0, "disk_writes": 0,
            "disk_write_errors": 0, "disk_corruptions": 0,
            "deduped": 0,
        }
        for context in contexts.values():
            for stat in cache:
                cache[stat] += int(getattr(context, stat))
        executor_stats = {
            "chunk_failures": 0, "retries": 0,
            "degraded_chunks": 0, "abandoned": 0,
        }
        for executor in executors.values():
            snapshot = executor.stats_snapshot()
            for stat in executor_stats:
                executor_stats[stat] += int(snapshot.get(stat, 0))
        return {
            "running": not self._stopped,
            "queue_depth": 0 if self._queue is None else self._queue.qsize(),
            "workers": workers,
            "jobs": states,
            "breakers": {
                name: breaker.snapshot()
                for name, breaker in sorted(self._breakers.items())
            },
            "cache": cache,
            "executor": executor_stats,
        }

    async def result(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Union[FlowReport, SweepResult]:
        """Await the job and return its Python result object.

        A failed job raises :class:`~repro.flow.errors.ServiceRejectedError`
        naming the failure — reason ``deadline`` when the watchdog killed
        it (deadline or hung stage), ``failed-job`` otherwise.
        """
        job = self._job(job_id)
        await asyncio.wait_for(job.done_event.wait(), timeout)
        if job.result is None:
            reason = "deadline" \
                if job.cancel_reason in ("deadline", "hung-stage") \
                else "failed-job"
            raise ServiceRejectedError(
                reason, f"{job_id} failed: {job.error}"
            )
        return job.result

    async def report(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Await the job and return its JSON-able summary + status."""
        job = self._job(job_id)
        await asyncio.wait_for(job.done_event.wait(), timeout)
        return {**job.status(), "summary": job.summary}

    # -- execution -----------------------------------------------------------

    def _open_journal(self, job: Job) -> Optional[RunJournal]:
        if self.run_root is None:
            return None
        manifest = run_manifest(job.design, job.op, self.flows[job.design],
                                job.config)
        opener = RunJournal.resume if job.resumed else RunJournal.create
        return opener(os.path.join(self.run_root, job.id), manifest,
                      fault_plan=self.fault_plan)

    def _beat(self, job: Job) -> None:
        """Journal-append heartbeat: the job's flow thread is alive."""
        job.last_beat = self._time()

    async def _run_job(self, job: Job) -> None:
        flow = self.flows[job.design]
        journal: Optional[RunJournal] = None
        # Never entered: the service, not a signal, sets .interrupted when
        # it abandons the job, so the flow thread stops at its next stage
        # boundary instead of running the rest of the flow.
        stop = InterruptGuard()
        try:
            journal = await asyncio.to_thread(self._open_journal, job)
            if journal is not None:
                journal.add_listener(lambda record: self._beat(job))
            result = await asyncio.to_thread(
                run_op, flow, job.op, job.config,
                journal=journal, interrupt=stop,
            )
            job.result = result
            job.summary = summarize(result)
            job.state = "done"
            job.exit_code = 0
            if journal is not None:
                # On the loop, like every terminal record: once the job
                # is cancelled, its thread must find the journal closed.
                journal.finish("complete", **job.summary)
        except asyncio.CancelledError:
            # Watchdog (deadline / hung stage) or bounded stop.  The
            # deadline contract reuses the interrupted exit code: the run
            # was stopped by the service, not broken by the design.
            reason = job.cancel_reason or "cancelled"
            stop.interrupted = reason
            job.state = "failed"
            job.exit_code = EXIT_INTERRUPTED
            job.result = None
            job.summary = {}
            if reason == "deadline":
                job.error = (
                    f"deadline exceeded "
                    f"({job.deadline_s or 0.0:.3g}s wall budget)"
                )
            elif reason == "hung-stage":
                job.error = (
                    f"hung stage: no scheduler heartbeat for "
                    f"{self.stage_timeout_s or 0.0:.3g}s"
                )
            else:
                job.error = "service stopped before the job finished"
            if journal is not None:
                # repro-lint: allow[blocking-in-async] terminal records are written on the loop: the abandoned flow thread must find the journal closed, and the lock guards one fsynced line
                finish_failed(journal, job.error, EXIT_INTERRUPTED,
                              reason=reason)
            raise
        # repro-lint: allow[broad-except] service isolation: one bad job must not kill the worker pool
        except Exception as exc:
            job.state = "failed"
            job.error, job.exit_code = failure(exc)
            job.result = None
            job.summary = {}
            if journal is not None:
                # repro-lint: allow[blocking-in-async] terminal record on the loop (see above); the flow thread has returned, so the lock is uncontended
                finish_failed(journal, job.error, job.exit_code)
        finally:
            if journal is not None:
                try:
                    journal.close()
                except OSError:
                    pass
            job.done_event.set()

    def _breaker_record(self, job: Job) -> None:
        """Feed the job's outcome into its design's breaker.

        Exit codes 1 (stage failure) and 2 (deadline / hung stage) count
        as design failures; 3/4 (validation, quarantine budget) are the
        request's fault and stay neutral.  Jobs killed by ``stop`` say
        nothing about the design either.
        """
        if job.cancel_reason == "stopped" or self._stopped:
            return
        breaker = self._breakers.get(job.design)
        if breaker is None:
            return
        if job.exit_code == 0:
            breaker.record(True)
        elif job.exit_code in (EXIT_FAILURE, EXIT_INTERRUPTED):
            breaker.record(False)

    async def _worker(self, index: int) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            if job is None:  # stop sentinel
                self._queue.task_done()
                return
            job.state = "running"
            job.started_at = self._time()
            job.last_beat = job.started_at
            self._active[index] = job
            task = asyncio.create_task(
                self._run_job(job), name=f"flow-service-{job.id}"
            )
            job.task = task
            try:
                await task
            except asyncio.CancelledError:
                if not task.cancelled():
                    # The CancelledError is the *worker's* own
                    # cancellation (forced stop), not the job's.
                    raise
                # Watchdog/stop killed the job: the worker is recycled
                # and picks up the next queued job.
            finally:
                self._active[index] = None
                self._queue.task_done()
            self._breaker_record(job)

    async def _watchdog(self) -> None:
        """Cancel jobs past their deadline or silent past stage_timeout.

        Re-cancels every poll until the job task is done.  The cancel
        lands at the job's ``await`` on its flow thread, so a hung stage
        never pins the worker; the thread itself is told to stop at its
        next stage boundary (see :meth:`_run_job`).
        """
        while not self._stopped:
            now = self._time()
            for job in list(self._active):
                if job is None or job.task is None or job.task.done():
                    continue
                if job.cancel_reason is None:
                    if (job.deadline_s is not None
                            and job.started_at is not None
                            and now - job.started_at > job.deadline_s):
                        job.cancel_reason = "deadline"
                    elif (self.stage_timeout_s is not None
                            and job.last_beat is not None
                            and now - job.last_beat > self.stage_timeout_s):
                        job.cancel_reason = "hung-stage"
                    else:
                        continue
                job.task.cancel()
            await asyncio.sleep(self.watchdog_poll_s)

    # -- socket front-end ----------------------------------------------------

    def _config_from_wire(self, payload: Dict[str, Any]) -> FlowConfig:
        unknown = sorted(set(payload) - set(_WIRE_CONFIG_FIELDS))
        if unknown:
            raise ServiceRejectedError(
                "bad-config", f"unknown config fields: {unknown}"
            )
        try:
            return FlowConfig(**payload)
        except (TypeError, ValueError) as exc:
            raise ServiceRejectedError("bad-config", str(exc)) from exc

    @staticmethod
    def _wire_number(value: Any, name: str) -> Optional[float]:
        """Validate an optional numeric wire field (timeout, deadline)."""
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ServiceRejectedError(
                "bad-config", f"{name} must be a number, got {value!r}"
            )
        number = float(value)
        if number < 0:
            raise ServiceRejectedError(
                "bad-config", f"{name} must be >= 0, got {number}"
            )
        return number

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "designs": sorted(self.flows),
                    "jobs": len(self.jobs)}
        if op == "health":
            return {"ok": True, **self.health()}
        if op == "submit":
            config = self._config_from_wire(dict(request.get("config") or {}))
            deadline = self._wire_number(
                request.get("deadline_s"), "deadline_s"
            )
            job_id = self.submit(
                str(request.get("design", "")),
                str(request.get("kind", "flow")),
                config,
                deadline_s=deadline,
            )
            return {"ok": True, "id": job_id}
        if op == "status":
            return {"ok": True, **self.status(str(request.get("id", "")))}
        if op in ("result", "report"):
            timeout = self._wire_number(request.get("timeout"), "timeout")
            job_id = str(request.get("id", ""))
            try:
                payload = await self.report(job_id, timeout=timeout)
            except asyncio.TimeoutError:
                return {
                    "ok": False, "id": job_id, "reason": "timeout",
                    "error": f"job {job_id!r} not settled after {timeout}s",
                }
            return {"ok": True, **payload}
        raise ServiceRejectedError("bad-config", f"unknown op {op!r}")

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                op_key = ""
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                    op_key = str(request.get("op", ""))
                    response = await self._dispatch(request)
                except ServiceRejectedError as exc:
                    response = {"ok": False, "reason": exc.reason,
                                "error": str(exc)}
                    if exc.retry_after is not None:
                        response["retry_after"] = exc.retry_after
                except (ValueError, asyncio.TimeoutError) as exc:
                    response = {"ok": False, "reason": "bad-request",
                                "error": f"{type(exc).__name__}: {exc}"}
                if (self.fault_plan is not None
                        and self.fault_plan.trigger("socket", op_key)
                        is not None):
                    # Injected connection drop: the request was processed
                    # but the response never makes it out — clients must
                    # survive an EOF and re-query.
                    return
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def serve_unix(self, path: str) -> asyncio.AbstractServer:
        """Expose the JSON-lines protocol on a UNIX socket at ``path``."""
        server = await asyncio.start_unix_server(self._handle_connection, path)
        self._servers.append(server)
        return server

    async def serve_tcp(self, host: str, port: int) -> asyncio.AbstractServer:
        """Expose the JSON-lines protocol on a local TCP socket."""
        server = await asyncio.start_server(self._handle_connection, host, port)
        self._servers.append(server)
        return server
