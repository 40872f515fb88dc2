"""Work distribution for the flow's embarrassingly-parallel inner loops.

The two hot loops — model-OPC tile correction and per-tile gate
metrology — are expressed as work-lists of picklable tasks and dispatched
through a :class:`ParallelExecutor`.  One job (the default) runs the
work-list in the calling process; more jobs use a fork process pool, with
the tasks chunked so each worker unpickles the simulator once and builds
its SOCS kernel cache once, then streams through its whole chunk.

Results are returned in task order either way, so pool runs are
bit-identical to in-process ones.  Consumers below the flow
layer (metrology, OPC) accept an executor by duck type only — they never
import this module, preserving the bottom-up layering.

Fault tolerance: a chunk that raises, times out (``chunk_timeout``), or
loses its worker process (``BrokenProcessPool``) is retried up to
``retries`` times in a fresh pool, then degraded to serial in-process
execution as a last resort.  Because chunk boundaries and the worker are
deterministic, results stay bit-identical to serial whatever failed.
Every failure/retry/degradation is counted on :attr:`ParallelExecutor.stats`
and (when the caller passes a ``counters`` dict) on the stage's trace
record.  A :class:`~repro.flow.chaos.FaultPlan` is the deterministic test
hook: its ``chunk`` and ``worker-exit`` faults fire inside the pool
worker that runs the chunk (``worker-exit`` exits that worker process),
and raise on the in-process paths.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.flow.chaos import ChaosError, FaultPlan
from repro.flow.errors import InputValidationError

#: the FaultPlan sites that fail one worker chunk
_CHUNK_SITES = ("chunk", "worker-exit")


def split_chunks(items: Sequence[Any], n: int) -> List[List[Any]]:
    """Split ``items`` into at most ``n`` contiguous, balanced chunks."""
    items = list(items)
    n = max(1, min(n, len(items)))
    base, extra = divmod(len(items), n)
    chunks: List[List[Any]] = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return [c for c in chunks if c]


def _injected_chunk_fault(site: str) -> List[Any]:
    """Module-level (picklable) stand-in for a chunk hit by an injected
    fault: it runs in the pool worker in place of the real chunk.
    ``worker-exit`` hard-kills the worker process (the real
    ``BrokenProcessPool``); ``chunk`` makes the worker raise."""
    if site == "worker-exit":
        os._exit(43)
    raise ChaosError(f"injected {site} fault in a pool worker")


class ParallelExecutor:
    """Maps a chunk worker over a task list: in-process at one job, on a
    fork process pool of ``jobs`` workers above it."""

    def __init__(
        self,
        jobs: int = 1,
        retries: int = 0,
        chunk_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        # InputValidationError subclasses ValueError: pre-taxonomy callers
        # catching ValueError keep working, the CLI maps it to exit code 3.
        if jobs < 1:
            raise InputValidationError("jobs", f"must be >= 1, got {jobs}")
        if retries < 0:
            raise InputValidationError("retries", f"must be >= 0, got {retries}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise InputValidationError(
                "chunk_timeout", "must be positive (or None)"
            )
        self.jobs = jobs
        self.retries = retries
        self.chunk_timeout = chunk_timeout
        #: chaos-harness fault plan; ``chunk`` / ``worker-exit`` tokens are
        #: consumed here in the dispatching process (a FaultPlan holds a
        #: lock and cannot be pickled into workers) and the fault itself
        #: fires where the chunk runs
        self.fault_plan = fault_plan
        #: cumulative fault-tolerance accounting across all map_chunks calls
        #: (an executor may be shared by concurrently-scheduled stages, so
        #: increments go through :attr:`_stats_lock`)
        self.stats: Dict[str, int] = {
            "chunk_failures": 0,
            "retries": 0,
            "degraded_chunks": 0,
            "abandoned": 0,
        }
        self._stats_lock = threading.Lock()

    def __repr__(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs}, retries={self.retries})"

    def stats_snapshot(self) -> Dict[str, int]:
        """Point-in-time copy of :attr:`stats`, taken under the stats
        lock so a concurrent :meth:`map_chunks` merge can't be observed
        half-applied."""
        with self._stats_lock:
            return dict(self.stats)

    # -- dispatch -----------------------------------------------------------

    def _injected_fault(self, idx: int) -> Optional[str]:
        """Consume the fault plan's token for chunk ``idx``: the site
        that fails it, or None when the chunk runs normally."""
        if self.fault_plan is None:
            return None
        for site in _CHUNK_SITES:
            if self.fault_plan.trigger(site, str(idx)) is not None:
                return site
        return None

    def _run_in_process(
        self,
        worker: Callable[[Tuple[Any, List[Any]]], List[Any]],
        payload: Tuple[Any, List[Any]],
        idx: int,
    ) -> List[Any]:
        """Run chunk ``idx`` in this process; an injected fault raises
        here, since exiting would kill the caller."""
        site = self._injected_fault(idx)
        if site is not None:
            raise ChaosError(f"injected {site} fault in chunk {idx}")
        return list(worker(payload))

    def _make_pool(self, workers: int) -> Any:
        from concurrent.futures import ProcessPoolExecutor

        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)

    def _run_round(
        self,
        worker: Callable[[Tuple[Any, List[Any]]], List[Any]],
        payloads: List[Tuple[Any, List[Any]]],
        indices: List[int],
    ) -> Tuple[Dict[int, List[Any]], List[int], int]:
        """One pool pass over ``indices``; returns
        ``(successes, failures, abandoned)``.

        Any per-chunk exception, timeout, or pool breakage marks that
        chunk failed and never propagates out of the round.  ``abandoned``
        counts failed futures that were still running when this round gave
        up on them (a timed-out worker keeps running its chunk; a broken
        pool's workers are gone) — the observable leaked-worker pressure.
        """
        successes: Dict[int, List[Any]] = {}
        failures: List[int] = []
        abandoned = 0
        pool = self._make_pool(len(indices))
        clean_shutdown = True
        try:
            futures: List[Tuple[int, Any]] = []
            for idx in indices:
                site = self._injected_fault(idx)
                if site is None:
                    future = pool.submit(worker, payloads[idx])
                else:
                    future = pool.submit(_injected_chunk_fault, site)
                futures.append((idx, future))
            for idx, future in futures:
                try:
                    successes[idx] = future.result(timeout=self.chunk_timeout)
                # repro-lint: allow[broad-except] fault tolerance: failed chunks are retried, then degraded to serial
                except Exception:
                    # Chunk exception, TimeoutError, or BrokenProcessPool
                    # (which also fails every later future of this pool).
                    failures.append(idx)
                    clean_shutdown = False
                    if not future.done():
                        abandoned += 1
        finally:
            # After a timeout or broken pool, waiting for stragglers could
            # block forever; abandon them and let the retry use a new pool.
            pool.shutdown(wait=clean_shutdown, cancel_futures=not clean_shutdown)
        return successes, failures, abandoned

    def map_chunks(
        self,
        worker: Callable[[Tuple[Any, List[Any]]], List[Any]],
        shared: Any,
        tasks: Sequence[Any],
        counters: Optional[Dict[str, float]] = None,
    ) -> List[Any]:
        """Run ``worker((shared, chunk))`` over chunks of ``tasks``.

        ``worker`` must be a module-level (picklable) callable returning one
        result per task, in order; ``shared`` is the per-chunk payload
        (typically the simulator) shipped once per worker.  The flattened,
        task-ordered result list is returned.

        Failed chunks are retried up to :attr:`retries` times, then run
        serially in-process; ``counters`` (a stage's trace counters dict)
        receives ``worker_failures`` / ``worker_retries`` /
        ``worker_degraded`` when provided.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if self.jobs == 1 or len(tasks) == 1:
            return self._run_in_process(worker, (shared, tasks), 0)

        chunks = split_chunks(tasks, self.jobs)
        payloads = [(shared, chunk) for chunk in chunks]
        results: Dict[int, List[Any]] = {}
        pending = list(range(len(chunks)))
        failures = retried = degraded = abandoned = 0

        try:
            successes, failed, left_running = self._run_round(worker, payloads, pending)
            results.update(successes)
            failures += len(failed)
            abandoned += left_running
            for _ in range(self.retries):
                if not failed:
                    break
                retried += len(failed)
                successes, failed, left_running = self._run_round(worker, payloads, failed)
                results.update(successes)
                failures += len(failed)
                abandoned += left_running

            # Last resort: the failed chunks run serially in this process, in
            # chunk order, preserving the task-ordered output exactly.
            for idx in sorted(failed):
                degraded += 1
                results[idx] = self._run_in_process(worker, payloads[idx], idx)
        finally:
            # Merged even when the fallback raises: the failures that end a
            # call are the ones the health counters must show.
            with self._stats_lock:
                self.stats["chunk_failures"] += failures
                self.stats["retries"] += retried
                self.stats["degraded_chunks"] += degraded
                self.stats["abandoned"] += abandoned
            if counters is not None:
                counters["worker_failures"] = counters.get("worker_failures", 0) + failures
                counters["worker_retries"] = counters.get("worker_retries", 0) + retried
                counters["worker_degraded"] = counters.get("worker_degraded", 0) + degraded
                counters["worker_abandoned"] = counters.get("worker_abandoned", 0) + abandoned
        return [result for idx in range(len(chunks)) for result in results[idx]]
