"""Deterministic fault injection: every failure mode, reproducible on demand.

A :class:`FaultPlan` is a small, seeded description of *which operations
fail* during a run — one :class:`FaultSpec` per injected fault, matched
by **site** (where in the stack the fault fires) and an optional **key
substring** (which stage / artifact / record it hits).  The plan is
threaded through the layers that can fail in production:

========================= ==================================================
site                      injection point
========================= ==================================================
``disk-read``             :meth:`FlowContext._disk_load` — the payload is
                          corrupted before the sidecar hash check, driving
                          the real corruption-recovery path
``disk-write``            :meth:`FlowContext._disk_store` — raises
                          ``OSError``, exercising write-error degradation
``journal-write``         :meth:`RunJournal.append` — raises ``OSError``
                          (key = the record type being written)
``stage-run``             :func:`~repro.flow.stages.settle_stage` — the
                          stage body raises :class:`ChaosError`
                          (key = the stage name)
``stage-hang``            :func:`~repro.flow.stages.settle_stage` — the
                          stage blocks for ``delay_s`` (interruptible via
                          :meth:`FaultPlan.release`), simulating a wedged
                          worker thread
``chunk``                 :meth:`ParallelExecutor.map_chunks` — the pool
                          worker given the chunk raises
                          :class:`ChaosError` (key = chunk index),
                          driving retry/degrade; the serial paths raise
                          in-process
``socket``                :meth:`FlowService._handle_connection` — the
                          connection is dropped without a response
                          (key = the request op)
``worker-exit``           :meth:`ParallelExecutor.map_chunks` — the
                          process-pool worker given the chunk exits
                          (the real ``BrokenProcessPool``); where exiting
                          would kill the caller (thread pool, serial
                          paths) it raises like ``chunk``
========================= ==================================================

Determinism is the point: a plan fires on the first ``times`` *matching*
operations, counted under a lock, so the same plan over the same run
injects the same faults every time — the chaos test suite sweeps
:meth:`FaultPlan.seeded` plans and asserts each fault class reaches its
documented terminal state within a bounded deadline.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.flow.errors import InputValidationError

#: the injectable fault sites, in the round-robin order
#: :meth:`FaultPlan.seeded` walks them (new sites go last, so a seed
#: keeps its fault class)
SITES = (
    "disk-read",
    "disk-write",
    "journal-write",
    "stage-run",
    "stage-hang",
    "chunk",
    "socket",
    "worker-exit",
)

#: stage names a seeded plan targets for ``stage-run`` / ``stage-hang``
#: (the default flow graph; an unmatched name simply never fires)
_STAGE_TARGETS = (
    "place",
    "sta_drawn",
    "tag_critical",
    "opc",
    "metrology",
    "back_annotate",
    "sta_post",
    "hold",
    "power",
)


class ChaosError(RuntimeError):
    """An injected failure (never raised by real code paths)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: fire at ``site`` on the first ``times``
    operations whose key contains ``match`` (empty = every operation)."""

    site: str
    match: str = ""
    times: int = 1
    #: stage-hang only: how long the stage blocks (interruptible through
    #: :meth:`FaultPlan.release`)
    delay_s: float = 30.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise InputValidationError(
                "site", f"must be one of {SITES}, got {self.site!r}"
            )
        if self.times < 1:
            raise InputValidationError(
                "times", f"must be >= 1, got {self.times}"
            )
        if self.delay_s <= 0:
            raise InputValidationError(
                "delay_s", f"must be positive, got {self.delay_s}"
            )


class FaultPlan:
    """A thread-safe, deterministic schedule of injected faults.

    Call :meth:`trigger` at an injection site with the operation's key:
    the first matching spec with tokens left fires (consuming one token)
    and is returned; otherwise the operation proceeds untouched.
    :attr:`fired` counts firings per site so tests can assert the fault
    actually happened rather than silently missing its target.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self._remaining: List[int] = [spec.times for spec in self.specs]
        #: site -> number of faults fired (for test assertions)
        self.fired: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._released = threading.Event()

    def __repr__(self) -> str:
        with self._lock:
            parts = ", ".join(
                f"{s.site}[{s.match or '*'}]x{r}"
                for s, r in zip(self.specs, self._remaining)
            )
        return f"FaultPlan({parts})"

    @classmethod
    def seeded(
        cls,
        seed: int,
        site: Optional[str] = None,
        times: int = 1,
        delay_s: float = 30.0,
    ) -> Tuple["FaultPlan", FaultSpec]:
        """A deterministic single-fault plan derived from ``seed``.

        The fault class defaults to ``SITES[seed % len(SITES)]`` (eight
        consecutive seeds cover every class); for stage faults the target
        stage is drawn from ``random.Random(seed)`` so a seed sweep also
        varies *where* the fault lands.  Returns ``(plan, spec)`` so the
        caller knows which terminal state to assert.
        """
        rng = random.Random(seed)
        chosen = site if site is not None else SITES[seed % len(SITES)]
        match = ""
        if chosen in ("stage-run", "stage-hang"):
            match = rng.choice(_STAGE_TARGETS)
        spec = FaultSpec(site=chosen, match=match, times=times,
                         delay_s=delay_s)
        return cls([spec]), spec

    def trigger(self, site: str, key: str = "") -> Optional[FaultSpec]:
        """Consume and return the first matching fault, or None."""
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.site != site:
                    continue
                if spec.match and spec.match not in key:
                    continue
                if self._remaining[index] <= 0:
                    continue
                self._remaining[index] -= 1
                self.fired[site] = self.fired.get(site, 0) + 1
                return spec
        return None

    def release(self) -> None:
        """Unblock every in-flight (and future) injected hang.

        Lets tests free the leaked worker thread once the watchdog has
        been proven to fire, instead of waiting out ``delay_s``.
        """
        self._released.set()

    def hang(self, spec: FaultSpec) -> None:
        """Block for ``spec.delay_s``, waking early on :meth:`release`."""
        deadline = time.monotonic() + spec.delay_s
        while time.monotonic() < deadline:
            if self._released.wait(timeout=0.05):
                return


def inject_stage_fault(plan: FaultPlan, stage_name: str) -> None:
    """The ``stage-run`` / ``stage-hang`` injection hook.

    Called by :func:`~repro.flow.stages.settle_stage` at the top of the
    compute path (never on a cache hit, so an injected fault is never
    cached).  A hang fires before a crash when both match, mirroring a
    worker that wedges and is then killed.
    """
    spec = plan.trigger("stage-hang", stage_name)
    if spec is not None:
        plan.hang(spec)
    spec = plan.trigger("stage-run", stage_name)
    if spec is not None:
        raise ChaosError(f"injected crash in stage {stage_name!r}")


__all__ = ["SITES", "ChaosError", "FaultSpec", "FaultPlan",
           "inject_stage_fault"]
