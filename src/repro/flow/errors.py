"""Structured error taxonomy for the flow.

Every failure mode the run layer distinguishes gets its own class, with a
process exit code the CLI maps one-to-one (the exit-code contract of the
``flow``/``sweep`` commands):

* ``0`` — run completed;
* ``2`` — :class:`FlowInterrupted`: SIGINT/SIGTERM, in-flight stage
  settled, cache flushed, journal carries an ``interrupted`` record;
* ``3`` — :class:`InputValidationError`: a config/design input was
  rejected up front (the offending field is named);
* ``4`` — :class:`QuarantineExceededError`: so many gates fell back to
  drawn CDs that the timing numbers no longer rest on real extraction;
* ``1`` — any other :class:`FlowError` (notably :class:`StageError`).

:class:`InputValidationError` also subclasses :class:`ValueError` so
callers that predate the taxonomy (``pytest.raises(ValueError)``) keep
working.
"""

from __future__ import annotations

from typing import Iterable, Optional

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INTERRUPTED = 2
EXIT_VALIDATION = 3
EXIT_QUARANTINE = 4


class FlowError(Exception):
    """Base of every structured flow failure."""

    exit_code = EXIT_FAILURE


class InputValidationError(FlowError, ValueError):
    """A config or design input was rejected before any stage ran.

    ``field`` names the offending knob (``"netlist"``, ``"opc_mode"``,
    ``"n_critical_paths"``...) so callers and tests can pin which check
    fired.
    """

    exit_code = EXIT_VALIDATION

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


class GraphValidationError(InputValidationError):
    """The stage graph is not a well-formed DAG.

    Raised by :meth:`~repro.flow.stages.StageGraph.validate` before any
    stage runs.  ``kind`` pins the defect class so callers and tests can
    assert which invariant broke:

    * ``"missing-producer"`` — a stage ``requires()`` a stage name that
      no member of the graph carries;
    * ``"duplicate-producer"`` — two stages ``provides()`` the same
      artifact name, so the merged artifact dict would be
      schedule-dependent;
    * ``"cycle"`` — the ``requires()`` edges contain a dependency cycle.

    Subclasses :class:`InputValidationError` (exit code 3): a malformed
    graph is a rejected input, not a mid-run stage failure.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__("graph", f"[{kind}] {message}")
        self.kind = kind


class ServiceRejectedError(FlowError):
    """The flow service refused a request before it became a job.

    Backpressure (a full bounded queue), an unknown design, or a
    malformed config all reject at submit time — the request never
    consumes a worker.  ``reason`` is machine-readable
    (``"queue-full"``, ``"unknown-design"``, ``"bad-config"``,
    ``"stopped"``, ``"unknown-job"``, ``"failed-job"``,
    ``"circuit-open"``, ``"deadline"``, ``"timeout"``).
    ``retry_after`` (seconds) is set when the rejection is transient —
    today only ``circuit-open`` — so clients can back off precisely
    instead of hammering the breaker.
    """

    def __init__(self, reason: str, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"[{reason}] {message}")
        self.reason = reason
        self.retry_after = retry_after


class StageError(FlowError):
    """A stage of the graph failed; wraps the original exception.

    Carries the stage name and its artifact key so an operator can tell
    exactly which node of which run died — and which cache entry (if any)
    to inspect.  The original exception is both chained (``__cause__``)
    and kept as :attr:`cause`.
    """

    def __init__(self, stage: str, key: Optional[str], cause: BaseException) -> None:
        super().__init__(
            f"stage {stage!r} failed"
            + (f" (artifact {key})" if key else "")
            + f": {type(cause).__name__}: {cause}"
        )
        self.stage = stage
        self.key = key
        self.cause = cause


class QuarantineExceededError(FlowError):
    """Too many gates were quarantined for the timing to be trusted."""

    exit_code = EXIT_QUARANTINE

    def __init__(
        self, fraction: float, threshold: float, quarantined: Iterable[str]
    ) -> None:
        quarantined = sorted(quarantined)
        preview = ", ".join(quarantined[:8])
        if len(quarantined) > 8:
            preview += ", ..."
        super().__init__(
            f"quarantined fraction {fraction:.1%} exceeds threshold "
            f"{threshold:.1%} ({len(quarantined)} gates: {preview})"
        )
        self.fraction = fraction
        self.threshold = threshold
        self.quarantined = quarantined


class FlowInterrupted(FlowError):
    """The run was stopped by SIGINT/SIGTERM between stages.

    The in-flight stage was allowed to settle (its artifacts are cached
    and journaled); ``next_stage`` is the stage that would have run next.
    """

    exit_code = EXIT_INTERRUPTED

    def __init__(self, signal_name: str, next_stage: Optional[str] = None) -> None:
        where = f" before stage {next_stage!r}" if next_stage else ""
        super().__init__(f"interrupted by {signal_name}{where}")
        self.signal_name = signal_name
        self.next_stage = next_stage
