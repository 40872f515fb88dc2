"""One run driver: how the CLI and the service open, run and settle a
journaled flow or sweep.

``repro flow|sweep --run-dir`` and a :class:`~repro.flow.service.FlowService`
job under ``run_root`` share :func:`run_manifest` (the one manifest
schema, which :meth:`~repro.flow.journal.RunJournal.resume` checks
through :meth:`~repro.flow.journal.RunJournal.check_manifest`),
:func:`run_op` (flow or sweep; a sweep with no surviving mode is a
failed run, exit 1)
and :func:`summarize` (the service's job summary and the ``complete``
payload).  Terminal records go only through
:meth:`~repro.flow.journal.RunJournal.finish`; the service writes them
on its event loop, the CLI in line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from repro.flow.context import stable_hash
from repro.flow.errors import EXIT_FAILURE, FlowError
from repro.flow.journal import RunJournal
from repro.flow.postopc import FlowConfig, FlowReport, PostOpcTimingFlow
from repro.flow.sweep import FlowSweep, SweepResult

if TYPE_CHECKING:
    from repro.flow.journal import InterruptGuard

#: what a run does: one flow, or every OPC mode through one context
RUN_OPS = ("flow", "sweep")

#: FlowConfig fields a manifest's ``config_wire`` records and the service
#: protocol accepts (simple JSON scalars only — recipe/condition objects
#: need the in-process API)
_WIRE_CONFIG_FIELDS = (
    "opc_mode",
    "clock_period_ps",
    "n_critical_paths",
    "n_slices",
    "use_routing",
    "max_quarantine_fraction",
    "litho_shards",
)


def run_manifest(design: str, op: str, flow: PostOpcTimingFlow,
                 config: FlowConfig) -> Dict[str, Any]:
    """The manifest of one journaled run of ``op`` on ``flow``."""
    return {
        "design": design,
        "op": op,
        "fingerprint": flow.fingerprint,
        "config_hash": stable_hash(config),
        "config_wire": {
            name: getattr(config, name) for name in _WIRE_CONFIG_FIELDS
        },
    }


def run_op(
    flow: PostOpcTimingFlow,
    op: str,
    config: FlowConfig,
    *,
    journal: Optional[RunJournal] = None,
    interrupt: Optional["InterruptGuard"] = None,
) -> Union[FlowReport, SweepResult]:
    """Run ``op`` (``"flow"`` or ``"sweep"``) with ``config``.

    A sweep with failed modes is still a usable result while one mode
    survived; with none left it raises :class:`FlowError` (exit code 1).
    """
    if op == "flow":
        return flow.run(config, journal=journal, interrupt=interrupt)
    result = FlowSweep(flow).run(config, journal=journal, interrupt=interrupt)
    if not result.reports:
        raise FlowError("every sweep mode failed: " + "; ".join(
            f"{mode}: {error}" for mode, error in result.failures.items()
        ))
    return result


def summarize(result: Union[FlowReport, SweepResult]) -> Dict[str, Any]:
    """JSON-able digest of a settled run: the service's job summary and
    the payload of the journal's ``complete`` record."""
    if isinstance(result, FlowReport):
        trace = result.trace
        return {
            "opc_mode": result.opc_mode,
            "wns_drawn": result.wns_drawn,
            "wns_post": result.wns_post,
            "leakage_drawn": result.leakage_drawn,
            "leakage_post": result.leakage_post,
            "coverage": result.coverage,
            "quarantined_gates": len(result.quarantined_gates),
            "stages": len(trace),
            "cache_hits": trace.cache_hits,
            "cache_misses": trace.cache_misses,
            "deduped": trace.deduped,
        }
    modes = {mode: summarize(report) for mode, report in result.reports.items()}
    return {
        "modes": modes,
        "failures": dict(result.failures),
        "stages": sum(m["stages"] for m in modes.values()),
        "cache_hits": sum(m["cache_hits"] for m in modes.values()),
        "cache_misses": sum(m["cache_misses"] for m in modes.values()),
        "deduped": sum(m["deduped"] for m in modes.values()),
        "table": result.table(),
    }


def failure(exc: BaseException) -> Tuple[str, int]:
    """The error text and exit code a run that raised ``exc`` reports."""
    code = exc.exit_code if isinstance(exc, FlowError) else EXIT_FAILURE
    return f"{type(exc).__name__}: {exc}", code


def finish_failed(journal: RunJournal, error: str, exit_code: int,
                  **extra: Any) -> None:
    """Settle the journal with a ``failed`` record.

    A write that fails is dropped and the journal closed anyway: the run
    has already failed, and its own error is the one to report.
    """
    try:
        journal.finish("failed", error=error, exit_code=exit_code, **extra)
    except OSError:
        journal.close()
