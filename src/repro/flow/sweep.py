"""Multi-configuration sweeps over one design, sharing a FlowContext.

The paper's analysis is inherently comparative — the same design under
none / rule / model / selective OPC, or across process conditions.  A
:class:`FlowSweep` runs each configuration through the same flow and
artifact context, so the placement, drawn STA, tagging and rule-OPC base
are computed once and served from cache for every subsequent mode.  Give
the flow a persistent context (``FlowContext(cache_dir=...)``) and the
sharing extends across processes: a rerun sweep serves every unchanged
stage as a disk hit.

Sweeps are partial-failure-safe: one mode raising does not discard the
modes already completed.  The failure is captured into
:attr:`SweepResult.failures` and the comparison table renders the
survivors plus a failure footer.  Only interruption
(:class:`~repro.flow.errors.FlowInterrupted` / ``KeyboardInterrupt``)
propagates — a stop request must stop the whole sweep, not skip a mode.

Two sweeps racing on one context (two service jobs) share work through
the context's single-flight settle: each artifact key is computed once,
and the other sweep is served it, counted as ``deduped``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis import format_table
from repro.flow.context import FlowContext
from repro.flow.errors import FlowInterrupted
from repro.flow.postopc import OPC_MODES, FlowConfig, FlowReport, PostOpcTimingFlow

if TYPE_CHECKING:
    from repro.flow.journal import InterruptGuard, RunJournal


@dataclass
class SweepResult:
    """Per-mode reports plus the shared-context accounting.

    ``failures`` maps each mode that raised to its error text; the
    corresponding mode is absent from ``reports``.
    """

    reports: Dict[str, FlowReport]
    context: FlowContext
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def modes(self) -> List[str]:
        return list(self.reports)

    def table(self) -> str:
        """The comparison table the paper's figures are built from.

        Completed modes render as rows; failed modes are appended as a
        footer so a partial sweep still reads as one document.
        """
        rows: List[Tuple[object, ...]] = []
        for mode, report in self.reports.items():
            rows.append((
                mode,
                f"{report.cd_stats.mean:+.2f}",
                f"{report.wns_drawn:+.1f}",
                f"{report.wns_post:+.1f}",
                f"{report.wns_change_percent:+.1f}%",
                f"{report.leakage_change_percent:+.1f}%",
                report.model_corrected_polygons,
                f"{report.trace.total_wall_s:.2f}",
                report.trace.cache_hits,
            ))
        text = format_table(
            ["opc", "CD err (nm)", "WNS drawn", "WNS post", "dWNS", "dleak",
             "model polys", "wall (s)", "cached"],
            rows,
            title="OPC-mode sweep (shared flow context)",
        )
        if self.failures:
            footer = [f"failed modes ({len(self.failures)}):"]
            for mode, error in self.failures.items():
                footer.append(f"  {mode}: {error}")
            text = text + "\n" + "\n".join(footer)
        return text

    def cache_summary(self) -> str:
        return self.context.summary()


class FlowSweep:
    """Runs one flow under many OPC modes with shared artifacts."""

    def __init__(self, flow: PostOpcTimingFlow,
                 modes: Sequence[str] = OPC_MODES) -> None:
        self.flow = flow
        self.modes = list(modes)

    def run(
        self,
        config: Optional[FlowConfig] = None,
        *,
        journal: Optional["RunJournal"] = None,
        interrupt: Optional["InterruptGuard"] = None,
    ) -> SweepResult:
        """Run every mode through the flow's shared context.

        ``config`` supplies everything except ``opc_mode`` (the swept
        knob).  The first run populates the context; later runs re-use
        placement, drawn STA, critical-gate tagging and the rule-OPC base
        — the trace of each report records what was served from cache.

        A mode that raises is captured into ``failures`` and the sweep
        continues; completed reports are never discarded.  ``journal``
        receives one ``mode`` record per outcome, and ``interrupt``
        stops the whole sweep (the partial result is *not* returned —
        resume replays the completed modes from cache).
        """
        base = config or FlowConfig()
        reports: Dict[str, FlowReport] = {}
        failures: Dict[str, str] = {}
        for mode in self.modes:
            try:
                reports[mode] = self.flow.run(
                    replace(base, opc_mode=mode),
                    journal=journal, interrupt=interrupt,
                )
            except FlowInterrupted:
                raise  # the flow already journaled the interruption
            # repro-lint: allow[broad-except] partial-failure safety: one bad mode must not discard the sweep
            except Exception as exc:
                failures[mode] = f"{type(exc).__name__}: {exc}"
                if journal is not None:
                    journal.record_mode(mode, "failed", detail=failures[mode])
            else:
                if journal is not None:
                    journal.record_mode(mode, "ok")
        return SweepResult(reports=reports, context=self.flow.context,
                           failures=failures)
