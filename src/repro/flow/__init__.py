"""The paper's end-to-end flow: netlist to post-OPC back-annotated timing.

The flow is a stage graph (:mod:`repro.flow.stages`) over a
content-addressed artifact cache (:mod:`repro.flow.context`), with the
tile-parallel inner loops dispatched by :mod:`repro.flow.parallel` and
per-stage observability in :mod:`repro.flow.trace`.  Run durability —
the append-only run journal, resume, and graceful interruption — lives
in :mod:`repro.flow.journal`, with the structured failure taxonomy in
:mod:`repro.flow.errors`; :mod:`repro.flow.driver` opens, runs and
settles a journaled flow or sweep for both the CLI and the service.  :class:`PostOpcTimingFlow` assembles the
default graph; :class:`FlowSweep` runs many OPC modes against one shared
context.

:class:`FlowService` (:mod:`repro.flow.service`) fronts the flows with a
bounded-queue submit/status/result/report job API, in-process or over a
local socket.  Each job runs the serial stage loop on its own thread;
concurrent jobs share work through the context's single-flight settle.

Hardening lives in :mod:`repro.flow.chaos` (deterministic seeded fault
injection: :class:`FaultPlan`, the one fault hook, threaded through the
cache, journal, stage, worker-chunk and socket layers) and the service's
deadlines, hung-stage watchdog, per-design :class:`CircuitBreaker` and
orphan-job recovery.
"""

from repro.flow.chaos import ChaosError, FaultPlan, FaultSpec
from repro.flow.context import FlowContext, SettleOutcome, stable_hash
from repro.flow.errors import (
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_QUARANTINE,
    EXIT_VALIDATION,
    FlowError,
    FlowInterrupted,
    GraphValidationError,
    InputValidationError,
    QuarantineExceededError,
    ServiceRejectedError,
    StageError,
)
from repro.flow.journal import InterruptGuard, RunJournal
from repro.flow.parallel import ParallelExecutor, split_chunks
from repro.flow.postopc import FlowConfig, FlowReport, PostOpcTimingFlow
from repro.flow.service import CircuitBreaker, FlowService
from repro.flow.stages import (
    FlowStage,
    StageGraph,
    default_stage_graph,
    settle_stage,
    stage_key,
)
from repro.flow.sweep import FlowSweep, SweepResult
from repro.flow.trace import FlowTrace, StageRecord
from repro.flow.export import export_flow_gds

__all__ = [
    "FlowConfig",
    "FlowReport",
    "PostOpcTimingFlow",
    "FlowContext",
    "SettleOutcome",
    "FlowTrace",
    "StageRecord",
    "FlowStage",
    "StageGraph",
    "FlowService",
    "CircuitBreaker",
    "FaultPlan",
    "FaultSpec",
    "ChaosError",
    "default_stage_graph",
    "stage_key",
    "settle_stage",
    "ParallelExecutor",
    "split_chunks",
    "FlowSweep",
    "SweepResult",
    "stable_hash",
    "export_flow_gds",
    "FlowError",
    "GraphValidationError",
    "InputValidationError",
    "ServiceRejectedError",
    "StageError",
    "QuarantineExceededError",
    "FlowInterrupted",
    "RunJournal",
    "InterruptGuard",
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_INTERRUPTED",
    "EXIT_VALIDATION",
    "EXIT_QUARANTINE",
]
