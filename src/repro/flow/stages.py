"""The flow as a stage graph.

Each :class:`FlowStage` declares which upstream stages it consumes and
which *slice* of the :class:`~repro.flow.postopc.FlowConfig` can change
its output.  The :class:`StageGraph` hashes (flow fingerprint, config
slice, upstream keys) into a Merkle-style artifact key per stage, so the
:class:`~repro.flow.context.FlowContext` serves any stage whose inputs
are unchanged from an earlier run: a ``selective``-mode run re-uses the
placement, drawn STA and rule-OPC base of a ``rule``-mode run, and a
dose-corner sweep re-uses everything upstream of lithography.

STA stages run at a canonical clock period and are re-based (a pure
endpoint-required-time shift) to the requested period at report assembly,
so the timing cache is period-independent — deriving the period *from*
the drawn STA costs nothing extra.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.flow.chaos import inject_stage_fault
from repro.flow.context import FlowContext, SettleOutcome, stable_hash
from repro.flow.errors import FlowError, GraphValidationError, StageError
from repro.flow.trace import FlowTrace
from repro.metrology.gate_cd import (
    measure_tile_chunk,
    plan_metrology_shards,
    plan_metrology_tiles,
    quarantine_measurements,
)
from repro.opc import RuleOpcRecipe
from repro.timing import (
    TimingConstraints,
    derates_from_measurements,
    diff_derates,
    instance_leakage,
    quarantine_derates,
    run_hold,
    run_incremental,
)

if TYPE_CHECKING:
    from repro.flow.journal import InterruptGuard, RunJournal
    from repro.flow.postopc import FlowConfig, PostOpcTimingFlow
    from repro.geometry import Rect
    from repro.litho.resist import ProcessCondition

#: STA artifacts are computed at this period and re-based on demand.
CANONICAL_PERIOD_PS = 1000.0


class FlowStage:
    """One node of the flow graph.

    Subclasses set :attr:`name`, override :meth:`run`, and declare their
    dependencies via :meth:`requires` and their config sensitivity via
    :meth:`config_slice`.  ``run`` returns the stage's artifacts as a dict
    and may fill ``counters`` (numbers only) for the trace.
    """

    name: str = ""
    #: bump when the stage's output semantics change — the version is part
    #: of the artifact key, so a persistent cache written by older code is
    #: recomputed instead of served with stale semantics
    version: int = 1

    def requires(self, config: "FlowConfig") -> Tuple[str, ...]:
        """Names of the stages whose artifacts this stage consumes (may
        depend on the config, e.g. selective OPC needs critical gates)."""
        return ()

    def provides(self) -> Tuple[str, ...]:
        """Names of the artifacts this stage's :meth:`run` returns.

        Explicit edge data: :meth:`StageGraph.validate` rejects graphs
        where two stages provide the same artifact (the merged artifact
        dict would be schedule-dependent), and the ``stage-edge-contract``
        lint rule cross-checks these declarations against what ``run``
        actually returns.
        """
        return ()

    def config_slice(self, flow: "PostOpcTimingFlow", config: "FlowConfig") -> Any:
        """The part of the config that can change this stage's output."""
        return ()

    def install(self, flow: "PostOpcTimingFlow", outputs: Dict[str, Any]) -> None:
        """Hook for cache hits: re-attach artifacts to the flow object."""

    def run(
        self,
        flow: "PostOpcTimingFlow",
        config: "FlowConfig",
        artifacts: Dict[str, Any],
        counters: Dict[str, float],
        context: FlowContext,
    ) -> Dict[str, Any]:
        raise NotImplementedError


class PlaceStage(FlowStage):
    """Row placement, per-instance gate rects, and the flat poly layer."""

    name = "place"
    version = 1

    def provides(self) -> Tuple[str, ...]:
        return ("placement", "gate_rects", "owned_polygons")

    def install(self, flow: "PostOpcTimingFlow", outputs: Dict[str, Any]) -> None:
        flow._install_layout(outputs)

    def run(
        self,
        flow: "PostOpcTimingFlow",
        config: "FlowConfig",
        artifacts: Dict[str, Any],
        counters: Dict[str, float],
        context: FlowContext,
    ) -> Dict[str, Any]:
        outputs = flow._build_layout()
        counters["gates"] = len(outputs["placement"].gates)
        counters["polygons"] = len(outputs["owned_polygons"])
        return outputs


class DrawnStaStage(FlowStage):
    """Drawn-CD STA at the canonical period (re-based downstream)."""

    name = "sta_drawn"
    version = 1

    def requires(self, config: "FlowConfig") -> Tuple[str, ...]:
        return ("place",)

    def provides(self) -> Tuple[str, ...]:
        return ("drawn_sta",)

    def config_slice(self, flow: "PostOpcTimingFlow", config: "FlowConfig") -> Any:
        return (config.use_routing,)

    def run(
        self,
        flow: "PostOpcTimingFlow",
        config: "FlowConfig",
        artifacts: Dict[str, Any],
        counters: Dict[str, float],
        context: FlowContext,
    ) -> Dict[str, Any]:
        engine = flow._engine_for(config)
        sta = engine.run(TimingConstraints(clock_period_ps=CANONICAL_PERIOD_PS))
        counters["endpoints"] = len(sta.endpoints)
        return {"drawn_sta": sta}


class TagCriticalStage(FlowStage):
    """Tag the gates on the top-K drawn speed paths (OPC hand-off)."""

    name = "tag_critical"
    version = 1

    def requires(self, config: "FlowConfig") -> Tuple[str, ...]:
        return ("sta_drawn",)

    def provides(self) -> Tuple[str, ...]:
        return ("critical_gates",)

    def config_slice(self, flow: "PostOpcTimingFlow", config: "FlowConfig") -> Any:
        return (config.n_critical_paths,)

    def run(
        self,
        flow: "PostOpcTimingFlow",
        config: "FlowConfig",
        artifacts: Dict[str, Any],
        counters: Dict[str, float],
        context: FlowContext,
    ) -> Dict[str, Any]:
        critical = flow.tag_critical_gates(
            artifacts["drawn_sta"], config.n_critical_paths
        )
        counters["critical_gates"] = len(critical)
        return {"critical_gates": critical}


class OpcStage(FlowStage):
    """Mask synthesis: none / rule / model / selective."""

    name = "opc"
    version = 2  # v2: coarse-grid SOCS

    def requires(self, config: "FlowConfig") -> Tuple[str, ...]:
        if config.opc_mode == "selective":
            return ("place", "tag_critical")
        return ("place",)

    def provides(self) -> Tuple[str, ...]:
        return ("mask_polygons", "model_corrected_polygons")

    def config_slice(self, flow: "PostOpcTimingFlow", config: "FlowConfig") -> Any:
        mode = config.opc_mode
        if mode == "none":
            return ("none",)
        rule_recipe = config.rule_recipe or RuleOpcRecipe.for_tech(flow.tech)
        if mode == "rule":
            return ("rule", rule_recipe)
        # model and selective share the slice shape; selective additionally
        # depends on the tagged gates via the tag_critical parent key.
        return (mode, rule_recipe, config.model_recipe, config.condition)

    def run(
        self,
        flow: "PostOpcTimingFlow",
        config: "FlowConfig",
        artifacts: Dict[str, Any],
        counters: Dict[str, float],
        context: FlowContext,
    ) -> Dict[str, Any]:
        mask, n_model = flow.apply_opc(
            config,
            artifacts.get("critical_gates", set()),
            counters=counters,
            context=context,
        )
        counters["model_corrected"] = n_model
        return {"mask_polygons": mask, "model_corrected_polygons": n_model}


class MetrologyStage(FlowStage):
    """Litho simulation + per-transistor printed-CD extraction.

    One window grid (:mod:`repro.litho.tiling`) in one of two geometries:
    the classic 512-px tiles, or — when ``config.litho_shards`` is set —
    large halo-amortized shard windows, which image the same layout with
    far less redundant ambit work.  Either plan fans out through the
    flow's executor; serial and parallel dispatch of one plan are
    bit-identical.  The two geometries measure slightly different CD
    values (different FFT window quantization), which is why the shard
    count is in the config slice.
    """

    name = "metrology"
    # v2: quarantines unsound measurements, emits cd_quarantine
    # v3: optional shard-planned windows (config.litho_shards)
    version = 4  # v4: coarse-grid SOCS

    def requires(self, config: "FlowConfig") -> Tuple[str, ...]:
        return ("place", "opc")

    def provides(self) -> Tuple[str, ...]:
        return ("measurements", "cd_quarantine")

    def config_slice(self, flow: "PostOpcTimingFlow", config: "FlowConfig") -> Any:
        return (config.condition, config.n_slices, config.process_map,
                config.litho_shards)

    def run(
        self,
        flow: "PostOpcTimingFlow",
        config: "FlowConfig",
        artifacts: Dict[str, Any],
        counters: Dict[str, float],
        context: FlowContext,
    ) -> Dict[str, Any]:
        condition_fn: Optional[Callable[["Rect"], "ProcessCondition"]] = None
        if config.process_map is not None:
            process_map = config.process_map

            def _map_condition(interior: "Rect") -> "ProcessCondition":
                return process_map.condition_at(*interior.center.as_tuple())

            condition_fn = _map_condition
        if config.litho_shards:
            tasks = plan_metrology_shards(
                flow.simulator,
                artifacts["mask_polygons"],
                flow.gate_rects,
                shards=config.litho_shards,
                condition=config.condition,
                n_slices=config.n_slices,
                condition_fn=condition_fn,
            )
            counters["litho_shards"] = len(tasks)
        else:
            tasks = plan_metrology_tiles(
                flow.simulator,
                artifacts["mask_polygons"],
                flow.gate_rects,
                condition=config.condition,
                n_slices=config.n_slices,
                condition_fn=condition_fn,
            )
        tile_results = flow.executor.map_chunks(
            measure_tile_chunk, flow.simulator, tasks, counters=counters
        )
        measurements: Dict[Any, Any] = {}
        for measured in tile_results:
            measurements.update(measured)
        # Degraded-coverage guard: untrustworthy extractions (non-finite,
        # out-of-band, sliceless) and sites no tile measured are
        # quarantined — downstream falls back to drawn CDs for them.
        measurements, faults = quarantine_measurements(measurements)
        for key in flow.gate_rects:
            if key not in measurements and key not in faults:
                faults[key] = "site not measured by any tile"
        counters["tiles"] = len(tasks)
        counters["gates_measured"] = len(measurements)
        counters["quarantined_gates"] = len({key[0] for key in faults})
        return {"measurements": measurements, "cd_quarantine": faults}


class BackAnnotateStage(FlowStage):
    """Printed CDs -> per-instance derates (the paper's back-annotation)."""

    name = "back_annotate"
    version = 2  # v2: quarantines non-physical derates, emits derate_quarantine

    def requires(self, config: "FlowConfig") -> Tuple[str, ...]:
        return ("metrology",)

    def provides(self) -> Tuple[str, ...]:
        return ("derates", "derate_quarantine")

    def run(
        self,
        flow: "PostOpcTimingFlow",
        config: "FlowConfig",
        artifacts: Dict[str, Any],
        counters: Dict[str, float],
        context: FlowContext,
    ) -> Dict[str, Any]:
        derates = derates_from_measurements(
            flow.netlist, flow.cells, artifacts["measurements"], flow.model
        )
        # A non-physical derate (NaN/inf/non-positive scale) would poison
        # the STA; drop it back to drawn timing and count it quarantined.
        derates, faults = quarantine_derates(derates)
        counters["derated_instances"] = len(derates)
        counters["failed_gates"] = sum(1 for d in derates.values() if d.failed)
        counters["quarantined_gates"] = len(faults)
        return {"derates": derates, "derate_quarantine": faults}


class PostStaStage(FlowStage):
    """Post-OPC STA with back-annotated derates (canonical period).

    The stage re-times *incrementally* from the drawn STA: only the
    fan-out cones of the derated instances are re-propagated
    (:func:`repro.timing.run_incremental`), through the same arc loop as
    the full :meth:`~repro.timing.StaEngine.run`, and bit-identical to it
    — the parity tests enforce it.
    """

    name = "sta_post"
    version = 2  # v2: cone-limited incremental re-time from the drawn STA

    def requires(self, config: "FlowConfig") -> Tuple[str, ...]:
        return ("place", "sta_drawn", "back_annotate")

    def provides(self) -> Tuple[str, ...]:
        return ("post_sta",)

    def config_slice(self, flow: "PostOpcTimingFlow", config: "FlowConfig") -> Any:
        return config.use_routing

    def run(
        self,
        flow: "PostOpcTimingFlow",
        config: "FlowConfig",
        artifacts: Dict[str, Any],
        counters: Dict[str, float],
        context: FlowContext,
    ) -> Dict[str, Any]:
        engine = flow._engine_for(config)
        constraints = TimingConstraints(clock_period_ps=CANONICAL_PERIOD_PS)
        derates = artifacts["derates"]
        # The drawn STA ran derate-free under the same constraints, so the
        # change set is every instance with a non-identity derate.
        changed = diff_derates({}, derates)
        sta = run_incremental(
            engine, artifacts["drawn_sta"], changed, constraints, derates
        )
        counters["retimed_instances"] = len(changed)
        counters["endpoints"] = len(sta.endpoints)
        return {"post_sta": sta}


class HoldStage(FlowStage):
    """Register hold slacks before/after back-annotation."""

    name = "hold"
    version = 1

    def requires(self, config: "FlowConfig") -> Tuple[str, ...]:
        return ("place", "back_annotate")

    def provides(self) -> Tuple[str, ...]:
        return ("hold_drawn", "hold_post")

    def config_slice(self, flow: "PostOpcTimingFlow", config: "FlowConfig") -> Any:
        return (config.use_routing,)

    def run(
        self,
        flow: "PostOpcTimingFlow",
        config: "FlowConfig",
        artifacts: Dict[str, Any],
        counters: Dict[str, float],
        context: FlowContext,
    ) -> Dict[str, Any]:
        engine = flow._engine_for(config)
        constraints = TimingConstraints(clock_period_ps=CANONICAL_PERIOD_PS)
        drawn = run_hold(engine, constraints)
        post = run_hold(engine, constraints, artifacts["derates"])
        counters["hold_endpoints"] = len(drawn.endpoints)
        return {
            "hold_drawn": drawn.worst_hold_slack,
            "hold_post": post.worst_hold_slack,
        }


class PowerStage(FlowStage):
    """Leakage before/after printed-CD annotation (the NRG model)."""

    name = "power"
    version = 1

    def requires(self, config: "FlowConfig") -> Tuple[str, ...]:
        return ("metrology",)

    def provides(self) -> Tuple[str, ...]:
        return ("leakage_drawn", "leakage_post")

    def run(
        self,
        flow: "PostOpcTimingFlow",
        config: "FlowConfig",
        artifacts: Dict[str, Any],
        counters: Dict[str, float],
        context: FlowContext,
    ) -> Dict[str, Any]:
        drawn = sum(
            instance_leakage(flow.netlist, flow.cells, {}, flow.model).values()
        )
        post = sum(
            instance_leakage(
                flow.netlist, flow.cells, artifacts["measurements"], flow.model
            ).values()
        )
        return {"leakage_drawn": drawn, "leakage_post": post}


def stage_key(
    flow: "PostOpcTimingFlow",
    stage: FlowStage,
    config: "FlowConfig",
    parent_keys: Tuple[str, ...],
) -> str:
    """The Merkle artifact key of one stage for one flow/config.

    Hashes (flow fingerprint, stage name+version, the stage's config
    slice, the keys of its parents in ``requires()`` order) — so a stage
    is invalidated exactly when its own inputs change, and two different
    designs can never collide in a shared context.
    """
    return stable_hash((
        flow.fingerprint,
        stage.name,
        stage.version,
        stage.config_slice(flow, config),
        parent_keys,
    ))


def settle_stage(
    flow: "PostOpcTimingFlow",
    stage: FlowStage,
    config: "FlowConfig",
    key: str,
    parent_outputs: Sequence[Dict[str, Any]],
    context: FlowContext,
) -> Tuple[Dict[str, Any], Dict[str, float], SettleOutcome]:
    """Settle one stage against the context: serve, await, or compute.

    The settle step of :meth:`StageGraph.execute`.  ``parent_outputs``
    holds the outputs of the stage's declared parents; they are merged
    into the dict ``run()`` sees only on a miss, so a cache hit copies
    nothing.  Returns ``(outputs, counters, outcome)``; on a cache hit the
    stage's :meth:`~FlowStage.install` hook has already re-attached the
    artifacts to the flow.  A stage exception is wrapped in
    :class:`~repro.flow.errors.StageError` naming the stage and key
    (structured :class:`~repro.flow.errors.FlowError` subclasses pass
    through untouched), and nothing is cached.
    """

    def _compute() -> Tuple[Dict[str, Any], Dict[str, float]]:
        artifacts: Dict[str, Any] = {}
        for parent in parent_outputs:
            artifacts.update(parent)
        counters: Dict[str, float] = {}
        try:
            if context.fault_plan is not None:
                inject_stage_fault(context.fault_plan, stage.name)
            outputs = stage.run(flow, config, artifacts, counters, context)
        except FlowError:
            raise
        except Exception as exc:
            raise StageError(stage.name, key, exc) from exc
        return (outputs, dict(counters))

    outcome = context.settle(stage.name, key, _compute)
    outputs, counters = outcome.value
    if outcome.cache_hit:
        stage.install(flow, outputs)
    return outputs, dict(counters), outcome


class StageGraph:
    """A declarative DAG of stages with content-addressed caching.

    ``requires()`` edges are validated up front (:meth:`validate` rejects
    missing producers, duplicate artifact providers, and cycles with a
    :class:`~repro.flow.errors.GraphValidationError` pinning the defect
    kind) and drive the :meth:`execute` loop, which hands each stage the
    outputs of its declared parents.
    """

    def __init__(self, stages: Sequence[FlowStage]) -> None:
        names: Set[str] = set()
        for stage in stages:
            if not stage.name:
                raise ValueError(f"stage {stage!r} has no name")
            if not isinstance(stage.version, int) or isinstance(stage.version, bool):
                raise ValueError(
                    f"stage {stage.name!r} version must be an integer, "
                    f"got {stage.version!r}"
                )
            if stage.name in names:
                raise ValueError(f"duplicate stage name {stage.name!r}")
            names.add(stage.name)
        self.stages: List[FlowStage] = list(stages)
        self._by_name: Dict[str, FlowStage] = {s.name: s for s in self.stages}

    def __iter__(self) -> Iterator[FlowStage]:
        return iter(self.stages)

    def stage(self, name: str) -> FlowStage:
        """The member stage carrying ``name`` (KeyError if absent)."""
        return self._by_name[name]

    def edges(self, config: "FlowConfig") -> List[Tuple[str, str]]:
        """The dependency edges as (parent, child) pairs, in declaration
        order (``requires()`` may depend on the config — selective OPC
        adds a ``tag_critical -> opc`` edge)."""
        pairs: List[Tuple[str, str]] = []
        for stage in self.stages:
            for parent in stage.requires(config):
                pairs.append((parent, stage.name))
        return pairs

    def artifact_producers(self) -> Dict[str, str]:
        """Artifact name -> producing stage name, per ``provides()``."""
        producers: Dict[str, str] = {}
        for stage in self.stages:
            for artifact in stage.provides():
                producers[artifact] = stage.name
        return producers

    def validate(self, config: "FlowConfig") -> List[FlowStage]:
        """Check the graph is a well-formed DAG; returns a topological
        order (declaration order among ready stages, so the default graph
        schedules exactly as it is declared).

        Raises :class:`~repro.flow.errors.GraphValidationError` with
        ``kind`` set to ``missing-producer`` (a ``requires()`` names no
        member stage), ``duplicate-producer`` (two stages ``provides()``
        the same artifact), or ``cycle``.
        """
        provided: Dict[str, str] = {}
        for stage in self.stages:
            for artifact in stage.provides():
                if artifact in provided:
                    raise GraphValidationError(
                        "duplicate-producer",
                        f"artifact {artifact!r} is provided by both "
                        f"{provided[artifact]!r} and {stage.name!r}",
                    )
                provided[artifact] = stage.name
        for stage in self.stages:
            for parent in stage.requires(config):
                if parent not in self._by_name:
                    raise GraphValidationError(
                        "missing-producer",
                        f"stage {stage.name!r} requires {parent!r}, "
                        "which no stage in the graph carries",
                    )
        # Declaration-order-stable topological sort: each pass appends
        # every stage that became ready, in declaration order.  For the
        # default graph (declared in a valid topological order) this
        # returns exactly the declaration order, so the serial engine's
        # trace/journal sequence is independent of which edges a given
        # config happens to relax.
        order: List[FlowStage] = []
        done: Set[str] = set()
        while len(order) < len(self.stages):
            progressed = False
            for stage in self.stages:
                if stage.name in done:
                    continue
                if all(p in done for p in stage.requires(config)):
                    order.append(stage)
                    done.add(stage.name)
                    progressed = True
            if not progressed:
                stuck = sorted(name for name in self._by_name if name not in done)
                raise GraphValidationError(
                    "cycle",
                    "requires() edges contain a dependency cycle among "
                    f"{stuck}",
                )
        return order

    def execute(
        self,
        flow: "PostOpcTimingFlow",
        config: "FlowConfig",
        context: FlowContext,
        trace: FlowTrace,
        journal: Optional["RunJournal"] = None,
        interrupt: Optional["InterruptGuard"] = None,
    ) -> Dict[str, Any]:
        """Run (or re-serve) every stage serially; returns the merged
        artifacts.

        The graph is :meth:`validate`-d first, then walked in topological
        order through :func:`settle_stage`.  Each stage's ``run()`` sees
        only the merged outputs of its declared ``requires()`` parents, so
        it cannot depend on an artifact its key does not cover.
        Concurrent runs against one context (two service jobs) share work
        through the context's single-flight settle, not through this loop.
        ``journal`` (a
        :class:`~repro.flow.journal.RunJournal`) receives one ``stage``
        record per settled stage; ``interrupt`` (an
        :class:`~repro.flow.journal.InterruptGuard`) is polled *between*
        stages, so a stop request lets the in-flight stage settle — its
        artifacts are cached and journaled — before
        :class:`~repro.flow.errors.FlowInterrupted` unwinds the run.
        """
        artifacts: Dict[str, Any] = {}
        #: stage name -> (artifact key, outputs) of every settled stage
        settled: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        for stage in self.validate(config):
            if interrupt is not None:
                interrupt.checkpoint(next_stage=stage.name)
            parent_keys: List[str] = []
            parent_outputs: List[Dict[str, Any]] = []
            for parent in stage.requires(config):
                parent_key, parent_out = settled[parent]
                parent_keys.append(parent_key)
                parent_outputs.append(parent_out)
            key = stage_key(flow, stage, config, tuple(parent_keys))

            start = time.perf_counter()
            outputs, counters, outcome = settle_stage(
                flow, stage, config, key, parent_outputs, context
            )
            end = time.perf_counter()
            if outcome.deduped:
                # Request-specific, never part of the cached counters.
                counters["deduped"] = 1.0
            record = trace.add(stage.name, end - start,
                               cache_hit=outcome.cache_hit, counters=counters,
                               cache_source=outcome.source,
                               t_start=start, t_end=end)
            if journal is not None:
                # repro-lint: allow[entropy-taint] wall-time is telemetry: resume replays keys, never durations
                journal.record_stage(
                    record, key=key,
                    quarantined=int(record.counters.get("quarantined_gates", 0)),
                )
            settled[stage.name] = (key, outputs)
            artifacts.update(outputs)
        return artifacts


def default_stage_graph() -> StageGraph:
    """The paper's pipeline as a stage graph."""
    return StageGraph([
        PlaceStage(),
        DrawnStaStage(),
        TagCriticalStage(),
        OpcStage(),
        MetrologyStage(),
        BackAnnotateStage(),
        PostStaStage(),
        HoldStage(),
        PowerStage(),
    ])
