"""The post-OPC timing flow of the paper.

Pipeline (Yang/Capodieci/Sylvester, DAC 2005):

1. place the netlist and assemble the poly-layer layout,
2. run drawn-CD STA and **tag the critical gates** (top-K speed paths),
3. apply OPC — none / rule-based / full model-based / **selective**
   (model-based only on tagged critical gates, rule-based elsewhere),
4. simulate lithography and **extract printed CDs** at every transistor,
5. convert each printed gate to equivalent lengths and **back-annotate**
   per-instance derates,
6. re-run STA and compare: speed-path reordering, worst-slack change,
   leakage change.

:class:`PostOpcTimingFlow` is a facade over the stage graph in
:mod:`repro.flow.stages`: stages are cached in a
:class:`~repro.flow.context.FlowContext` (re-running with a different OPC
mode re-uses placement, drawn STA and the rule-OPC base), the tile loops
parallelize through a :class:`~repro.flow.parallel.ParallelExecutor`, and
every run carries a :class:`~repro.flow.trace.FlowTrace`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

if TYPE_CHECKING:
    from repro.flow.journal import InterruptGuard, RunJournal

from repro.analysis import RankComparison, compare_rankings
from repro.cells import CellLibrary, build_library
from repro.circuits import Netlist
from repro.device import AlphaPowerModel
from repro.flow.context import FlowContext, stable_hash
from repro.flow.errors import (
    FlowInterrupted,
    InputValidationError,
    QuarantineExceededError,
)
from repro.flow.parallel import ParallelExecutor
from repro.flow.stages import StageGraph, default_stage_graph
from repro.flow.trace import FlowTrace
from repro.geometry import Polygon, Rect
from repro.litho.resist import NOMINAL, ProcessCondition
from repro.litho.simulator import LithographySimulator
from repro.litho.tiling import WindowGrid, plan_shard_grid, plan_tile_grid
from repro.metrology import CdStatistics, summarize_cds
from repro.metrology.gate_cd import GateCdMeasurement
from repro.opc import ModelOpcRecipe, OpcTileTask, RuleOpcRecipe, apply_rule_opc
from repro.opc.model_based import correct_tile_chunk
from repro.pdk import Technology
from repro.place import Placement, instance_gate_rects, instance_poly_layer, place_rows
from repro.place.assembler import GateRectMap
from repro.timing import (
    StaEngine,
    StaResult,
    TimingPath,
    characterize_library,
    top_paths,
)
from repro.variation import DoseDefocusMap

OPC_MODES = ("none", "rule", "model", "selective")

#: auto-derived clock periods get this margin on the drawn critical delay
AUTO_PERIOD_MARGIN = 1.05


@dataclass(frozen=True)
class FlowConfig:
    """Knobs of one flow run."""

    opc_mode: str = "model"
    #: None derives the period from the drawn STA (margin on critical delay)
    clock_period_ps: Optional[float] = 1000.0
    n_critical_paths: int = 5
    n_slices: int = 5
    condition: ProcessCondition = NOMINAL
    #: optional across-chip dose/defocus map (overrides `condition` per tile)
    process_map: Optional[DoseDefocusMap] = None
    #: route the design and use realised wirelengths instead of HPWL
    use_routing: bool = False
    model_recipe: ModelOpcRecipe = field(default_factory=ModelOpcRecipe)
    #: None selects the node-fitted recipe (RuleOpcRecipe.for_tech)
    rule_recipe: Optional[RuleOpcRecipe] = None
    #: abort (exit code 4) when more than this fraction of gates had to be
    #: quarantined back to drawn CDs; below it the run completes with a
    #: degraded coverage fraction stamped on the report
    max_quarantine_fraction: float = 0.5
    #: 0 keeps the classic 512-px metrology tile path; >= 1 shards the
    #: layout into at least that many large halo-amortized windows (the
    #: scale path — measurements differ slightly from the tile path
    #: because the FFT window geometry differs, so this is a cache key)
    litho_shards: int = 0

    def __post_init__(self) -> None:
        # InputValidationError subclasses ValueError, so pre-taxonomy
        # callers catching ValueError keep working.
        if self.opc_mode not in OPC_MODES:
            raise InputValidationError(
                "opc_mode", f"must be one of {OPC_MODES}, got {self.opc_mode!r}"
            )
        if self.clock_period_ps is not None and self.clock_period_ps <= 0:
            raise InputValidationError(
                "clock_period_ps", "must be positive (or None for auto)"
            )
        if self.n_critical_paths < 1:
            raise InputValidationError(
                "n_critical_paths", f"must be >= 1, got {self.n_critical_paths}"
            )
        if self.n_slices < 1:
            raise InputValidationError(
                "n_slices", f"must be >= 1, got {self.n_slices}"
            )
        if not (0.0 <= self.max_quarantine_fraction <= 1.0):
            raise InputValidationError(
                "max_quarantine_fraction",
                f"must be in [0, 1], got {self.max_quarantine_fraction}",
            )
        if self.litho_shards < 0:
            raise InputValidationError(
                "litho_shards",
                f"must be >= 0 (0 = tile path), got {self.litho_shards}",
            )


@dataclass
class FlowReport:
    """Everything the flow learned about one design."""

    netlist_name: str
    opc_mode: str
    drawn_sta: StaResult
    post_sta: StaResult
    drawn_paths: List[TimingPath]
    post_paths: List[TimingPath]
    rank: RankComparison
    cd_stats: CdStatistics
    measurements: Dict[Tuple[str, str], GateCdMeasurement]
    critical_gates: Set[str]
    mask_polygons: List[Polygon]
    model_corrected_polygons: int
    leakage_drawn: float
    leakage_post: float
    failed_gates: List[str]
    #: worst register hold slack before/after back-annotation (inf if no regs)
    hold_drawn: float = float("inf")
    hold_post: float = float("inf")
    #: per-stage wall time, cache hits and counters for this run
    trace: FlowTrace = field(default_factory=FlowTrace)
    #: gate instances whose extraction was quarantined (fell back to drawn
    #: CDs), with the first fault reason per gate
    quarantined_gates: List[str] = field(default_factory=list)
    quarantine_reasons: Dict[str, str] = field(default_factory=dict)
    #: fraction of gate instances whose timing rests on real extraction
    coverage: float = 1.0

    @property
    def runtimes(self) -> Dict[str, float]:
        """Stage name -> wall seconds (compatibility view of the trace)."""
        return self.trace.runtimes()

    @property
    def wns_drawn(self) -> float:
        return self.drawn_sta.wns

    @property
    def wns_post(self) -> float:
        return self.post_sta.wns

    @property
    def wns_change_percent(self) -> float:
        """Relative worst-slack change, drawn -> post-OPC (the paper's
        headline metric: they observed a 36.4% increase)."""
        if self.wns_drawn == 0:
            return float("inf")
        return (self.wns_post - self.wns_drawn) / abs(self.wns_drawn) * 100.0

    @property
    def leakage_change_percent(self) -> float:
        if self.leakage_drawn == 0:
            return float("inf")
        return (self.leakage_post - self.leakage_drawn) / self.leakage_drawn * 100.0

    def summary(self) -> str:
        lines = [
            f"design {self.netlist_name} [opc={self.opc_mode}]",
            f"  CD error: {self.cd_stats}",
            f"  WNS drawn {self.wns_drawn:+.1f} ps -> post {self.wns_post:+.1f} ps "
            f"({self.wns_change_percent:+.1f}%)",
            f"  leakage {self.leakage_drawn * 1e9:.2f} nA -> "
            f"{self.leakage_post * 1e9:.2f} nA ({self.leakage_change_percent:+.1f}%)",
            f"  path ranking: tau={self.rank.tau:.3f}, moved={self.rank.moved}, "
            f"new top path: {self.rank.new_top}",
        ]
        if self.quarantined_gates:
            lines.append(
                f"  extraction coverage {self.coverage:.1%} "
                f"({len(self.quarantined_gates)} gates quarantined to drawn CD: "
                f"{sorted(self.quarantined_gates)})"
            )
        if self.failed_gates:
            lines.append(f"  PRINTABILITY FAILURES: {sorted(self.failed_gates)}")
        return "\n".join(lines)


class PostOpcTimingFlow:
    """Reusable flow bound to one netlist + technology.

    Construction performs the technology-setup work once (library build,
    characterization, litho calibration); :meth:`run` executes the stage
    graph, re-using artifacts from :attr:`context` wherever a stage's
    config slice and upstream inputs are unchanged.  An ``executor``
    (``ParallelExecutor(jobs)``) runs the OPC and metrology tile loops:
    one job (the default) runs them in-process, more jobs on a fork
    process pool, with bit-identical results.
    """

    def __init__(
        self,
        netlist: Netlist,
        tech: Technology,
        cells: Optional[CellLibrary] = None,
        simulator: Optional[LithographySimulator] = None,
        executor: Optional[ParallelExecutor] = None,
        context: Optional[FlowContext] = None,
        graph: Optional[StageGraph] = None,
    ) -> None:
        self.netlist = netlist
        self.tech = tech
        self.cells = cells or build_library(tech)
        self.model = AlphaPowerModel(tech.device)
        self.liberty = characterize_library(self.cells, self.model)
        self.simulator = simulator or LithographySimulator.for_tech(tech)
        self.simulator.calibrate_to_anchor(tech.rules.gate_length, tech.rules.poly_pitch)
        self.executor = executor or ParallelExecutor()
        # Not `context or ...`: FlowContext has __len__, so an *empty*
        # (e.g. freshly-opened persistent) context is falsy.
        self.context = context if context is not None else FlowContext()
        self.graph = graph or default_stage_graph()
        self.fingerprint = self._fingerprint()
        self._placement: Optional[Placement] = None
        self._gate_rects: Optional[GateRectMap] = None
        self._owned_polygons: Optional[List[Tuple[str, Polygon]]] = None
        self._engine: Optional[StaEngine] = None
        self._routed_engine: Optional[StaEngine] = None
        #: guards the lazily-built shared state above — concurrent runs of
        #: one flow (two service jobs) must never double-build the layout
        #: or an STA engine.  The engines
        #: themselves are read-only after construction, so concurrent
        #: ``StaEngine.run`` calls need no lock.
        self._state_lock = threading.RLock()

    def _fingerprint(self) -> str:
        """Content hash of everything that defines this flow's artifacts:
        the netlist structure, the technology, and the calibrated
        simulator setup.  Embedded in every cache key, so one shared
        :class:`FlowContext` can serve many designs without collisions."""
        gates = tuple(sorted(
            (g.name, g.cell_name, tuple(sorted(g.connections.items())))
            for g in self.netlist.gates.values()
        ))
        return stable_hash((
            self.netlist.name,
            tuple(self.netlist.inputs),
            tuple(self.netlist.outputs),
            gates,
            self.tech,
            self.simulator.settings,
            self.simulator.resist,
            self.simulator.ambit,
            self.simulator.max_tile_px,
        ))

    # -- layout, each part built by its first reader -----------------------

    def _install_layout(self, outputs: Dict[str, object]) -> None:
        with self._state_lock:
            if self._placement is None:
                self._placement = cast(Placement, outputs["placement"])

    @property
    def placement(self) -> Placement:
        with self._state_lock:
            if self._placement is None:
                self._placement = place_rows(self.netlist, self.cells)
            return self._placement

    @property
    def gate_rects(self) -> GateRectMap:
        """Per-transistor gate rects; only litho, metrology and export
        read them, so timing-only flows never build them."""
        with self._state_lock:
            if self._gate_rects is None:
                self._gate_rects = instance_gate_rects(
                    self.netlist, self.cells, self.placement
                )
            return self._gate_rects

    @property
    def owned_polygons(self) -> List[Tuple[str, Polygon]]:
        """Flat poly layer, built like :attr:`gate_rects` on first read."""
        with self._state_lock:
            if self._owned_polygons is None:
                self._owned_polygons = self._collect_poly_layer(self.placement)
            return self._owned_polygons

    @property
    def engine(self) -> StaEngine:
        with self._state_lock:
            if self._engine is None:
                self._engine = StaEngine(
                    self.netlist, self.cells, self.liberty, self.placement
                )
            return self._engine

    def _engine_for(self, config: "FlowConfig") -> StaEngine:
        if not config.use_routing:
            return self.engine
        with self._state_lock:
            if self._routed_engine is None:
                from repro.route import route_design

                routing = route_design(self.netlist, self.cells, self.placement)
                self._routed_engine = StaEngine(
                    self.netlist, self.cells, self.liberty, self.placement,
                    net_lengths=routing.net_lengths(),
                )
            return self._routed_engine

    def _collect_poly_layer(self, placement: Placement) -> List[Tuple[str, Polygon]]:
        """Flat poly shapes, tagged with the owning gate instance."""
        return instance_poly_layer(self.cells, placement)

    # -- preflight validation ------------------------------------------------

    def preflight(self, config: FlowConfig) -> None:
        """Validate the design and config before any stage runs.

        A malformed input should be rejected here, naming the offending
        field, not hours later from deep inside a stage.  (The pure
        config-field checks already ran in ``FlowConfig.__post_init__``;
        this adds the checks that need the design or simulator.)
        """
        if not self.netlist.gates:
            raise InputValidationError(
                "netlist", f"design {self.netlist.name!r} has no gates"
            )
        if self.simulator.max_tile_px <= 0:
            raise InputValidationError(
                "max_tile_px",
                f"simulator tile size must be positive, got {self.simulator.max_tile_px}",
            )
        if self.simulator.settings.pixel_nm <= 0:
            raise InputValidationError(
                "pixel_nm",
                f"simulator pixel must be positive, got {self.simulator.settings.pixel_nm}",
            )
        # Plan the window geometries this run will use (tiles for unsharded
        # metrology and for model OPC, shard windows when it shards) so
        # their own errors surface here.  They depend only on the simulator
        # and the shard count, so a unit region probes them without the
        # layout.
        probe = Rect(0.0, 0.0, 1.0, 1.0)
        if config.litho_shards == 0 or config.opc_mode in ("model", "selective"):
            try:
                plan_tile_grid(self.simulator, probe)
            except ValueError as exc:
                raise InputValidationError("max_tile_px", str(exc)) from exc
        if config.litho_shards >= 1:
            try:
                plan_shard_grid(self.simulator, probe, config.litho_shards)
            except ValueError as exc:
                raise InputValidationError("litho_shards", str(exc)) from exc

    # -- pipeline stages ----------------------------------------------------

    def tag_critical_gates(self, sta: StaResult, k: int) -> Set[str]:
        """Gates on the top-``k`` speed paths — the paper's design-intent
        hand-off to the OPC engineers."""
        critical: Set[str] = set()
        for path in top_paths(sta, k):
            critical.update(path.gates)
        return critical

    def apply_opc(
        self,
        config: FlowConfig,
        critical_gates: Set[str],
        counters: Optional[Dict[str, float]] = None,
        context: Optional[FlowContext] = None,
    ) -> Tuple[List[Polygon], int]:
        """Mask synthesis per the configured mode.

        Returns (mask polygons, count of model-corrected polygons).  The
        rule-OPC base mask is memoized in the context, so the rule, model
        and selective modes all share one rule-OPC pass.
        """
        context = context if context is not None else self.context
        owners = [owner for owner, _ in self.owned_polygons]
        drawn = [poly for _, poly in self.owned_polygons]
        if counters is not None:
            counters["polygons"] = len(drawn)
        if config.opc_mode == "none":
            return list(drawn), 0
        rule_recipe = config.rule_recipe or RuleOpcRecipe.for_tech(self.tech)
        base_key = stable_hash((self.fingerprint, "opc.rule_base", rule_recipe))
        base = context.memo(
            "opc.rule_base", base_key, lambda: apply_rule_opc(drawn, rule_recipe)
        )
        if config.opc_mode == "rule":
            return list(base), 0
        if config.opc_mode == "model":
            selected = set(owners)
        else:  # selective
            selected = critical_gates
        indices = [i for i, owner in enumerate(owners) if owner in selected]
        corrected = self._model_opc_tiled(drawn, list(base), indices, config,
                                          counters=counters)
        return corrected, len(indices)

    def _opc_plan(
        self,
        base: Sequence[Polygon],
        target_indices: Sequence[int],
        config: FlowConfig,
    ) -> Tuple[WindowGrid, List[Tuple[int, List[int], List[int]]]]:
        """The model-OPC tile plan: the die's tile grid, and for each tile
        that owns a target (by its rule-OPC bbox center) the owned target
        indices and the indices of the ``base`` polygons in its window."""
        die = self.placement.die.expanded(self.tech.rules.poly_endcap)
        grid = plan_tile_grid(self.simulator, die, config.condition)
        plan = grid.assign(
            ((idx, base[idx].bbox.center) for idx in sorted(target_indices)),
            base, self.simulator.ambit)
        return grid, plan

    def _model_opc_tiled(
        self,
        drawn: Sequence[Polygon],
        mask: List[Polygon],
        target_indices: Sequence[int],
        config: FlowConfig,
        counters: Optional[Dict[str, float]] = None,
    ) -> List[Polygon]:
        """Model-OPC the selected polygons tile by tile.

        Tiles are the die's :func:`plan_tile_grid` windows; each tile
        corrects the targets it owns.  All tiles see the same fixed
        context — the ``mask`` snapshot handed in (rule-OPC output for
        everything not being corrected here) — so tiles are independent
        and serial/parallel execution is bit-identical.
        """
        if not target_indices:
            return mask
        base = list(mask)
        grid, plan = self._opc_plan(base, target_indices, config)
        tasks: List[OpcTileTask] = []
        for window, local, context in plan:
            local_set = set(local)
            # Targets are the DRAWN shapes (design intent); the rule-OPC
            # snapshot only serves as context for everything else.
            tasks.append(OpcTileTask(
                targets=tuple(drawn[idx] for idx in local),
                context=tuple(base[k] for k in context if k not in local_set),
                recipe=config.model_recipe,
                condition=grid.conditions[window],
            ))
        results = self.executor.map_chunks(correct_tile_chunk, self.simulator, tasks,
                                           counters=counters)
        out = list(base)
        for (_, local, _), corrected in zip(plan, results):
            for idx, poly in zip(local, corrected):
                out[idx] = poly
        if counters is not None:
            counters["opc_tiles"] = len(tasks)
        return out

    # -- the full pipeline ----------------------------------------------------

    def run(
        self,
        config: Optional[FlowConfig] = None,
        *,
        context: Optional[FlowContext] = None,
        trace: Optional[FlowTrace] = None,
        journal: Optional["RunJournal"] = None,
        interrupt: Optional["InterruptGuard"] = None,
    ) -> FlowReport:
        """Execute the stage graph and assemble the report.

        ``journal`` (:class:`~repro.flow.journal.RunJournal`) records
        every settled stage; ``interrupt``
        (:class:`~repro.flow.journal.InterruptGuard`) enables graceful
        SIGINT/SIGTERM stops between stages — the cache is flushed and an
        ``interrupted`` record journaled before
        :class:`~repro.flow.errors.FlowInterrupted` propagates.  Raises
        :class:`~repro.flow.errors.QuarantineExceededError` when more
        than ``config.max_quarantine_fraction`` of the gates had to fall
        back to drawn CDs.
        """
        config = config or FlowConfig()
        context = context if context is not None else self.context
        trace = trace if trace is not None else FlowTrace()
        self.preflight(config)

        try:
            artifacts = self.graph.execute(
                self, config, context, trace, journal=journal, interrupt=interrupt
            )
        except FlowInterrupted as exc:
            context.flush()
            if journal is not None:
                journal.record_interrupted(exc.signal_name, exc.next_stage)
            raise

        return self._assemble_report(config, artifacts, trace)

    def _assemble_report(
        self,
        config: FlowConfig,
        artifacts: Dict[str, Any],
        trace: FlowTrace,
    ) -> FlowReport:
        """Turn the settled artifacts into a :class:`FlowReport` (pure
        post-processing of the stage outputs)."""
        # Degraded-coverage accounting: gates quarantined by metrology
        # (bad CD extraction) or back-annotation (non-physical derate)
        # run on drawn CDs; past the threshold the number is meaningless.
        reasons: Dict[str, str] = {}
        for key, why in artifacts.get("cd_quarantine", {}).items():
            reasons.setdefault(key[0], why)
        for gate, why in artifacts.get("derate_quarantine", {}).items():
            reasons.setdefault(gate, why)
        quarantined = sorted(reasons)
        total_gates = len(self.netlist.gates)
        fraction = len(quarantined) / total_gates if total_gates else 0.0
        if fraction > config.max_quarantine_fraction:
            raise QuarantineExceededError(
                fraction, config.max_quarantine_fraction, quarantined
            )

        drawn_base: StaResult = artifacts["drawn_sta"]
        post_base: StaResult = artifacts["post_sta"]
        period = config.clock_period_ps
        if period is None:
            period = AUTO_PERIOD_MARGIN * drawn_base.critical_delay
        drawn_sta = drawn_base.with_clock_period(period)
        post_sta = post_base.with_clock_period(period)
        drawn_paths = top_paths(drawn_sta, config.n_critical_paths)
        post_paths = top_paths(post_sta, config.n_critical_paths)

        measurements = artifacts["measurements"]
        derates = artifacts["derates"]
        failed = [gate for gate, derate in derates.items() if derate.failed]

        return FlowReport(
            netlist_name=self.netlist.name,
            opc_mode=config.opc_mode,
            drawn_sta=drawn_sta,
            post_sta=post_sta,
            drawn_paths=drawn_paths,
            post_paths=post_paths,
            rank=compare_rankings(drawn_paths, post_paths),
            cd_stats=summarize_cds(measurements),
            measurements=measurements,
            critical_gates=artifacts["critical_gates"],
            mask_polygons=artifacts["mask_polygons"],
            model_corrected_polygons=artifacts["model_corrected_polygons"],
            leakage_drawn=artifacts["leakage_drawn"],
            leakage_post=artifacts["leakage_post"],
            failed_gates=failed,
            hold_drawn=artifacts["hold_drawn"],
            hold_post=artifacts["hold_post"],
            trace=trace,
            quarantined_gates=quarantined,
            quarantine_reasons=reasons,
            coverage=1.0 - fraction,
        )
