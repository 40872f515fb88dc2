"""One benchmark workload, run in a process of its own by ``run.py``.

A workload is a closed loop: one caller, operations back to back, the
flow's serial executor.  One run is

1. one warm-up iteration at the workload's smoke size and the reference
   seed: its timings are discarded and its results are checked against a
   stored reference,
2. the measured iteration: a cold flow on a fresh flow object and a
   fresh context, then ``ROUNDS`` small rounds, each with a slice of
   set-up, cached reruns served entirely from memory, Monte-Carlo SSTA on
   the design's STA engine and localized what-if retimes through
   ``run_incremental``,
3. the correctness gates, which feed the failed-operation count.

The seed picks the Monte-Carlo sample stream and the what-if gate sets;
the program only receives the generated inputs.  The last line of
standard output is one JSON object.

The stored references under ``reference/`` pin the report digest, the
corner WNS and the WNS of the first samples of a fixed Monte-Carlo
stream.  They are written from a trusted tree, at the smoke size and at
full size, with

    python3 perfbench/workload.py --workload c17-model-opc --seed 1 --seconds 1 --write-reference

A run is

    python3 perfbench/workload.py --workload c17-model-opc --seed 1 --seconds 16
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from repro.cells import CellLibrary, build_library  # noqa: E402
from repro.circuits import Netlist, c17, structured_asic  # noqa: E402
from repro.flow import FlowConfig, FlowContext, PostOpcTimingFlow  # noqa: E402
from repro.flow.stages import (  # noqa: E402
    CANONICAL_PERIOD_PS,
    DrawnStaStage,
    PlaceStage,
    StageGraph,
    TagCriticalStage,
)
from repro.flow.trace import FlowTrace  # noqa: E402
from repro.opc import ModelOpcRecipe  # noqa: E402
from repro.pdk import make_tech_90nm  # noqa: E402
from repro.timing import (  # noqa: E402
    InstanceDerate,
    TimingConstraints,
    derates_from_measurements,
)
from repro.timing import incremental, mc  # noqa: E402

#: end-to-end metric -> unit, reported by every workload
END_TO_END = {
    "setup_s": "s",
    "cold_flow_s": "s",
    "cached_rerun_ms": "ms",
    "mc_samples_per_s": "1/s",
    "retime_ms_p50": "ms",
    "retime_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

STAGES = ("place", "sta_drawn", "tag_critical", "opc", "metrology",
          "back_annotate", "sta_post", "hold", "power")

#: The shared machine alternates, over seconds to minutes, between a fast
#: state and slower, contended states in which memory-bound code (the STA
#: and cache paths) runs up to 2x slower.  How much of a run each state
#: covers changes from run to run, so medians and means move with it.  The
#: fast state's level, though, repeats within a few percent, and nearly
#: every run reaches it for a while.  So the short operations are timed in
#: many small rounds interleaved over the whole run, and each metric is
#: taken from the best round (or, for a what-if, its best retime).
ROUNDS = 32
#: set-up runs in every ``SETUP_EVERY``-th round
SETUP_EVERY = 4
#: every what-if is retimed at least this many times, in different rounds
WHATIF_REPEATS = 8
#: share of a round (``--seconds`` / ``ROUNDS``) the cached reruns, the
#: Monte-Carlo batches and the what-ifs run for, after their minimum
#: operation counts
SHARE = {"cached": 0.1, "mc": 0.5, "whatif": 0.1}
#: rounds of the warm-up iteration, whose timings are discarded
WARM_UP_ROUNDS = 2
#: what-ifs derate the gates nearest a random gate
WHATIF_GATES = 24
#: every n-th what-if is checked against a full StaEngine.run
WHATIF_CHECK_EVERY = 10
#: correctness tolerances: an FFT reordering moves CDs by ~1e-12 nm and a
#: 1 nm model-OPC snap flip by well under 1 nm; a wrong image moves them
#: by several nm
CD_TOL_NM = 1.0
WNS_TOL_PS = 1.0
#: without litho the timing is float arithmetic on fixed inputs, where a
#: reordered sum moves a WNS by ~1e-9 ps
EXACT_TOL_PS = 1e-6
#: the seed the stored references are taken at (the warm-up runs at it)
REFERENCE_SEED = 1
#: the Monte-Carlo stream a stored reference pins, sample by sample
REFERENCE_MC = mc.CdVariationSpec(seed=REFERENCE_SEED)
REFERENCE_SAMPLES = 8

CONSTRAINTS = TimingConstraints(clock_period_ps=CANONICAL_PERIOD_PS)


@dataclass(frozen=True)
class Size:
    """How much work one iteration does."""

    #: distinct what-ifs, and cached reruns and Monte-Carlo samples per
    #: iteration
    min_ops: int

    @property
    def mc_batch(self) -> int:
        """Samples per Monte-Carlo batch: one batch a round covers
        ``min_ops`` samples."""
        return -(-self.min_ops // ROUNDS)


FULL = Size(min_ops=200)
SMOKE = Size(min_ops=12)


@dataclass(frozen=True)
class Spec:
    """A workload: its design generator, flow config and smoke variant."""

    name: str
    design: Callable[[CellLibrary, int, bool], Netlist]
    config: Callable[[bool], FlowConfig]
    litho: bool
    #: a cold flow runs in every round whose index modulo ``cold_every``
    #: is ``cold_every // 2``
    cold_every: int


def _c17(library: CellLibrary, seed: int, smoke: bool) -> Netlist:
    return c17(library)


def _fabric(library: CellLibrary, seed: int, smoke: bool) -> Netlist:
    # The fabric is the fixed fabric1k vehicle: its what-if cones differ
    # by up to 1.5x between generator seeds, which would swamp the
    # run-to-run comparison; the seed picks the samples and the what-ifs.
    return structured_asic(120 if smoke else 1000, seed=1)


WORKLOADS: Dict[str, Spec] = {
    "c17-model-opc": Spec(
        "c17-model-opc", _c17,
        lambda smoke: FlowConfig(
            opc_mode="model",
            model_recipe=ModelOpcRecipe(iterations=1) if smoke else ModelOpcRecipe()),
        # one more cold flow, halfway through the rounds
        litho=True, cold_every=ROUNDS),
    "fabric1k-ssta": Spec(
        "fabric1k-ssta", _fabric, lambda smoke: FlowConfig(opc_mode="none"),
        # the timing-only flow takes a fraction of a second
        litho=False, cold_every=2),
}


class Tally:
    """Operations attempted and failed; a correctness-gate miss fails one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(what)
            print(f"correctness gate failed: {what}", file=sys.stderr)


def probe_ms() -> float:
    """Fixed work timed as a machine-speed diagnostic (never a normalizer).

    The pure-Python loop walks a dict larger than the private caches, as
    the STA engine does: the slow periods of the shared machine slow this
    kind of memory-bound code and leave a loop over small integers
    untouched.  It is kept small enough to stay below the workloads' own
    peak RSS.
    """
    table = {(i * 7919) % 100_003: float(i) for i in range(100_000)}
    keys = [(i * 104_729) % 100_003 for i in range(100_000)] * 4
    grid = np.ones((512, 512), dtype=complex)
    start = time.perf_counter()
    acc = 0.0
    for key in keys:
        acc += table.get(key, 0.0)
    np.fft.fft2(grid)
    return (time.perf_counter() - start) * 1000.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


class Subject:
    """One workload bound to its generated inputs."""

    def __init__(self, spec: Spec, seed: int, smoke: bool) -> None:
        self.spec = spec
        self.seed = seed
        self.smoke = smoke
        self.size = SMOKE if smoke else FULL
        self.tech = make_tech_90nm()
        self.config = spec.config(smoke)

    # -- flow ---------------------------------------------------------------

    def new_flow(self, with_engine: bool) -> PostOpcTimingFlow:
        """Library, characterization and litho calibration (plus, on the
        timing workload, the STA engine: placement, loads, HPWL)."""
        library = build_library(self.tech)
        graph = None if self.spec.litho else StageGraph(
            [PlaceStage(), DrawnStaStage(), TagCriticalStage()])
        flow = PostOpcTimingFlow(self.spec.design(library, self.seed, self.smoke),
                                 self.tech, cells=library, graph=graph)
        if with_engine and not self.spec.litho:
            flow.engine  # noqa: B018 - builds the engine
        return flow

    def run_flow(self, flow: PostOpcTimingFlow, context: FlowContext) -> "FlowOutcome":
        if self.spec.litho:
            report = flow.run(self.config, context=context)
            return FlowOutcome(report.trace, report, None)
        trace = FlowTrace()
        artifacts = flow.graph.execute(flow, self.config, context, trace)
        return FlowOutcome(trace, None, artifacts)

    def digest(self, outcome: "FlowOutcome") -> Dict[str, Any]:
        if outcome.report is not None:
            report = outcome.report
            return {
                "cd_nm": {f"{key[0]}/{key[1]}": m.mean_cd
                          for key, m in sorted(report.measurements.items())},
                "wns_drawn_ps": report.wns_drawn,
                "wns_post_ps": report.wns_post,
                "coverage": report.coverage,
            }
        artifacts = outcome.artifacts
        return {
            "wns_drawn_ps": artifacts["drawn_sta"].wns,
            "critical_gates": sorted(artifacts["critical_gates"]),
        }

    def base_derates(self, flow: PostOpcTimingFlow,
                     outcome: "FlowOutcome") -> Dict[str, InstanceDerate]:
        """The post-OPC systematic derates Monte-Carlo composes with."""
        if outcome.report is None:
            return {}
        return derates_from_measurements(flow.netlist, flow.cells,
                                         outcome.report.measurements, flow.model)


@dataclass
class FlowOutcome:
    trace: FlowTrace
    report: Any
    artifacts: Optional[Dict[str, Any]]


@dataclass
class Iteration:
    """What one iteration measured, plus what the correctness gates need.

    ``setup_s``, ``cached_ms`` and ``mc_rate`` hold one value per set-up
    or round, in order.  ``cold_s`` holds the iteration's first cold flow
    and those of the rounds.  ``retime_ms`` holds each what-if's retimes.
    """

    setup_s: List[float]
    first_cold_s: float
    cold_s: List[float]
    cached_ms: List[float]
    mc_rate: List[float]
    mc_samples: int
    mc_s: float
    retime_ms: List[List[float]]
    wall_s: float
    flow: PostOpcTimingFlow
    context: FlowContext
    cold: FlowOutcome
    cached: List[FlowOutcome]
    mc_checks: List[Tuple[mc.CdVariationSpec, int, float]]
    corners: Dict[str, float]
    whatif_checks: List[Tuple[Dict[str, InstanceDerate], Dict[Any, float]]]
    base: Dict[str, InstanceDerate]
    coverage_window: Tuple[float, float]


def plan_whatifs(subject: Subject, engine, base: Dict[str, InstanceDerate]
                 ) -> List[Tuple[Set[str], Dict[str, InstanceDerate]]]:
    """The seeded what-ifs: each derates the gates nearest a random gate."""
    names = sorted(engine.netlist.gates)
    centers = {name: engine.placement.gates[name].bbox.center for name in names}
    k = min(WHATIF_GATES, max(1, len(names) // 3))
    rng = random.Random(subject.seed * 7919 + 17)
    plans = []
    for _ in range(subject.size.min_ops):
        pivot = centers[rng.choice(names)]
        near = sorted(names, key=lambda n: (
            (centers[n].x - pivot.x) ** 2 + (centers[n].y - pivot.y) ** 2, n))[:k]
        scale = 1.0 + rng.uniform(0.02, 0.08)
        derates = dict(base)
        for name in near:
            old = base.get(name, InstanceDerate())
            derates[name] = InstanceDerate(
                delay_rise_scale=old.delay_rise_scale * scale,
                delay_fall_scale=old.delay_fall_scale * scale,
                cap_scale=old.cap_scale * (1.0 + (scale - 1.0) / 2),
                failed=old.failed,
            )
        plans.append((set(near), derates))
    return plans


def run_iteration(subject: Subject, seconds: float, tally: Tally,
                  recorder: Optional[layers.Recorder],
                  rounds: int = ROUNDS) -> Iteration:
    """The measured iteration: one cold flow, then ``rounds`` rounds spread
    over ``seconds``.  Each round times a slice of every operation: a
    set-up and a cold flow in some rounds, cached reruns, a Monte-Carlo
    batch and the next what-ifs in turn."""
    size = subject.size
    per_round = -(-size.min_ops // rounds)
    round_s = seconds / rounds

    def section(name: str):
        """A timed section.  The cyclic collector runs before it and stays
        on inside it, as it does for a user of the flow."""
        gc.collect()
        return recorder.section(name) if recorder else contextlib.nullcontext()

    def paused():
        return recorder.paused() if recorder else contextlib.nullcontext()

    def self_total() -> float:
        return recorder.self_total() if recorder else 0.0

    def cold_flow() -> Tuple[PostOpcTimingFlow, FlowContext, FlowOutcome, float, float]:
        """A cold flow on a fresh flow object (fresh simulator) and a fresh
        context; also returns the named layers' self time inside it."""
        with paused():
            flow = subject.new_flow(with_engine=False)
        context = FlowContext()
        before = self_total()
        with section("bench.cold_flow"):
            outcome, wall = _timed(lambda: subject.run_flow(flow, context))
        tally.attempted += 1
        return flow, context, outcome, wall, self_total() - before

    start_wall = time.perf_counter()
    flow, context, cold, cold_wall, covered = cold_flow()
    cold_s = [cold_wall]
    coverage_window = (covered, cold_wall)
    cold_digest = subject.digest(cold)
    stages = len(cold.trace)
    engine = flow.engine
    with paused():
        base = subject.base_derates(flow, cold)
        previous = engine.run(CONSTRAINTS, base)
        whatifs = plan_whatifs(subject, engine, base)
    with section("bench.corners"):
        corners = mc.run_corners(engine, flow.model, CONSTRAINTS)
    tally.attempted += 1

    setup_s: List[float] = []
    cached_ms: List[float] = []
    cached: List[FlowOutcome] = []
    mc_rate: List[float] = []
    mc_checks: List[Tuple[mc.CdVariationSpec, int, float]] = []
    retime_ms: List[List[float]] = [[] for _ in whatifs]
    whatif_checks: List[Tuple[Dict[str, InstanceDerate], Dict[Any, float]]] = []
    whatif_cursor = mc_samples = batch = 0
    mc_covered = mc_wall = 0.0
    for round_index in range(rounds):
        if round_index % SETUP_EVERY == 0:
            with section("bench.setup"), paused():
                setup_s.append(_timed(lambda: subject.new_flow(with_engine=True))[1])

        every = subject.spec.cold_every
        if round_index % every == every // 2:
            *_, again, wall, _ = cold_flow()
            cold_s.append(wall)
            tally.check(subject.digest(again) == cold_digest,
                        "cold flow differs from the first cold flow")

        # Cached reruns on the measured flow and context: all stages hit.
        times: List[float] = []
        with section("bench.cached_rerun"):
            began = time.perf_counter()
            while (len(times) < per_round
                   or time.perf_counter() - began < SHARE["cached"] * round_s):
                outcome, wall = _timed(lambda: subject.run_flow(flow, context))
                times.append(wall * 1000.0)
                tally.attempted += 1
                tally.check(outcome.trace.cache_hits == stages,
                            f"cached rerun served {outcome.trace.cache_hits}/"
                            f"{stages} stages from memory")
        cached_ms.append(statistics.median(times))
        cached.append(outcome)

        # Monte-Carlo SSTA in batches; one sample per batch is re-derived
        # by the correctness gate.
        samples = 0
        spent = 0.0
        before = self_total()
        with section("bench.monte_carlo"):
            while not samples or spent < SHARE["mc"] * round_s:
                spec = mc.CdVariationSpec(seed=subject.seed * 100_003 + batch)
                result, wall = _timed(lambda: mc.run_monte_carlo(
                    engine, flow.model, samples=size.mc_batch, spec=spec,
                    constraints=CONSTRAINTS, base_derates=base))
                spent += wall
                samples += len(result.wns_samples)
                tally.attempted += size.mc_batch
                tally.check(len(result.wns_samples) == size.mc_batch,
                            f"MC batch returned {len(result.wns_samples)} samples")
                index = batch % size.mc_batch
                mc_checks.append((spec, index, result.wns_samples[index]))
                batch += 1
        mc_rate.append(samples / spent)
        mc_samples += samples
        mc_covered += self_total() - before
        mc_wall += spent

        # The next what-ifs in turn, through the cone-limited retime, so
        # each what-if's retimes fall in different rounds.
        with section("bench.whatif"):
            began = time.perf_counter()
            done = 0
            while (done < -(-len(whatifs) * WHATIF_REPEATS // rounds)
                   or time.perf_counter() - began < SHARE["whatif"] * round_s):
                index = whatif_cursor % len(whatifs)
                changed, derates = whatifs[index]
                result, wall = _timed(lambda: incremental.run_incremental(
                    engine, previous, changed, CONSTRAINTS, derates))
                retime_ms[index].append(wall * 1000.0)
                tally.attempted += 1
                if whatif_cursor == index and index % WHATIF_CHECK_EVERY == 0:
                    whatif_checks.append((derates, result.arrivals))
                whatif_cursor += 1
                done += 1

    if not subject.spec.litho:
        coverage_window = (mc_covered, mc_wall)
    return Iteration(
        setup_s=setup_s, first_cold_s=cold_wall, cold_s=cold_s,
        cached_ms=cached_ms, mc_rate=mc_rate, mc_samples=mc_samples,
        mc_s=mc_wall, retime_ms=retime_ms,
        wall_s=time.perf_counter() - start_wall,
        flow=flow, context=context, cold=cold, cached=cached,
        mc_checks=mc_checks, corners=corners, whatif_checks=whatif_checks,
        base=base, coverage_window=coverage_window,
    )


# -- correctness gates -----------------------------------------------------------

def reference_path(name: str) -> Path:
    return HERE / "reference" / f"{name}.json"


def reference_name(subject: Subject) -> str:
    """The stored reference for the subject's netlist and size."""
    return subject.spec.name + (".smoke" if subject.smoke else "")


def reference_digest(subject: Subject, it: Iteration) -> Dict[str, Any]:
    """What a stored reference pins: the report digest, the corner WNS and
    the WNS of the first samples of the fixed ``REFERENCE_MC`` stream."""
    fixed = mc.run_monte_carlo(it.flow.engine, it.flow.model,
                               samples=REFERENCE_SAMPLES, spec=REFERENCE_MC,
                               constraints=CONSTRAINTS, base_derates=it.base)
    return dict(subject.digest(it.cold), corner_wns_ps=it.corners,
                mc_wns_ps=fixed.wns_samples)


def _as_map(value: Any) -> Dict[str, float]:
    if isinstance(value, dict):
        return value
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    return {"": value}


def _close_digest(got: Dict[str, Any], want: Dict[str, Any],
                  ps_tol: float) -> Optional[str]:
    """Why ``got`` is not within tolerance of ``want`` (None if it is):
    CDs within ``CD_TOL_NM``, times (keys ending ``_ps``) within
    ``ps_tol``, everything else equal."""
    if set(got) != set(want):
        return f"digest keys {sorted(got)} vs reference {sorted(want)}"
    for key in sorted(want):
        if key == "cd_nm" or key.endswith("_ps"):
            tol = CD_TOL_NM if key == "cd_nm" else ps_tol
            value, expected = _as_map(got[key]), _as_map(want[key])
            if set(value) != set(expected):
                return f"{key}: entries differ from the reference"
            worst = max((abs(value[k] - expected[k]) for k in expected), default=0.0)
            if not worst <= tol:
                return f"{key} differs by {worst:.6g} (tolerance {tol})"
        elif got[key] != want[key]:
            return f"{key} {got[key]!r} vs reference {want[key]!r}"
    return None


def check_iteration(subject: Subject, it: Iteration, tally: Tally,
                    write_reference: bool = False) -> None:
    cold = subject.digest(it.cold)
    for outcome in it.cached:
        tally.check(subject.digest(outcome) == cold,
                    "cached rerun report differs from the cold report")
    if subject.spec.litho:
        tally.check(cold["coverage"] == 1.0, f"coverage {cold['coverage']}")
    tally.check(it.corners["slow"] <= it.corners["typical"] <= it.corners["fast"],
                f"corner WNS out of order: {it.corners}")

    path = reference_path(reference_name(subject))
    got = reference_digest(subject, it)
    if write_reference:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
    elif not path.is_file():
        tally.check(False, f"no stored reference {path.name}")
    else:
        with open(path) as fh:
            why = _close_digest(got, json.load(fh),
                                WNS_TOL_PS if subject.spec.litho else EXACT_TOL_PS)
        tally.check(why is None, f"reference {path.name}: {why}")

    # This run's own Monte-Carlo stream, re-derived one sample at a time
    # from the steps the stored reference pins.
    engine = it.flow.engine
    for spec, index, wns in it.mc_checks:
        deltas = mc.sample_instance_deltas(engine.netlist, engine.placement, spec, index)
        derates = {}
        for gate in engine.netlist.gates.values():
            sampled = mc.derate_for_delta_l(
                engine.cells[gate.cell_name], deltas[gate.name], it.flow.model)
            prior = it.base.get(gate.name)
            derates[gate.name] = sampled if prior is None else mc.compose_derates(prior, sampled)
        tally.check(engine.run(CONSTRAINTS, derates).wns == wns,
                    f"MC sample {index} of seed {spec.seed} differs from its "
                    "one-sample re-derivation")
    for derates, arrivals in it.whatif_checks:
        tally.check(engine.run(CONSTRAINTS, derates).arrivals == arrivals,
                    "retime arrivals differ from a full StaEngine.run")


# -- the process ------------------------------------------------------------------

def end_to_end(it: Iteration) -> Dict[str, float]:
    """From values spread over the run (see ``ROUNDS``): the best set-up and
    cold flow, the best round's cached-rerun median and Monte-Carlo rate,
    and the p50 and p95 over the what-ifs of each one's best retime.  (The
    median set-up moved by 30% between two sets of runs as the machine's
    mix of states changed; the best set-up moved by 5-11%.)"""
    retimes = sorted(min(times) for times in it.retime_ms)
    return {
        "setup_s": min(it.setup_s),
        "cold_flow_s": min(it.cold_s),
        "cached_rerun_ms": min(it.cached_ms),
        "mc_samples_per_s": max(it.mc_rate),
        "retime_ms_p50": layers.nearest_rank(retimes, 50),
        "retime_ms_p95": layers.nearest_rank(retimes, 95),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(recorder: layers.Recorder, it: Iteration) -> Dict[str, float]:
    metrics = recorder.metrics(it.wall_s)
    runtimes = it.cold.trace.runtimes()
    for stage in STAGES:
        metrics[f"flow.stage.{stage}.s"] = runtimes.get(stage, 0.0)
    stats = it.context.stats()["stages"]
    metrics["flow.cache.hits"] = sum(s["hits"] for s in stats.values())
    metrics["flow.cache.misses"] = sum(s["misses"] for s in stats.values())
    covered, window = it.coverage_window
    metrics["bench.layer_coverage"] = covered / window if window > 0 else 0.0
    return metrics


def run(workload: str, seed: int, seconds: float, traced: bool, smoke: bool,
        cold_only: bool, write_reference: bool) -> Dict[str, Any]:
    if layers.wrapped_sites():
        raise SystemExit("layer wrappers are installed before the run started")
    probe_start = probe_ms()
    tally = Tally()
    subject = Subject(WORKLOADS[workload], seed, smoke)

    # One warm-up iteration at the smoke size and the reference seed: its
    # timings are discarded, its results checked against the reference.
    warm = Subject(subject.spec, REFERENCE_SEED, smoke=True)
    began = time.perf_counter()
    check_iteration(warm, run_iteration(warm, 0.0, tally, None, WARM_UP_ROUNDS),
                    tally, write_reference)
    warm_s = time.perf_counter() - began

    recorder = None
    if traced:
        recorder = layers.Recorder()
        recorder.install()
    else:
        unwrapped = not layers.wrapped_sites()
        tally.check(unwrapped, "untraced process sees wrapped layer functions")

    if cold_only:
        flow = subject.new_flow(with_engine=False)
        gc.collect()
        _, wall = _timed(lambda: subject.run_flow(flow, FlowContext()))
        tally.attempted += 1
        return {"correct": tally.failed == 0, "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {"cold_flow_s": {"value": wall, "unit": "s"}},
                "diagnostics": {"probe_ms": probe_start, "probe_end_ms": probe_ms()}}

    if recorder is not None:
        recorder.reset()
    it = run_iteration(subject, seconds, tally, recorder)
    if recorder is not None:
        recorder.active = False
    check_iteration(subject, it, tally, write_reference)

    metrics = {name: {"value": value, "unit": END_TO_END[name]}
               for name, value in end_to_end(it).items()}
    diagnostics: Dict[str, Any] = {
        "probe_ms": probe_start,
        "probe_end_ms": probe_ms(),
        "ops": {"cold_flows": len(it.cold_s), "mc_samples": it.mc_samples,
                "whatifs": len(it.retime_ms),
                "retimes": sum(len(times) for times in it.retime_ms),
                "rounds": ROUNDS},
        "walls_s": {"warm_up": round(warm_s, 2), "iteration": round(it.wall_s, 2)},
        "per_round": {
            "setup_s": [round(v, 4) for v in it.setup_s],
            "cold_flow_s": [round(v, 4) for v in it.cold_s],
            "cached_rerun_ms": [round(v, 4) for v in it.cached_ms],
            "mc_samples_per_s": [round(v, 2) for v in it.mc_rate],
        },
        "problems": tally.problems[:10],
    }
    if recorder is not None:
        values = per_layer(recorder, it)
        values["bench.probe_ms"] = diagnostics["probe_ms"]
        values["bench.probe_end_ms"] = diagnostics["probe_end_ms"]
        metrics = {name: {"value": value, "unit": layers.unit_of(name)}
                   for name, value in values.items()}
        diagnostics["traced_cold_flow_s"] = it.first_cold_s
        trace_path = ROOT / ".perfbench_traces" / f"{workload}-seed{seed}.json"
        recorder.write_chrome_trace(trace_path, {"workload": workload, "seed": seed})
        diagnostics["chrome_trace"] = str(trace_path.relative_to(ROOT))
        recorder.uninstall()
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics, "diagnostics": diagnostics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--cold-only", action="store_true",
                        help="only time one cold flow (the traced run's baseline)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the digests of this run's references")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.traced, args.smoke,
                 args.cold_only, args.write_reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
