"""Per-layer spans for the traced benchmark run.

A layer is timed by wrapping its public function where the caller binds
it (``repro.litho.simulator.rasterize``, not ``repro.litho.raster``), so
the program itself carries no instrumentation.  The layer map — which
sites make up a layer and which end-to-end metric it should move — lives
in ``ledger.json`` next to this file.

Spans nest through one stack (the benchmark runs one serial caller), so
each span's self time is its duration minus the time of its child spans.
Spans are kept in memory and written out once, as Chrome trace-event JSON
that Perfetto opens.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import statistics
import time
import weakref
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

LEDGER = Path(__file__).with_name("ledger.json")

#: spans kept for the Chrome export; aggregates count every span
MAX_EXPORTED_SPANS = 100_000

#: marks a function this module installed, so a process can prove it runs
#: the original, unwrapped program
WRAPPED_MARK = "__perfbench_layer__"


def load_ledger() -> Dict[str, Any]:
    with open(LEDGER) as fh:
        return json.load(fh)


def layer_sites() -> Dict[str, List[str]]:
    """Layer name -> wrap sites (``module:attr`` or ``module:Class.method``)."""
    return {name: entry["sites"] for name, entry in load_ledger()["layers"].items()}


def _resolve(site: str) -> Tuple[Any, str]:
    """The object owning a site's attribute, and the attribute name."""
    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def current(site: str) -> Callable[..., Any]:
    owner, attr = _resolve(site)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def wrapped_sites() -> List[str]:
    """Every layer site (and count hook) currently bound to a wrapper."""
    sites = [s for group in layer_sites().values() for s in group]
    sites += list(COUNT_HOOKS)
    return [s for s in sites if getattr(current(s), WRAPPED_MARK, False)]


class _Layer:
    __slots__ = ("calls", "self_s", "durations", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.durations: List[float] = []
        self.counts: Dict[str, float] = {}


class Recorder:
    """Aggregates spans per layer and keeps raw spans for export."""

    def __init__(self) -> None:
        self.active = False
        self.layers: Dict[str, _Layer] = {}
        self.spans: List[Tuple[str, float, float]] = []
        self.dropped_spans = 0
        self.cone_sizes: List[int] = []
        #: OpticalModel -> window geometries it has imaged (kernel builds)
        self.kernel_geometries: "weakref.WeakKeyDictionary[Any, set]" = (
            weakref.WeakKeyDictionary())
        self._stack: List[List[float]] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self._origin = time.perf_counter()

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up)."""
        self.layers = {}
        self.spans = []
        self.dropped_spans = 0
        self.cone_sizes = []

    def layer(self, name: str) -> _Layer:
        entry = self.layers.get(name)
        if entry is None:
            entry = self.layers[name] = _Layer()
        return entry

    def span(self, name: str, fn: Callable[..., Any], args, kwargs,
             count: Optional[Callable[..., Dict[str, float]]]) -> Any:
        self._stack.append([0.0])
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            child_s = self._stack.pop()[0]
            duration = end - start
            if self._stack:
                self._stack[-1][0] += duration
            entry = self.layer(name)
            entry.calls += 1
            entry.self_s += duration - child_s
            entry.durations.append(duration)
            if len(self.spans) < MAX_EXPORTED_SPANS:
                self.spans.append((name, start, end))
            else:
                self.dropped_spans += 1
        if count is not None:
            for key, value in count(self, result, args, kwargs).items():
                entry.counts[key] = entry.counts.get(key, 0.0) + value
        return result

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside: benchmark bookkeeping, not workload work."""
        was_active = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was_active

    @contextlib.contextmanager
    def section(self, name: str):
        """A benchmark phase span: exported, never counted as a layer."""
        start = time.perf_counter()
        try:
            yield
        finally:
            if len(self.spans) < MAX_EXPORTED_SPANS:
                self.spans.append((name, start, time.perf_counter()))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, sites in layer_sites().items():
            for site in sites:
                self._wrap(site, self._layer_wrapper(name, site))
        for site, hook in COUNT_HOOKS.items():
            self._wrap(site, self._count_wrapper(hook))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, site: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        owner, attr = _resolve(site)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = make(original)
        setattr(wrapper, WRAPPED_MARK, True)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _layer_wrapper(self, name: str, site: str):
        count = COUNTERS.get(site)

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return original(*args, **kwargs)
                return self.span(name, original, args, kwargs, count)
            return wrapper
        return make

    def _count_wrapper(self, hook):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if self.active:
                    hook(self, result)
                return result
            return wrapper
        return make

    # -- reporting ------------------------------------------------------------

    def self_total(self) -> float:
        return sum(entry.self_s for entry in self.layers.values())

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """``<layer>.calls``, ``.self_s`` and ``.share`` for every ledger
        layer (zero when the workload never reached it), plus the counts."""
        out: Dict[str, float] = {}
        for name in layer_sites():
            entry = self.layers.get(name, _Layer())
            out[f"{name}.calls"] = entry.calls
            out[f"{name}.self_s"] = entry.self_s
            out[f"{name}.share"] = entry.self_s / wall_s if wall_s > 0 else 0.0
        for key in COUNT_METRICS:
            out[key] = 0.0
        for entry in self.layers.values():
            for key, value in entry.counts.items():
                out[key] = out.get(key, 0.0) + value
        sta = self.layers.get("timing.sta_full")
        out["timing.sta_full.ms_p50"] = (
            statistics.median(sta.durations) * 1000.0 if sta and sta.durations else 0.0)
        cones = sorted(self.cone_sizes)
        out["timing.cone_gates_p50"] = float(statistics.median(cones)) if cones else 0.0
        out["timing.cone_gates_p95"] = float(nearest_rank(cones, 95)) if cones else 0.0
        return out

    def write_chrome_trace(self, path: Path, metadata: Dict[str, Any]) -> None:
        """Chrome trace-event JSON (complete events, microseconds)."""
        events = [
            {"name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - self._origin) * 1e6, "dur": (end - start) * 1e6}
            for name, start, end in self.spans
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, dropped_spans=self.dropped_spans),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh)


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    exact = {
        "timing.sta_full.ms_p50": "ms", "timing.cone_gates_p50": "gates",
        "timing.cone_gates_p95": "gates", "bench.probe_ms": "ms",
        "bench.probe_end_ms": "ms", "bench.layer_coverage": "fraction",
    }
    if name in exact:
        return exact[name]
    suffix = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "share": "fraction", "s": "s", "mpx": "Mpx"}.get(suffix, "count")


def nearest_rank(ordered: List[float], q: float) -> float:
    """The ceil(q/100 * n)-th smallest of the sorted ``ordered``."""
    index = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[min(index, len(ordered) - 1)]


# -- counts that repeat exactly --------------------------------------------------

def _mask_mpx(recorder, result, args, kwargs) -> Dict[str, float]:
    return {"litho.rasterize.mpx": result.data.size / 1e6}


def _aerial_counts(recorder, result, args, kwargs) -> Dict[str, float]:
    model, mask = args[0], args[1]
    defocus = kwargs.get("defocus_nm", args[2] if len(args) > 2 else 0.0)
    method = kwargs.get("method", args[3] if len(args) > 3 else "socs")
    counts = {"litho.aerial_image.mpx": mask.data.size / 1e6}
    if method == "socs":
        kernels = model.kernel_count(mask.nx, mask.ny, mask.pixel, defocus)
        counts["litho.ffts"] = 1.0 + kernels
        geometry = (mask.nx, mask.ny, mask.pixel, defocus)
        seen = recorder.kernel_geometries.setdefault(model, set())
        if geometry not in seen:
            seen.add(geometry)
            counts["litho.kernel_builds"] = 1.0
    return counts


def _opc_iterations(recorder, result, args, kwargs) -> Dict[str, float]:
    return {"opc.model.iterations": result.iterations_run}


def _gates_measured(recorder, result, args, kwargs) -> Dict[str, float]:
    return {"metrology.gates_measured": len(result)}


#: site -> extra counts taken from the call's arguments and result
COUNTERS: Dict[str, Callable[..., Dict[str, float]]] = {
    "repro.litho.simulator:rasterize": _mask_mpx,
    "repro.litho.imaging:OpticalModel.aerial_image": _aerial_counts,
    "repro.opc.model_based:apply_model_opc": _opc_iterations,
    "repro.metrology.gate_cd:measure_gate_cds": _gates_measured,
}


def _count_cone(recorder: Recorder, result) -> None:
    recorder.cone_sizes.append(len(result))


#: sites counted without a span: ``affected_gates`` is the cone that
#: ``run_incremental`` re-propagates
COUNT_HOOKS: Dict[str, Callable[[Recorder, Any], None]] = {
    "repro.timing.incremental:affected_gates": _count_cone,
}

#: count metrics reported (as 0 when absent) on every workload
COUNT_METRICS = (
    "litho.rasterize.mpx",
    "litho.aerial_image.mpx",
    "litho.ffts",
    "litho.kernel_builds",
    "opc.model.iterations",
    "metrology.gates_measured",
)
