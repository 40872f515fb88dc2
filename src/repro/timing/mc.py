"""Corner-based and Monte-Carlo statistical timing.

The paper's motivation: corner cases assume every gate sits at its
worst-case CD simultaneously, which silicon never does.  ``run_corners``
produces that classical guardband; ``run_monte_carlo`` samples per-instance
CD perturbations (a systematic mean, a spatially correlated component over
placement, and independent noise) and reruns STA, exposing how pessimistic
the corners are.

Both run their samples (a corner is a sample with the same delta-L on every
gate) through the engine's batched kernel (``repro.timing.kernel``), up to
``MC_BATCH`` at a time.  A batch is arrays from draw to WNS: ``draw_delta_l``
draws every sample's CD field at once, ``derate_for_delta_l`` derates every
gate of one cell in one array call, and one level-by-level pass times every
sample.  What the draw and the derates need of an engine (its gates'
netlist order, cells and centres) is built once per engine.  Each sample's
WNS equals ``StaEngine.run`` on that sample's derates under ``==``.  Each
sample keeps its own ``random.Random`` stream, keyed by the spec seed and
the sample index, so the deltas do not depend on the batching.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cells import StandardCell
from repro.circuits import Netlist
from repro.device import AlphaPowerModel
from repro.place.placer import Placement
from repro.timing.kernel import derate_columns
from repro.timing.sta import InstanceDerate, StaEngine, TimingConstraints
from repro.units import Dimensionless, Picoseconds


@dataclass(frozen=True)
class CdVariationSpec:
    """CD perturbation statistics in nm."""

    mean_nm: float = 0.0
    sigma_random_nm: float = 2.0
    sigma_correlated_nm: float = 2.0
    correlation_length_nm: float = 50_000.0
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.correlation_length_nm > 0:
            raise ValueError(f"correlation_length_nm must be > 0: {self}")
        if not math.isfinite(self.mean_nm):
            raise ValueError(f"mean_nm must be finite: {self}")
        if not all(math.isfinite(sigma) and sigma >= 0
                   for sigma in (self.sigma_random_nm, self.sigma_correlated_nm)):
            raise ValueError(
                f"sigma_random_nm and sigma_correlated_nm must be finite and >= 0: {self}")


@dataclass(frozen=True)
class CornerSpec:
    """A classical process corner: every gate at the same CD offset."""

    name: str
    delta_l_nm: float


DEFAULT_CORNERS = (
    CornerSpec("fast", -6.0),
    CornerSpec("typical", 0.0),
    CornerSpec("slow", +6.0),
)


@dataclass
class MonteCarloResult:
    """WNS samples plus summary statistics.

    All statistics raise ``ValueError("no samples")`` on an empty result
    (e.g. ``run_monte_carlo(samples=0)``) rather than surfacing as
    ``ZeroDivisionError``/``ValueError`` from the arithmetic.
    """

    wns_samples: List[float] = field(default_factory=list)
    critical_delay_samples: List[float] = field(default_factory=list)

    def _require_samples(self) -> None:
        if not self.wns_samples:
            raise ValueError("no samples")

    @property
    def mean_wns(self) -> Picoseconds:
        self._require_samples()
        return sum(self.wns_samples) / len(self.wns_samples)

    @property
    def sigma_wns(self) -> Picoseconds:
        mean = self.mean_wns
        return (sum((x - mean) ** 2 for x in self.wns_samples) / len(self.wns_samples)) ** 0.5

    @property
    def min_wns(self) -> Picoseconds:
        self._require_samples()
        return min(self.wns_samples)

    def percentile_wns(self, q: Dimensionless) -> Picoseconds:
        """Nearest-rank percentile: the ceil(q/100 * n)-th order statistic.

        The previous ``int(q/100 * n)`` truncation was biased one rank
        high (q=50 over 10 samples picked the 6th order statistic).
        """
        self._require_samples()
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        ordered = sorted(self.wns_samples)
        index = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
        return ordered[min(index, len(ordered) - 1)]


#: ``cos(u)*cos(v)`` over independent uniform phases has mean-square 1/4
#: (E[cos^2] = 1/2 per axis), so the raw wave would deliver a per-gate
#: correlated sigma of sigma_correlated/2.  Scaling the wave by 2 restores
#: E[(amplitude * wave)^2] = sigma_correlated^2 exactly.
_CORRELATED_WAVE_NORM = 2.0

#: samples per kernel batch: bounds the kernel's (arcs, samples) work
#: arrays, ~1.2 MB each on a 1000-gate fabric at 32 samples
MC_BATCH = 32


def compose_derates(prior: InstanceDerate, sampled: InstanceDerate) -> InstanceDerate:
    """Multiplicative composition of two per-instance derates.

    Scales multiply; ``failed`` is sticky — a catastrophic printability
    fault from either contribution survives composition.  (An earlier
    inline composition kept only ``prior.failed``, silently un-failing a
    failed sampled instance whenever base derates were present.)
    """
    return InstanceDerate(
        delay_rise_scale=prior.delay_rise_scale * sampled.delay_rise_scale,
        delay_fall_scale=prior.delay_fall_scale * sampled.delay_fall_scale,
        cap_scale=prior.cap_scale * sampled.cap_scale,
        failed=prior.failed or sampled.failed,
    )


def derate_for_delta_l(cell: StandardCell, delta_l: Union[float, np.ndarray],
                       model: AlphaPowerModel) -> InstanceDerate:
    """Derate for a uniform gate-length shift of one instance.

    An array ``delta_l`` (instances of ``cell`` by samples) gives arrays of
    scales, each element equal to the float call's: ``+ - * / max`` run as
    arrays, while ``math.exp`` and ``pow`` run per element, because numpy's
    ``exp`` and ``power`` round differently from libm on some inputs."""
    p = model.params
    length = cell.transistors[0].length
    widths = [cell.network_strength(mos_type) * length for mos_type in ("p", "n")]
    if isinstance(delta_l, np.ndarray):
        new_length = np.maximum(length + delta_l, p.l_min * 0.8)
        # ``model.drive_current(width, new_length)``, element by element
        vth = p.vth0 - p.vth_rolloff * _libm(math.exp, -(new_length - p.l_min) / p.rolloff_length)
        drive = _libm(pow, np.maximum(p.vdd - vth, 0.1 * p.vdd), p.alpha)  # ``v ** alpha``
        printed = [p.k_drive * (width / new_length) * drive for width in widths]
    else:
        new_length = max(length + delta_l, p.l_min * 0.8)
        printed = [model.drive_current(width, new_length) for width in widths]
    rise, fall = (model.drive_current(width, length) / current
                  for width, current in zip(widths, printed))
    return InstanceDerate(delay_rise_scale=rise, delay_fall_scale=fall,
                          cap_scale=new_length / length)


def _libm(fn: Callable[..., float], x: np.ndarray, *args: float) -> np.ndarray:
    """``fn(v, *args)`` on every element ``v`` of ``x``, through Python floats."""
    values = map(fn, x.ravel().tolist(), *map(repeat, args))
    return np.fromiter(values, np.float64, x.size).reshape(x.shape)


class Centres(NamedTuple):
    """The gates' centres, interned: each distinct coordinate once."""

    values: np.ndarray  # the distinct x (nm, ascending), then the distinct y
    index: np.ndarray   # (2, n_gates) each gate's x and y in ``values``, ``netlist.gates`` order
    n_x: int            # how many of ``values`` are x


def gate_centres(netlist: Netlist, placement: Optional[Placement]) -> Optional[Centres]:
    """Each gate's bounding-box centre, ``(x0 + x1) / 2`` as ``bbox.center``
    computes it; None when unplaced."""
    if placement is None:
        return None
    boxes = [placement.gates[name].bbox for name in netlist.gates]
    xs, x_index = np.unique([(box.x0 + box.x1) / 2 for box in boxes], return_inverse=True)
    ys, y_index = np.unique([(box.y0 + box.y1) / 2 for box in boxes], return_inverse=True)
    return Centres(np.concatenate((xs, ys)), np.stack((x_index, y_index + len(xs))), len(xs))


class _EngineGates(NamedTuple):
    """What a Monte-Carlo batch needs of an engine's gates."""

    order: np.ndarray  # per ``engine.nodes`` entry, its index in ``netlist.gates``
    cells: List[Tuple[StandardCell, np.ndarray]]  # each distinct cell, its node rows
    centres: Optional[Centres]


#: built once per engine, like its kernel
_ENGINE_GATES: "weakref.WeakKeyDictionary[StaEngine, _EngineGates]" = weakref.WeakKeyDictionary()


def _engine_gates(engine: StaEngine) -> _EngineGates:
    gates = _ENGINE_GATES.get(engine)
    if gates is None:
        index = {name: k for k, name in enumerate(engine.netlist.gates)}
        rows: Dict[str, List[int]] = {}
        for g, node in enumerate(engine.nodes):
            rows.setdefault(node.cell.name, []).append(g)
        gates = _ENGINE_GATES[engine] = _EngineGates(
            np.array([index[node.name] for node in engine.nodes], dtype=np.int64),
            [(engine.nodes[at[0]].cell, np.array(at)) for _, at in sorted(rows.items())],
            gate_centres(engine.netlist, engine.placement))
    return gates


def _delta_l_derates(engine: StaEngine, model: AlphaPowerModel, delta_l: np.ndarray,
                     base: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """``compose_derates(base, derate_for_delta_l(...))`` for every gate and
    sample, one ``derate_for_delta_l`` call per distinct cell.  ``delta_l``
    is ``(n_gates, S)`` in ``engine.nodes`` order; the result is the
    ``(rise, fall, cap)`` scales the kernel takes."""
    rise, fall, cap = np.empty((3, *delta_l.shape))
    for cell, rows in _engine_gates(engine).cells:
        derate = derate_for_delta_l(cell, delta_l[rows], model)
        rise[rows], fall[rows], cap[rows] = (
            derate.delay_rise_scale, derate.delay_fall_scale, derate.cap_scale)
    base_rise, base_fall, base_cap = base
    return base_rise * rise, base_fall * fall, base_cap * cap


def run_corners(
    engine: StaEngine,
    model: AlphaPowerModel,
    constraints: Optional[TimingConstraints] = None,
    corners: Sequence[CornerSpec] = DEFAULT_CORNERS,
) -> Dict[str, float]:
    """WNS at each classical corner (all instances shifted together).

    The corners run as the samples of one kernel batch.
    """
    delta_l = np.repeat([[corner.delta_l_nm for corner in corners]], len(engine.nodes), axis=0)
    wns, _ = engine.sample_kernel().run(constraints or TimingConstraints(), *_delta_l_derates(
        engine, model, delta_l, derate_columns(engine, {})))
    return {corner.name: value for corner, value in zip(corners, wns.tolist())}


def draw_delta_l(spec: CdVariationSpec, indices: Sequence[int], n_gates: int,
                 centres: Optional[Centres]) -> np.ndarray:
    """The ``(len(indices), n_gates)`` delta-L (nm) of Monte-Carlo samples
    ``indices``, gates in ``netlist.gates`` order: a smooth correlated field
    over the placement (two cosine harmonics with random phase, scaled by
    ``_CORRELATED_WAVE_NORM`` to deliver ``sigma_correlated_nm``; one shared
    offset when unplaced) plus i.i.d. noise per instance.

    Sample i takes what ``uniform`` and ``gauss`` draw from
    ``random.Random(spec.seed * 1_000_003 + i)``: two phases, the amplitude,
    then one Gaussian per gate.  ``gauss``'s Box-Muller runs as arrays: each
    pair of doubles gives a cosine and a sine normal, so gate 0 takes the
    sine left over from the amplitude's pair.  ``math.log``, ``cos`` and
    ``sin`` run per element (libm), the wave's once per distinct centre.
    """
    count = 4 + 2 * (n_gates // 2)
    streams = (random.Random(spec.seed * 1_000_003 + index) for index in indices)
    doubles = np.array([list(map(random.Random.random, repeat(rng, count)))
                        for rng in streams]).reshape(-1, count)
    x2pi = doubles[:, 2::2] * (2 * math.pi)  # random's TWOPI
    g2rad = np.sqrt(-2.0 * _libm(math.log, 1.0 - doubles[:, 3::2]))
    normal = np.stack((_libm(math.cos, x2pi) * g2rad, _libm(math.sin, x2pi) * g2rad),
                      axis=2).reshape(len(doubles), count - 2)
    amplitude = 0.0 + normal[:, :1] * spec.sigma_correlated_nm
    noise = 0.0 + normal[:, 1:n_gates + 1] * spec.sigma_random_nm
    if centres is None or not spec.sigma_correlated_nm > 0:
        correlated = amplitude if spec.sigma_correlated_nm > 0 else 0.0
        return spec.mean_nm + correlated + noise
    # ``uniform(0, 2 * math.pi)`` is ``0 + (2 * math.pi - 0) * random()``.
    phase = np.repeat(2 * math.pi * doubles[:, :2],
                      (centres.n_x, len(centres.values) - centres.n_x), axis=1)
    wave = _libm(math.cos, 2 * math.pi * centres.values / spec.correlation_length_nm + phase)
    wave_x, wave_y = wave[:, centres.index[0]], wave[:, centres.index[1]]
    return spec.mean_nm + amplitude * _CORRELATED_WAVE_NORM * (wave_x * wave_y) + noise


def sample_instance_deltas(netlist: Netlist, placement: Optional[Placement],
                           spec: CdVariationSpec, sample_index: int) -> Dict[str, float]:
    """Per-instance delta-L (nm) for one Monte-Carlo sample: one row of
    ``draw_delta_l``."""
    row = draw_delta_l(spec, [sample_index], len(netlist.gates),
                       gate_centres(netlist, placement))[0]
    return dict(zip(netlist.gates, row.tolist()))


def run_monte_carlo(
    engine: StaEngine,
    model: AlphaPowerModel,
    samples: int = 100,
    spec: Optional[CdVariationSpec] = None,
    constraints: Optional[TimingConstraints] = None,
    base_derates: Optional[Dict[str, InstanceDerate]] = None,
) -> MonteCarloResult:
    """Monte-Carlo SSTA: sample CD fields, time them in kernel batches,
    collect WNS.

    ``base_derates`` (e.g. the post-OPC systematic back-annotation) compose
    multiplicatively with the sampled variation.
    """
    spec = spec or CdVariationSpec()
    constraints = constraints or TimingConstraints()
    result = MonteCarloResult()
    kernel = engine.sample_kernel()
    gates = _engine_gates(engine)
    base = derate_columns(engine, base_derates or {})
    for start in range(0, samples, MC_BATCH):
        delta_l = draw_delta_l(spec, range(start, min(start + MC_BATCH, samples)),
                               len(gates.order), gates.centres)
        wns, critical = kernel.run(constraints, *_delta_l_derates(
            engine, model, delta_l.T[gates.order], base))
        result.wns_samples += wns.tolist()
        result.critical_delay_samples += critical.tolist()
    return result
