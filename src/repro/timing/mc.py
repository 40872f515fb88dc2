"""Corner-based and Monte-Carlo statistical timing.

The paper's motivation: corner cases assume every gate sits at its
worst-case CD simultaneously, which silicon never does.  ``run_corners``
produces that classical guardband; ``run_monte_carlo`` samples per-instance
CD perturbations (a systematic mean, a spatially correlated component over
placement, and independent noise) and reruns STA, exposing how pessimistic
the corners are.

Both run their samples (a corner is a sample with the same delta-L on every
gate) through the engine's batched kernel (``repro.timing.kernel``), up to
``MC_BATCH`` at a time: the derates of a whole batch are built as arrays,
and one level-by-level pass times every sample of the batch.  Each sample's
WNS equals ``StaEngine.run`` on that sample's derates under ``==``.  The
deltas are still drawn one sample at a time by ``sample_instance_deltas``,
so the random stream does not depend on the batching.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


def derate_for_delta_l(cell: StandardCell, delta_l: float, model: AlphaPowerModel) -> InstanceDerate:
    """Derate for a uniform gate-length shift of one instance."""
    length = cell.transistors[0].length
    new_length = max(length + delta_l, model.params.l_min * 0.8)
    scales = {}
    for mos_type in ("p", "n"):
        wl = cell.network_strength(mos_type)
        width = wl * length
        scales[mos_type] = (
            model.drive_current(width, length) / model.drive_current(width, new_length)
        )
    return InstanceDerate(
        delay_rise_scale=scales["p"],
        delay_fall_scale=scales["n"],
        cap_scale=new_length / length,
    )


def _per_element(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _drawn(engine: StaEngine, model: AlphaPowerModel) -> np.ndarray:
    """Each gate's drawn length, p and n network widths, and p and n drawn
    drive currents, as ``derate_for_delta_l`` computes them: (5, n_gates, 1)."""
    per_cell: Dict[str, List[float]] = {}
    for node in engine.nodes:
        cell = node.cell
        if cell.name not in per_cell:
            length = cell.transistors[0].length
            widths = [cell.network_strength(mos_type) * length for mos_type in ("p", "n")]
            per_cell[cell.name] = [length, *widths,
                                   *(model.drive_current(w, length) for w in widths)]
    rows = [per_cell[node.cell.name] for node in engine.nodes]
    return np.array(rows).reshape(-1, 5).T[:, :, None]


def _delta_l_derates(drawn: np.ndarray, model: AlphaPowerModel, delta_l: np.ndarray,
                     base: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """``derate_for_delta_l`` composed onto ``base``, for every gate and sample.

    ``delta_l`` is ``(n_gates, S)`` in ``engine.nodes`` order; the result is
    the ``(rise, fall, cap)`` scales the kernel takes.  Each element equals
    ``compose_derates(base, derate_for_delta_l(...))``: the arithmetic is
    vectorized with ``+ - * / max`` only, while ``math.exp`` and ``**`` run
    per element, because numpy's ``exp`` and ``power`` round differently
    from libm on some inputs.
    """
    p = model.params
    length, width_p, width_n, drawn_p, drawn_n = drawn
    new_length = np.maximum(length + delta_l, p.l_min * 0.8)
    vth = p.vth0 - p.vth_rolloff * _per_element(
        math.exp, -(new_length - p.l_min) / p.rolloff_length)
    overdrive = np.maximum(p.vdd - vth, 0.1 * p.vdd)
    drive = _per_element(lambda v: v ** p.alpha, overdrive)
    rise = drawn_p / (p.k_drive * (width_p / new_length) * drive)
    fall = drawn_n / (p.k_drive * (width_n / new_length) * drive)
    base_rise, base_fall, base_cap = base
    return base_rise * rise, base_fall * fall, base_cap * (new_length / length)


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
        _drawn(engine, model), model, delta_l, derate_columns(engine, {})))
    return {corner.name: value for corner, value in zip(corners, wns.tolist())}


def sample_instance_deltas(
    netlist: Netlist,
    placement: Optional[Placement],
    spec: CdVariationSpec,
    sample_index: int,
) -> Dict[str, float]:
    """Per-instance delta-L (nm) for one Monte-Carlo sample.

    The correlated component is a smooth random field over placement
    coordinates (two cosine harmonics with random phase — cheap, bounded,
    and spatially smooth), normalized by ``_CORRELATED_WAVE_NORM`` so the
    delivered per-gate variance is exactly ``sigma_correlated_nm**2``
    (marginally over the phases); the random component is i.i.d. per
    instance.
    """
    rng = random.Random(spec.seed * 1_000_003 + sample_index)
    phase_x = rng.uniform(0, 2 * math.pi)
    phase_y = rng.uniform(0, 2 * math.pi)
    amplitude = rng.gauss(0.0, spec.sigma_correlated_nm)
    mean, sigma, gauss = spec.mean_nm, spec.sigma_random_nm, rng.gauss
    deltas: Dict[str, float] = {}
    if placement is not None and spec.sigma_correlated_nm > 0:
        # Same floats as ``2 * math.pi * center.x / L`` on ``bbox.center``,
        # without building a Point per gate.
        two_pi, length = 2 * math.pi, spec.correlation_length_nm
        weight = amplitude * _CORRELATED_WAVE_NORM
        for gate_name in netlist.gates:
            box = placement.gates[gate_name].bbox
            wave = (math.cos(two_pi * ((box.x0 + box.x1) / 2) / length + phase_x)
                    * math.cos(two_pi * ((box.y0 + box.y1) / 2) / length + phase_y))
            deltas[gate_name] = mean + weight * wave + gauss(0.0, sigma)
        return deltas
    # Fully shared when no placement is given.
    correlated = amplitude if spec.sigma_correlated_nm > 0 else 0.0
    for gate_name in netlist.gates:
        deltas[gate_name] = mean + correlated + gauss(0.0, sigma)
    return deltas


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
    names = [node.name for node in engine.nodes]
    drawn = _drawn(engine, model)
    base = derate_columns(engine, base_derates or {})
    for start in range(0, samples, MC_BATCH):
        draws = [sample_instance_deltas(engine.netlist, engine.placement, spec, index)
                 for index in range(start, min(start + MC_BATCH, samples))]
        delta_l = np.array([[deltas[name] for name in names] for deltas in draws]).T
        wns, critical = kernel.run(constraints, *_delta_l_derates(
            drawn, model, np.ascontiguousarray(delta_l), base))
        result.wns_samples += wns.tolist()
        result.critical_delay_samples += critical.tolist()
    return result
