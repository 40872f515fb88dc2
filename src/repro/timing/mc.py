"""Corner-based and Monte-Carlo statistical timing.

The paper's motivation: corner cases assume every gate sits at its
worst-case CD simultaneously, which silicon never does.  ``run_corners``
produces that classical guardband; ``run_monte_carlo`` samples per-instance
CD perturbations (a systematic mean, a spatially correlated component over
placement, and independent noise) and reruns STA, exposing how pessimistic
the corners are.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.cells import StandardCell
from repro.circuits import Netlist
from repro.device import AlphaPowerModel
from repro.place.placer import Placement
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


def _derates_for(engine: StaEngine, deltas: Mapping[str, float], model: AlphaPowerModel,
                 base: Mapping[str, InstanceDerate]) -> Dict[str, InstanceDerate]:
    """Each gate's derate for its delta-L, composed onto its base derate."""
    derates: Dict[str, InstanceDerate] = {}
    for node in engine.nodes:
        sampled = derate_for_delta_l(node.cell, deltas[node.name], model)
        prior = base.get(node.name)
        derates[node.name] = sampled if prior is None else compose_derates(prior, sampled)
    return derates


def run_corners(
    engine: StaEngine,
    model: AlphaPowerModel,
    constraints: Optional[TimingConstraints] = None,
    corners: Sequence[CornerSpec] = DEFAULT_CORNERS,
) -> Dict[str, float]:
    """WNS at each classical corner (all instances shifted together)."""
    results: Dict[str, float] = {}
    for corner in corners:
        deltas = dict.fromkeys(engine.netlist.gates, corner.delta_l_nm)
        results[corner.name] = engine.run(
            constraints, _derates_for(engine, deltas, model, {})).wns
    return results


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
    deltas: Dict[str, float] = {}
    for gate_name in netlist.gates:
        correlated = 0.0
        if placement is not None and spec.sigma_correlated_nm > 0:
            center = placement.gates[gate_name].bbox.center
            wave = math.cos(
                2 * math.pi * center.x / spec.correlation_length_nm + phase_x
            ) * math.cos(2 * math.pi * center.y / spec.correlation_length_nm + phase_y)
            correlated = amplitude * _CORRELATED_WAVE_NORM * wave
        elif spec.sigma_correlated_nm > 0:
            correlated = amplitude  # fully shared when no placement given
        deltas[gate_name] = spec.mean_nm + correlated + rng.gauss(0.0, spec.sigma_random_nm)
    return deltas


def run_monte_carlo(
    engine: StaEngine,
    model: AlphaPowerModel,
    samples: int = 100,
    spec: Optional[CdVariationSpec] = None,
    constraints: Optional[TimingConstraints] = None,
    base_derates: Optional[Dict[str, InstanceDerate]] = None,
) -> MonteCarloResult:
    """Monte-Carlo SSTA: sample CD fields, rerun STA, collect WNS.

    ``base_derates`` (e.g. the post-OPC systematic back-annotation) compose
    multiplicatively with the sampled variation.
    """
    spec = spec or CdVariationSpec()
    result = MonteCarloResult()
    base = base_derates or {}
    for index in range(samples):
        deltas = sample_instance_deltas(engine.netlist, engine.placement, spec, index)
        derates = _derates_for(engine, deltas, model, base)
        sta = engine.run(constraints, derates)
        result.wns_samples.append(sta.wns)
        result.critical_delay_samples.append(sta.critical_delay)
    return result
