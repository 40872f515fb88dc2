"""The static timing analysis engine.

Block-based STA over the gate-level netlist: per-net arrival times and
slews for both transitions, endpoint slacks against a clock constraint,
and predecessor records for path reconstruction.  Per-instance derates
(the vehicle for post-OPC CD back-annotation) scale arc delays and pin
capacitances without re-characterizing the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cells import CellLibrary
from repro.circuits import Gate, Netlist
from repro.place.placer import Placement
from repro.timing.liberty import LibertyLibrary
from repro.units import Dimensionless, Femtofarads, Picoseconds

TRANSITIONS = ("rise", "fall")

NodeKey = Tuple[str, str]  # (net, transition)


@dataclass(frozen=True)
class TimingConstraints:
    """The timing environment."""

    clock_period_ps: float = 1000.0
    input_slew_ps: float = 30.0
    input_arrival_ps: float = 0.0
    #: capacitive load each primary output drives (fF)
    output_load_ff: float = 2.0


@dataclass(frozen=True)
class WireModel:
    """Linear wire parasitics applied to net HPWL (per nm)."""

    c_per_nm: float = 2.0e-4   # fF/nm  (~0.2 fF/um)
    r_per_nm: float = 2.5e-7   # kOhm/nm (~0.25 Ohm/um)


@dataclass(frozen=True)
class InstanceDerate:
    """Per-instance timing adjustment from extracted CDs.

    Delay scales multiply the arc delay through this instance (rise = the
    output rising, limited by the pull-up network); ``cap_scale``
    multiplies the instance's input pin capacitances (printed gate area).
    A ``failed`` instance records a catastrophic printability fault.
    """

    delay_rise_scale: Dimensionless = 1.0
    delay_fall_scale: Dimensionless = 1.0
    cap_scale: Dimensionless = 1.0
    failed: bool = False


@dataclass
class Endpoint:
    net: str
    transition: str
    arrival: Picoseconds
    required: Picoseconds

    @property
    def slack(self) -> Picoseconds:
        return self.required - self.arrival


@dataclass
class StaResult:
    """All timing quantities of one STA run."""

    arrivals: Dict[NodeKey, float] = field(default_factory=dict)
    slews: Dict[NodeKey, float] = field(default_factory=dict)
    #: (net, transition) -> (prev net, prev transition, gate name, arc delay)
    predecessors: Dict[NodeKey, Optional[Tuple[str, str, str, float]]] = field(
        default_factory=dict
    )
    endpoints: List[Endpoint] = field(default_factory=list)
    clock_period_ps: float = 0.0

    @property
    def worst_endpoint(self) -> Endpoint:
        if not self.endpoints:
            raise ValueError("no endpoints in STA result")
        return min(self.endpoints, key=lambda e: e.slack)

    @property
    def wns(self) -> Picoseconds:
        """Worst negative slack (most critical slack; may be positive)."""
        return self.worst_endpoint.slack

    @property
    def tns(self) -> Picoseconds:
        """Total negative slack."""
        return sum(min(e.slack, 0.0) for e in self.endpoints)

    @property
    def critical_delay(self) -> Picoseconds:
        """Longest arrival over all endpoints."""
        return max(e.arrival for e in self.endpoints)

    def endpoint_slacks(self) -> Dict[Tuple[str, str], float]:
        return {(e.net, e.transition): e.slack for e in self.endpoints}

    def slack_of(self, net: str) -> Picoseconds:
        """Worst slack over transitions at one endpoint net."""
        slacks = [e.slack for e in self.endpoints if e.net == net]
        if not slacks:
            raise KeyError(f"{net!r} is not an endpoint")
        return min(slacks)

    def with_clock_period(self, clock_period_ps: float) -> "StaResult":
        """This result re-based to a different clock period.

        Arrivals, slews and predecessors do not depend on the period —
        only endpoint required times do, and they all shift by the same
        delta (outputs are required at the period, register D pins at
        period minus setup).  The rebased copy shares the arrival/slew
        dicts with the original, so rebasing a cached STA is O(endpoints)
        instead of a full re-run; treat results as immutable.
        """
        if clock_period_ps == self.clock_period_ps:
            return self
        delta = clock_period_ps - self.clock_period_ps
        return StaResult(
            arrivals=self.arrivals,
            slews=self.slews,
            predecessors=self.predecessors,
            endpoints=[
                Endpoint(e.net, e.transition, e.arrival, e.required + delta)
                for e in self.endpoints
            ],
            clock_period_ps=clock_period_ps,
        )


class StaEngine:
    """Timing engine bound to one netlist + characterized library."""

    def __init__(
        self,
        netlist: Netlist,
        cells: CellLibrary,
        liberty: LibertyLibrary,
        placement: Optional[Placement] = None,
        wire_model: Optional[WireModel] = None,
        net_lengths: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.netlist = netlist
        self.cells = cells
        self.liberty = liberty
        self.placement = placement
        self.wire_model = wire_model if wire_model is not None else WireModel()
        self._order = netlist.topological_gates(cells)
        self._loads = self._build_load_map()
        self._driver_by_net: Dict[str, str] = {
            gate.connections[cells[gate.cell_name].output]: gate.name
            for gate in netlist.gates.values()
        }
        # Wire lengths: realised routes if provided, HPWL estimate otherwise.
        if net_lengths is not None:
            self._hpwl = dict(net_lengths)
        else:
            self._hpwl = self._build_hpwl() if placement is not None else {}

    # -- construction helpers ---------------------------------------------

    def _build_load_map(self) -> Dict[str, List[Tuple[str, str]]]:
        """net -> [(gate, input pin)] sink list."""
        loads: Dict[str, List[Tuple[str, str]]] = {}
        for gate in self.netlist.gates.values():
            cell = self.cells[gate.cell_name]
            sink_pins = list(cell.inputs) + ([cell.clock] if cell.clock else [])
            for pin in sink_pins:
                loads.setdefault(gate.connections[pin], []).append((gate.name, pin))
        return loads

    def _build_hpwl(self) -> Dict[str, float]:
        lengths: Dict[str, float] = {}
        points: Dict[str, List] = {}
        for gate in self.netlist.gates.values():
            center = self.placement.gates[gate.name].bbox.center
            for net in gate.connections.values():
                points.setdefault(net, []).append(center)
        for net, pts in points.items():
            if len(pts) < 2:
                lengths[net] = 0.0
                continue
            xs = [p.x for p in pts]
            ys = [p.y for p in pts]
            lengths[net] = (max(xs) - min(xs)) + (max(ys) - min(ys))
        return lengths

    def driver_name_of(self, net: str) -> Optional[str]:
        """Name of the gate driving ``net`` (None for primary inputs).

        O(1) via a map precomputed at construction — the Netlist-level
        ``driver_of`` scans every gate per query, which turns incremental
        cone extraction quadratic on multi-thousand-gate designs.
        """
        return self._driver_by_net.get(net)

    def net_load_ff(
        self,
        net: str,
        constraints: TimingConstraints,
        derates: Mapping[str, InstanceDerate],
    ) -> float:
        """Total capacitive load on a net: sink pins + wire + PO load."""
        total = 0.0
        for gate_name, pin in self._loads.get(net, ()):  # pin caps
            gate = self.netlist.gates[gate_name]
            lib_cell = self.liberty[gate.cell_name]
            scale = derates.get(gate_name, _NO_DERATE).cap_scale
            total += lib_cell.capacitance(pin) * scale
        total += self._hpwl.get(net, 0.0) * self.wire_model.c_per_nm
        if net in self.netlist.outputs:
            total += constraints.output_load_ff
        return total

    def _wire_delay_ps(self, net: str, sink_cap: float) -> float:
        length = self._hpwl.get(net, 0.0)
        if length == 0.0:
            return 0.0
        r = length * self.wire_model.r_per_nm
        c = length * self.wire_model.c_per_nm
        return r * (c / 2 + sink_cap)

    # -- the engine -------------------------------------------------------

    def run(
        self,
        constraints: Optional[TimingConstraints] = None,
        derates: Optional[Mapping[str, InstanceDerate]] = None,
    ) -> StaResult:
        constraints = constraints or TimingConstraints()
        derates = derates or {}
        result = StaResult(clock_period_ps=constraints.clock_period_ps)
        arrivals = result.arrivals
        slews = result.slews

        for net in self.netlist.inputs:
            for transition in TRANSITIONS:
                arrivals[(net, transition)] = constraints.input_arrival_ps
                slews[(net, transition)] = constraints.input_slew_ps
                result.predecessors[(net, transition)] = None

        self._propagate(result, self._order, constraints, derates)
        self._collect_endpoints(result, constraints)
        return result

    def _propagate(
        self,
        result: StaResult,
        gates: Sequence[Gate],
        constraints: TimingConstraints,
        derates: Mapping[str, InstanceDerate],
    ) -> None:
        """Propagate arrivals, slews and predecessors through ``gates``.

        ``gates`` must be in topological order.  Their input nodes are read
        from ``result``: primary inputs seeded by :meth:`run`, or nodes an
        incremental re-time kept from an earlier run outside its cone.
        """
        arrivals = result.arrivals
        slews = result.slews

        for gate in gates:
            cell = self.cells[gate.cell_name]
            lib_cell = self.liberty[gate.cell_name]
            derate = derates.get(gate.name, _NO_DERATE)
            out_net = gate.connections[cell.output]
            load = self.net_load_ff(out_net, constraints, derates)

            if lib_cell.is_sequential:
                # Launch at clock edge (t=0) + clock-to-Q.
                for transition in TRANSITIONS:
                    scale = (derate.delay_rise_scale if transition == "rise"
                             else derate.delay_fall_scale)
                    arrivals[(out_net, transition)] = lib_cell.clk_to_q * scale
                    slews[(out_net, transition)] = constraints.input_slew_ps
                    result.predecessors[(out_net, transition)] = None
                continue

            for arc in lib_cell.arcs:
                in_net = gate.connections[arc.input_pin]
                for in_transition in TRANSITIONS:
                    key_in = (in_net, in_transition)
                    if key_in not in arrivals:
                        continue
                    for out_transition in arc.output_transitions(in_transition):
                        delay_table, slew_table = arc.tables_for(out_transition)
                        scale = (derate.delay_rise_scale if out_transition == "rise"
                                 else derate.delay_fall_scale)
                        delay = delay_table.lookup(slews[key_in], load) * scale
                        delay += self._wire_delay_ps(out_net, load)
                        out_slew = slew_table.lookup(slews[key_in], load)
                        key_out = (out_net, out_transition)
                        candidate = arrivals[key_in] + delay
                        if candidate > arrivals.get(key_out, -float("inf")):
                            arrivals[key_out] = candidate
                            slews[key_out] = out_slew
                            result.predecessors[key_out] = (
                                in_net, in_transition, gate.name, delay
                            )
                        elif key_out in slews:
                            # Worst-slew merge, the conservative STA habit.
                            slews[key_out] = max(slews[key_out], out_slew)

    def _collect_endpoints(
        self, result: StaResult, constraints: TimingConstraints
    ) -> None:
        period = constraints.clock_period_ps
        for net in self.netlist.outputs:
            for transition in TRANSITIONS:
                key = (net, transition)
                if key in result.arrivals:
                    result.endpoints.append(
                        Endpoint(net, transition, result.arrivals[key], period)
                    )
        # DFF D pins are capture endpoints.
        for gate in self.netlist.gates.values():
            lib_cell = self.liberty[gate.cell_name]
            if not lib_cell.is_sequential:
                continue
            cell = self.cells[gate.cell_name]
            d_net = gate.connections[cell.inputs[0]]
            for transition in TRANSITIONS:
                key = (d_net, transition)
                if key in result.arrivals:
                    result.endpoints.append(
                        Endpoint(d_net, transition, result.arrivals[key],
                                 period - lib_cell.setup_time)
                    )


_NO_DERATE = InstanceDerate()
