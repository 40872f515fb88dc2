"""Hold (min-path) analysis.

Setup checks use the *latest* arrival; hold checks need the *earliest*:
a register's D input must not change before the hold window after the
clock edge closes.  Short-gate CDs (the fast, leaky silicon the flow
uncovers) erode hold margins — the dual of the setup story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.timing.sta import (
    _NO_DERATE,
    InstanceDerate,
    StaEngine,
    TimingConstraints,
    TRANSITIONS,
)
from repro.units import Picoseconds


@dataclass
class HoldEndpoint:
    gate: str
    net: str
    transition: str
    earliest_arrival: Picoseconds
    hold_time: Picoseconds

    @property
    def slack(self) -> Picoseconds:
        return self.earliest_arrival - self.hold_time


@dataclass
class HoldResult:
    """Earliest arrivals and register hold slacks."""

    min_arrivals: Dict[Tuple[str, str], float] = field(default_factory=dict)
    endpoints: List[HoldEndpoint] = field(default_factory=list)

    @property
    def worst_hold_slack(self) -> Picoseconds:
        if not self.endpoints:
            return float("inf")
        return min(e.slack for e in self.endpoints)

    @property
    def violations(self) -> List[HoldEndpoint]:
        return [e for e in self.endpoints if e.slack < 0]


def run_hold(
    engine: StaEngine,
    constraints: Optional[TimingConstraints] = None,
    derates: Optional[Mapping[str, InstanceDerate]] = None,
    hold_time_ps: float = 15.0,
) -> HoldResult:
    """Earliest-arrival propagation over ``engine``'s netlist.

    ``hold_time_ps`` is used for registers whose characterized hold time is
    zero (the analytic characterization folds hold into setup/2 by
    default).  Primary inputs launch at the clock edge (t = 0).
    """
    constraints = constraints or TimingConstraints()
    derates = derates or {}
    result = HoldResult()
    arrivals = result.min_arrivals
    slews: Dict[Tuple[str, str], float] = {}

    for net in engine.netlist.inputs:
        for transition in TRANSITIONS:
            arrivals[(net, transition)] = constraints.input_arrival_ps
            slews[(net, transition)] = constraints.input_slew_ps

    for node in engine.nodes:
        lib_cell = node.lib_cell
        derate = derates.get(node.name, _NO_DERATE)
        out_net = node.out_net
        load = engine.net_load_ff(out_net, constraints, derates)

        if lib_cell.is_sequential:
            for transition in TRANSITIONS:
                scale = (derate.delay_rise_scale if transition == "rise"
                         else derate.delay_fall_scale)
                arrivals[(out_net, transition)] = lib_cell.clk_to_q * scale
                slews[(out_net, transition)] = constraints.input_slew_ps
            continue

        for in_net, arc in node.arcs:
            for in_transition in TRANSITIONS:
                key_in = (in_net, in_transition)
                if key_in not in arrivals:
                    continue
                for out_transition in arc.output_transitions(in_transition):
                    delay_table, slew_table = arc.tables_for(out_transition)
                    scale = (derate.delay_rise_scale if out_transition == "rise"
                             else derate.delay_fall_scale)
                    delay = delay_table.lookup(slews[key_in], load) * scale
                    key_out = (out_net, out_transition)
                    candidate = arrivals[key_in] + delay
                    if candidate < arrivals.get(key_out, float("inf")):
                        arrivals[key_out] = candidate
                        slews[key_out] = slew_table.lookup(slews[key_in], load)

    for node in engine.registers:
        hold = node.lib_cell.setup_time / 2 or hold_time_ps
        for transition in TRANSITIONS:
            key = (node.d_net, transition)
            if key in arrivals:
                result.endpoints.append(
                    HoldEndpoint(node.name, node.d_net, transition, arrivals[key], hold)
                )
    return result
