"""Incremental timing update.

Selective OPC changes a handful of instances; re-deriving the whole chip's
timing for each what-if is wasteful.  ``run_incremental`` re-propagates
only the fan-out cone of the changed instances (plus the drivers of their
input nets, whose loads changed with the instances' pin capacitance) and
splices the result into the previous analysis.  The cone goes through the
engine's own arc loop (:meth:`StaEngine._propagate`), so there is one
max-arrival propagation to keep exact, not two.

The result is bit-identical to a full re-run — enforced by parity tests
(``tests/timing/test_incremental_parity.py``), not merely asserted —
because arrival times outside the recomputed cone cannot change: STA
arrival is a pure function of the fan-in cone, and every node whose fan-in
intersects the change set is in the recomputed cone by construction.

Two properties keep the cone small on register-rich fabrics:

* Cones are bounded at sequential elements.  A register's Q arrival is
  ``clk_to_q`` scaled by *its own* derate — independent of the arrival or
  slew at D/CK — so dirtiness does not propagate through a register that
  is not itself in the change set.  D-pin endpoint slacks still update
  because endpoints are re-collected from the patched arrival map.
* Driver lookups go through :meth:`StaEngine.driver_name_of` (a
  precomputed net -> driver map) instead of the O(gates) netlist scan.

``retime`` (exported as :func:`repro.timing.retime`) is the what-if entry:
it diffs two derate annotations with :func:`diff_derates` and
re-propagates only instances whose derate actually changed.  All
incremental entry points assume ``constraints`` match the previous run's
except for the clock period (arrivals inherited from outside the cone were
computed under the previous input slew/arrival and output load).
"""

from __future__ import annotations

from typing import Mapping, Optional, Set

from repro.timing.sta import (
    _NO_DERATE,
    InstanceDerate,
    StaEngine,
    StaResult,
    TimingConstraints,
    TRANSITIONS,
)


def diff_derates(
    old: Mapping[str, InstanceDerate],
    new: Mapping[str, InstanceDerate],
) -> Set[str]:
    """Instances whose effective derate differs between two annotations.

    A missing entry counts as the identity derate, so an instance moving
    between "absent" and "explicit identity" is not reported as changed.
    """
    changed: Set[str] = set()
    for name in old.keys() | new.keys():
        if old.get(name, _NO_DERATE) != new.get(name, _NO_DERATE):
            changed.add(name)
    return changed


def affected_gates(
    engine: StaEngine, changed_gates: Set[str]
) -> Set[str]:
    """The changed instances, the drivers of their input nets (their load
    changed), and the combinational downstream closure of either.

    The closure stops at registers: a non-changed sequential gate's output
    arrival does not depend on its inputs, so it neither joins the cone
    nor re-dirties its Q net.
    """
    seeds: Set[str] = set(changed_gates)
    for gate_name in changed_gates:
        gate = engine.netlist.gates[gate_name]
        cell = engine.cells[gate.cell_name]
        sink_pins = list(cell.inputs) + ([cell.clock] if cell.clock else [])
        for pin in sink_pins:
            driver = engine.driver_name_of(gate.connections[pin])
            if driver is not None:
                seeds.add(driver)

    # Downstream closure over the topological order.
    affected: Set[str] = set(seeds)
    dirty_nets: Set[str] = set()
    for gate_name in seeds:
        gate = engine.netlist.gates[gate_name]
        cell = engine.cells[gate.cell_name]
        dirty_nets.add(gate.connections[cell.output])
    for gate in engine._order:
        cell = engine.cells[gate.cell_name]
        if gate.name in affected:
            dirty_nets.add(gate.connections[cell.output])
            continue
        if engine.liberty[gate.cell_name].is_sequential:
            continue  # registers bound the cone
        sink_pins = list(cell.inputs) + ([cell.clock] if cell.clock else [])
        if any(gate.connections[pin] in dirty_nets for pin in sink_pins):
            affected.add(gate.name)
            dirty_nets.add(gate.connections[cell.output])
    return affected


def run_incremental(
    engine: StaEngine,
    previous: StaResult,
    changed_gates: Set[str],
    constraints: Optional[TimingConstraints] = None,
    derates: Optional[Mapping[str, InstanceDerate]] = None,
) -> StaResult:
    """Update ``previous`` for a new derate set differing only on
    ``changed_gates``.  Exact: matches a full :meth:`StaEngine.run`."""
    constraints = constraints or TimingConstraints()
    derates = derates or {}
    cone = affected_gates(engine, changed_gates) if changed_gates else set()

    result = StaResult(clock_period_ps=constraints.clock_period_ps)
    result.arrivals = dict(previous.arrivals)
    result.slews = dict(previous.slews)
    result.predecessors = dict(previous.predecessors)

    # Clear the cone's output nodes, then re-propagate just those gates in
    # full-run order.  A cone net's single driver is in the cone, so every
    # arc writing it is replayed exactly as the full run replays it.
    gates = [g for g in engine._order if g.name in cone]
    for gate in gates:
        out_net = gate.connections[engine.cells[gate.cell_name].output]
        for transition in TRANSITIONS:
            result.arrivals.pop((out_net, transition), None)
            result.slews.pop((out_net, transition), None)
            result.predecessors.pop((out_net, transition), None)
    engine._propagate(result, gates, constraints, derates)
    engine._collect_endpoints(result, constraints)
    return result


def retime(
    engine: StaEngine,
    previous: StaResult,
    old_derates: Mapping[str, InstanceDerate],
    new_derates: Mapping[str, InstanceDerate],
    constraints: Optional[TimingConstraints] = None,
) -> StaResult:
    """Re-time ``previous`` (computed under ``old_derates``) for
    ``new_derates``, re-propagating only instances whose derate actually
    changed.  With an empty diff this reduces to re-collecting endpoints
    at the requested clock period."""
    changed = diff_derates(old_derates, new_derates)
    return run_incremental(engine, previous, changed, constraints, new_derates)
