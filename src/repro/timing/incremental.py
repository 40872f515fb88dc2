"""Incremental timing update.

Selective OPC changes a handful of instances and replays many what-ifs.
``run_incremental`` first finds the fan-out cone of the changed instances
(plus the drivers of their input nets, whose loads changed with the
instances' pin capacitance), then takes the cheaper of two exact paths:

* **Cone splice** (small cones): re-propagate only the cone through the
  engine's own arc loop (:meth:`StaEngine._propagate`) and splice it into
  the previous analysis.  Arrival times outside the cone cannot change:
  STA arrival is a pure function of the fan-in cone, and every node whose
  fan-in meets the change set is in the cone by construction.
* **Kernel pass** (large cones): re-time the whole graph in one n = 1 pass
  of the engine's batched kernel (:meth:`SampleKernel.state`), which
  returns arrivals, slews and each node's winning arc.  A pass is the
  cheaper path once the cone holds more than a sixth of the graph plus
  40 gates (:func:`_kernel_pays`).  The result's dicts are built from
  the kernel state in the full run's key order, and its endpoints are
  read straight off the kernel's endpoint rows.

Either result is bit-identical to a full :meth:`StaEngine.run`, including
predecessors; parity tests on both sides of the selection enforce it
(``tests/timing/test_incremental_parity.py``).  Non-finite derate scales
always take the cone splice, the path that is the scalar engine itself.

Two properties keep the cone small on register-rich fabrics, and cheap to find:

* Cones are bounded at sequential elements.  A register's Q arrival is
  ``clk_to_q`` scaled by *its own* derate — independent of the arrival or
  slew at D/CK — so dirtiness does not propagate through a register that
  is not itself in the change set.  D-pin endpoint slacks still update
  because endpoints are re-collected from the patched arrival map.
* The cone is one sweep over integer gate ids (:meth:`StaEngine.gate_graph`,
  built on an engine's first what-if): each net's driver, and each gate's
  non-sequential readers.

``retime`` (exported as :func:`repro.timing.retime`) is the what-if entry:
it diffs two derate annotations with :func:`diff_derates` and
re-propagates only instances whose derate actually changed.  All
incremental entry points assume ``constraints`` match the previous run's
except for the clock period (arrivals inherited from outside the cone were
computed under the previous input slew/arrival and output load).
"""

from __future__ import annotations

from typing import Mapping, Optional, Set, Tuple

import numpy as np

from repro.timing.kernel import derate_columns
from repro.timing.sta import (
    _NO_DERATE,
    Endpoint,
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
    nor re-dirties its Q net.  It is one sweep over the gate ids
    (``StaEngine.gate_graph``) in topological order: a gate in the cone
    marks the non-sequential gates reading its output, which all come
    later in the order, so every mark lands before the sweep reaches it.
    """
    driver, readers = engine.gate_graph()
    marked = bytearray(len(readers))
    for name in changed_gates:
        node = engine.node(name)
        marked[driver[node.out_net]] = 1
        for net in node.sink_nets:
            if net in driver:
                marked[driver[net]] = 1
    nodes = engine.nodes
    cone: Set[str] = set()
    for g in range(max(marked.find(1), 0), len(marked)):
        if marked[g]:
            cone.add(nodes[g].name)
            for reader in readers[g]:
                marked[reader] = 1
    return cone


def _kernel_pays(cone: Set[str], engine: StaEngine) -> bool:
    """Whether one kernel pass over the whole graph is cheaper than
    splicing ``cone`` through the scalar loop.

    The splice costs ~16 us per cone gate.  A kernel pass costs ~0.4 ms
    plus ~3.4 us per graph gate on the structured-ASIC fabric, and more
    per gate on deep random logic, where it follows the level count.  The
    two constants minimise the summed time of a what-if sweep over both
    design families (the crossover table in ``docs/architecture.md``).
    """
    return 6 * len(cone) >= len(engine.nodes) + 240


def run_incremental(
    engine: StaEngine,
    previous: StaResult,
    changed_gates: Set[str],
    constraints: Optional[TimingConstraints] = None,
    derates: Optional[Mapping[str, InstanceDerate]] = None,
) -> StaResult:
    """Update ``previous`` for a new derate set differing only on
    ``changed_gates``: one kernel pass for a large cone, the cone splice
    for a small one.  Exact: matches a full :meth:`StaEngine.run`."""
    constraints = constraints or TimingConstraints()
    derates = derates or {}
    cone = affected_gates(engine, changed_gates) if changed_gates else set()
    if _kernel_pays(cone, engine):
        columns = derate_columns(engine, derates)
        if np.isfinite(columns).all():
            return _kernel_run(engine, constraints, columns)

    result = StaResult(clock_period_ps=constraints.clock_period_ps)
    result.arrivals = dict(previous.arrivals)
    result.slews = dict(previous.slews)
    result.predecessors = dict(previous.predecessors)

    # Clear the cone's output nodes, then re-propagate just those gates in
    # full-run order.  A cone net's single driver is in the cone, so every
    # arc writing it is replayed exactly as the full run replays it.
    nodes = [node for node in engine.nodes if node.name in cone]
    for node in nodes:
        for transition in TRANSITIONS:
            result.arrivals.pop((node.out_net, transition), None)
            result.slews.pop((node.out_net, transition), None)
            result.predecessors.pop((node.out_net, transition), None)
    engine._propagate(result, nodes, constraints, derates)
    engine._collect_endpoints(result, constraints)
    return result


def _kernel_run(engine: StaEngine, constraints: TimingConstraints,
                columns: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> StaResult:
    """``StaEngine.run`` through one n = 1 pass of the engine's kernel."""
    kernel = engine.sample_kernel()
    state = kernel.state(constraints, *columns)
    inputs = kernel.arc_inputs
    period = constraints.clock_period_ps
    result = StaResult(clock_period_ps=period)
    result.arrivals = kernel.node_map(state.arrival.tolist())
    result.slews = kernel.node_map(state.slew.tolist())
    result.predecessors = kernel.node_map([
        None if row < 0 else inputs[row] + (delay,)
        for row, delay in zip(state.winner.tolist(), state.delay.tolist())])
    result.endpoints = [
        Endpoint(net, transition, arrival, period if setup is None else period - setup)
        for (net, transition, setup), arrival
        in zip(kernel.end_keys, state.arrival[kernel.end_nodes].tolist())]
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
