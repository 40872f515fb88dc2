"""The batched timing kernel: ``StaEngine.run`` with a sample axis.

``SampleKernel`` compiles an engine's timing graph (``engine.nodes``) once
into integer-indexed arrays.  It then propagates ``(n_nodes, S)`` arrival
and slew arrays level by level.  ``run`` takes S samples at a time
(Monte-Carlo draws or corners) and returns each sample's WNS and critical
delay.  ``state`` takes one sample and returns the whole timing state:
arrivals, slews and each node's winning arc, from which
``run_incremental`` rebuilds ``StaEngine.run``'s result dicts for a large
what-if.  Both run the one level loop, ``_propagate``; only ``state``
keeps each arc's candidate arrival and delay.

For finite derates the results equal ``StaEngine.run(constraints,
derates).wns`` and ``.critical_delay`` under ``==``.  The kernel repeats
the scalar engine's IEEE operations in the scalar engine's order:

- a load is ``0.0 + Σ cap·cap_scale`` in sink order, then the wire term,
  then the primary-output load (``StaEngine.net_load_ff``);
- a lookup brackets like ``liberty._bracket`` (``<= axis[0]``, then
  ``>= axis[-1]``, then the bisect-right count) and interpolates like
  ``TimingTable.lookup``: the load axis first, then
  ``bottom*(1-ti) + top*ti``;
- ``delay = lookup*scale + wire``;
- an output merges its arcs one merge position at a time, keeping the
  scalar engine's order-dependent slew merge (a later arc that wins on
  arrival replaces the slew merged so far).

Which ``(net, transition)`` nodes exist and which arcs feed them does not
depend on the derates, so the graph is fixed when the kernel is built.
The scalar engine stays the oracle, the drawn-STA and hold path, and the
what-if path for small cones.
"""

from __future__ import annotations

from itertools import chain, groupby
from typing import (TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.timing.liberty import TRANSITIONS, TimingArc, TimingTable

if TYPE_CHECKING:
    from repro.timing.sta import InstanceDerate, StaEngine, TimingConstraints

Axis = Tuple[float, ...]


class _Axes(NamedTuple):
    """One table axis per row, laid out for a vectorized ``_bracket``."""

    groups: Tuple[Tuple[np.ndarray, Union[slice, np.ndarray]], ...]  # (axis, its rows)
    first: np.ndarray    # (rows, 1) axis[0]
    last: np.ndarray     # (rows, 1) axis[-1]
    top: np.ndarray      # (rows, 1) len(axis) - 1
    start: np.ndarray    # (rows, 1) where axis[0] sits in ``guarded``
    guarded: np.ndarray  # every axis flat, with a finite guard on each side


class _AxisBank:
    """The distinct axes of a set of tables, stacked."""

    def __init__(self, axes: Sequence[Axis]) -> None:
        self.axes = [np.array(axis) for axis in axes]
        self.first = np.array([axis[0] for axis in axes], dtype=np.float64)
        self.last = np.array([axis[-1] for axis in axes], dtype=np.float64)
        self.top = np.array([len(axis) - 1 for axis in axes], dtype=np.int64)
        self.width = max((len(axis) for axis in axes), default=0) + 2
        guarded = np.empty((len(axes), self.width))
        for row, axis in enumerate(axes):
            # Guards keep the discarded out-of-range interpolation finite.
            guarded[row] = axis[-1] + 1.0
            guarded[row, 0] = axis[0] - 1.0
            guarded[row, 1:len(axis) + 1] = axis
        self.guarded = guarded.ravel()

    def rows(self, ids: np.ndarray) -> _Axes:
        """The axes ``ids`` name, one per row."""
        distinct = np.unique(ids)
        groups: Tuple[Tuple[np.ndarray, Union[slice, np.ndarray]], ...] = (
            ((self.axes[distinct[0]], slice(None)),) if len(distinct) == 1
            else tuple((self.axes[k], np.flatnonzero(ids == k)) for k in distinct))
        column = ids[:, None]
        return _Axes(groups, self.first[column], self.last[column], self.top[column],
                     column * self.width + 1, self.guarded)


def _bracket(x: np.ndarray, axes: _Axes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``liberty._bracket`` for every element of ``x`` (rows, S); row r on axis r."""
    below = x <= axes.first
    inner = ~(below | (x >= axes.last))
    hi = np.empty(x.shape, dtype=np.int64)
    for axis, rows in axes.groups:
        hi[rows] = np.searchsorted(axis, x[rows], side="right")  # bisect_right
    lo = hi - 1
    at = axes.start + lo
    a_lo = axes.guarded.take(at)
    t = np.where(inner, (x - a_lo) / (axes.guarded.take(at + 1) - a_lo), 0.0)
    edge = np.where(below, 0, axes.top)
    return np.where(inner, lo, edge), np.where(inner, hi, edge), t


def _lookup(values: np.ndarray, load_side: Tuple[np.ndarray, ...], rows: slice,
            i0: np.ndarray, i1: np.ndarray, ti: np.ndarray) -> np.ndarray:
    """``TimingTable.lookup`` for a level's arcs.  ``load_side`` holds each
    arc's flat index of ``v[0][j0]`` and ``v[0][j1]``, ``1 - tj`` and ``tj``."""
    j0, j1, u, tj = (a[rows] for a in load_side)
    bottom = values.take(j0 + i0) * u + values.take(j1 + i0) * tj
    top = values.take(j0 + i1) * u + values.take(j1 + i1) * tj
    return bottom * (1 - ti) + top * ti


class _Level(NamedTuple):
    """The arcs feeding one level's outputs, merge position by merge position."""

    arcs: slice                # rows of the kernel's per-arc arrays
    inputs: np.ndarray         # input node id per arc
    delay_axes: _Axes          # the delay tables' slew axes
    slew_axes: Optional[_Axes]  # the slew tables' slew axes; None if the same
    merges: List[Tuple[slice, np.ndarray]]  # (level-local arc rows, their output ids)


class KernelState(NamedTuple):
    """``SampleKernel.state``: one sample, one entry per node id."""

    arrival: np.ndarray  # ps
    slew: np.ndarray     # ps
    winner: np.ndarray   # the winning arc row; -1 at inputs and register outputs
    delay: np.ndarray    # the winning arc's delay; 0.0 where there is none


class SampleKernel:
    """An engine's timing graph as arrays, propagated S samples at a time.

    Build it through ``StaEngine.sample_kernel()``, which keeps one per
    engine.  Gates are indexed in ``engine.nodes`` order: derate arrays are
    ``(n_gates, S)`` in that order.
    """

    def __init__(self, engine: StaEngine) -> None:
        nodes = engine.nodes
        n_gates = len(nodes)
        ids: Dict[Tuple[str, str], int] = {}
        level: List[int] = []  # per node id
        #: the ``(net, transition)`` key of each node id, in the order the
        #: scalar engine first writes them
        self.keys: List[Tuple[str, str]] = []

        def add(key: Tuple[str, str], at: int) -> int:
            ids[key] = len(level)
            level.append(at)
            self.keys.append(key)
            return ids[key]

        for net in engine.netlist.inputs:
            for transition in TRANSITIONS:
                add((net, transition), 0)
        self._inputs = np.arange(len(level))
        launch: List[int] = []
        launch_row: List[int] = []  # rows of the stacked (rise; fall) scales
        clk_to_q: List[float] = []
        # (level, merge position, input id, output id, scale row,
        #  delay table, slew table, output net, gate name)
        arcs: List[Tuple[int, int, int, int, int, TimingTable, TimingTable, str, str]] = []
        for g, node in enumerate(nodes):
            if node.lib_cell.is_sequential:
                for fall, transition in enumerate(TRANSITIONS):
                    launch.append(add((node.out_net, transition), 0))
                    launch_row.append(g + fall * n_gates)
                    clk_to_q.append(node.lib_cell.clk_to_q)
                continue
            # What the scalar loop finds present when it reaches this gate,
            # each output transition in the order the loop first writes it.
            feeds: Dict[str, List[Tuple[int, TimingArc]]] = {}
            for in_net, arc in node.arcs:
                for in_transition in TRANSITIONS:
                    in_id = ids.get((in_net, in_transition))
                    if in_id is not None:
                        for out_transition in arc.output_transitions(in_transition):
                            feeds.setdefault(out_transition, []).append((in_id, arc))
            for transition, feed in feeds.items():
                at = 1 + max(level[in_id] for in_id, _ in feed)
                out_id = add((node.out_net, transition), at)
                row = g + TRANSITIONS.index(transition) * n_gates
                for position, (in_id, arc) in enumerate(feed):
                    arcs.append((at, position, in_id, out_id, row,
                                 *arc.tables_for(transition), node.out_net, node.name))
        arcs.sort(key=lambda a: (a[0], a[1]))
        #: each arc row's predecessor prefix (input net, input transition, gate)
        self.arc_inputs: List[Tuple[str, str, str]] = [(*self.keys[a[2]], a[8]) for a in arcs]
        self._arc_out = np.array([a[3] for a in arcs], dtype=np.int64)
        self.n_nodes = len(level)
        self._launch = np.array(launch, dtype=np.int64)
        self._launch_row = np.array(launch_row, dtype=np.int64)
        self._clk_to_q = np.array(clk_to_q)[:, None]

        # Tables, their values transposed to (table, load, slew), and axes.
        table_index: Dict[int, int] = {}
        tables: List[TimingTable] = []
        delay_ids: List[int] = []
        slew_ids: List[int] = []
        for arc in arcs:
            for table, out in zip(arc[5:7], (delay_ids, slew_ids)):
                if id(table) not in table_index:
                    table_index[id(table)] = len(tables)
                    tables.append(table)
                out.append(table_index[id(table)])
        n_slews = max((len(t.slews) for t in tables), default=0)
        n_loads = max((len(t.loads) for t in tables), default=0)
        values = np.zeros((len(tables), n_loads, n_slews))
        for k, table in enumerate(tables):
            values[k, :len(table.loads), :len(table.slews)] = np.array(table.values).T
        self._values = values.ravel()  # v[i][j] of table k at (k*n_loads + j)*n_slews + i
        self._n_slews = n_slews
        delay_table = np.array(delay_ids, dtype=np.int64)
        slew_table = np.array(slew_ids, dtype=np.int64)
        self._delay_base = (delay_table * n_loads * n_slews)[:, None]
        self._slew_base = (slew_table * n_loads * n_slews)[:, None]
        slew_axis, slew_bank = _intern([t.slews for t in tables])
        load_axis, load_bank = _intern([t.loads for t in tables])
        self._delay_load_axes = load_bank.rows(load_axis[delay_table])
        self._slew_load_axes = (None if np.array_equal(load_axis[delay_table],
                                                   load_axis[slew_table])
                            else load_bank.rows(load_axis[slew_table]))
        self._scale_row = np.array([a[4] for a in arcs], dtype=np.int64)

        # Loads: the nets the arcs drive, most sinks first, so the k-th
        # sink of every net with more than k sinks is one leading slice.
        nets = sorted(dict.fromkeys(a[7] for a in arcs),
                      key=lambda net: -len(engine._loads.get(net, ())))
        net_index = {net: k for k, net in enumerate(nets)}
        self._arc_net = np.array([net_index[a[7]] for a in arcs], dtype=np.int64)
        gate_index = {node.name: g for g, node in enumerate(nodes)}
        loads = [engine._loads.get(net, []) for net in nets]
        self._sinks: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for k in range(len(loads[0]) if loads else 0):
            while len(loads[-1]) <= k:
                loads.pop()
            sinks = [net_loads[k] for net_loads in loads]
            self._sinks.append((len(sinks),
                                np.array([gate_index[name] for name, _ in sinks], dtype=np.int64),
                                np.array([cap for _, cap in sinks])[:, None]))
        model = engine.wire_model
        lengths = [engine._hpwl.get(net, 0.0) for net in nets]
        self._wire_cap = np.array([length * model.c_per_nm for length in lengths])[:, None]
        self._wired = np.array([k for k, length in enumerate(lengths) if length != 0.0],
                               dtype=np.int64)
        self._wire_r = np.array([lengths[k] * model.r_per_nm for k in self._wired])[:, None]
        self._wire_c_half = np.array(
            [lengths[k] * model.c_per_nm / 2 for k in self._wired])[:, None]
        outputs = set(engine.netlist.outputs)
        self._po = np.array([k for k, net in enumerate(nets) if net in outputs], dtype=np.int64)

        # Levels, each split by merge position.
        self._levels: List[_Level] = []
        shared_slews = np.array_equal(slew_axis[delay_table], slew_axis[slew_table])
        begin = 0
        for _, group in groupby(arcs, key=lambda a: a[0]):
            level_arcs = list(group)
            rows = slice(begin, begin + len(level_arcs))
            merges: List[Tuple[slice, np.ndarray]] = []
            for _, same in groupby(level_arcs, key=lambda a: a[1]):
                position = list(same)
                part = merges[-1][0].stop if merges else 0
                merges.append((slice(part, part + len(position)),
                               np.array([a[3] for a in position], dtype=np.int64)))
            self._levels.append(_Level(
                rows, np.array([a[2] for a in level_arcs], dtype=np.int64),
                slew_bank.rows(slew_axis[delay_table[rows]]),
                None if shared_slews else slew_bank.rows(slew_axis[slew_table[rows]]),
                merges))
            begin = rows.stop

        # Endpoints, in ``StaEngine._collect_endpoints`` order.
        ends: List[int] = []
        setup: List[float] = []
        for net in engine.netlist.outputs:
            for transition in TRANSITIONS:
                if (net, transition) in ids:
                    ends.append(ids[(net, transition)])
                    setup.append(0.0)
        for reg in engine.registers:
            for transition in TRANSITIONS:
                if (reg.d_net, transition) in ids:
                    ends.append(ids[(reg.d_net, transition)])
                    setup.append(reg.lib_cell.setup_time)
        self._ends = np.array(ends, dtype=np.int64)
        self._setup = np.array(setup)[:, None]

    def run(self, constraints: TimingConstraints, rise: np.ndarray,
            fall: np.ndarray, cap: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each sample's (WNS, critical delay), in ps.

        ``rise``, ``fall`` and ``cap`` are the ``(n_gates, S)`` delay-rise,
        delay-fall and cap scales of every gate, in ``engine.nodes`` order.
        """
        n = rise.shape[1]
        if n == 0:
            return np.empty(0), np.empty(0)
        if not len(self._ends):
            raise ValueError("no endpoints in STA result")
        arrival, _ = self._propagate(constraints, rise, fall, cap, None)
        ends = arrival[self._ends]
        slack = (constraints.clock_period_ps - self._setup) - ends
        samples = np.arange(n)
        return (slack[slack.argmin(axis=0), samples],
                ends[ends.argmax(axis=0), samples])

    def state(self, constraints: TimingConstraints, rise: np.ndarray,
              fall: np.ndarray, cap: np.ndarray) -> KernelState:
        """One sample's full timing state: ``StaEngine.run``'s arrivals,
        slews and predecessors as arrays over the node ids.

        ``rise``, ``fall`` and ``cap`` are ``(n_gates, 1)``.  A node's
        predecessor is the first arc row, in merge order, whose candidate
        equals the node's final arrival: the scalar ``candidate > current``
        rule keeps the first arc that reaches the maximum.
        """
        kept = np.empty((len(self._arc_out), 1)), np.empty((len(self._arc_out), 1))
        arrival, slew = self._propagate(constraints, rise, fall, cap, kept)
        candidate, delay = kept[0][:, 0], kept[1][:, 0]
        hit = np.flatnonzero(candidate == arrival[self._arc_out, 0])
        outs, first = np.unique(self._arc_out[hit], return_index=True)
        winner = np.full(self.n_nodes, -1, dtype=np.int64)
        winner[outs] = hit[first]
        # winner -1 picks the appended 0.0
        return KernelState(arrival[:, 0], slew[:, 0], winner, np.append(delay, 0.0)[winner])

    def _propagate(self, constraints: TimingConstraints, rise: np.ndarray,
                   fall: np.ndarray, cap: np.ndarray,
                   kept: Optional[Tuple[np.ndarray, np.ndarray]]
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(n_nodes, S)`` arrivals and slews; with ``kept``, also each
        arc row's candidate arrival and delay, written into its two arrays."""
        n = rise.shape[1]
        arrival = np.empty((self.n_nodes, n))
        slew = np.empty((self.n_nodes, n))
        arrival[self._inputs] = constraints.input_arrival_ps
        slew[self._inputs] = constraints.input_slew_ps
        scales = np.concatenate((rise, fall))
        arrival[self._launch] = self._clk_to_q * scales[self._launch_row]
        slew[self._launch] = constraints.input_slew_ps

        # Everything that depends on the loads only, for every arc at once.
        load = np.zeros((len(self._wire_cap), n))
        for count, gates, caps in self._sinks:
            load[:count] += caps * cap[gates]
        load += self._wire_cap
        load[self._po] += constraints.output_load_ff
        wire = np.zeros_like(load)
        wire[self._wired] = self._wire_r * (self._wire_c_half + load[self._wired])
        arc_load = load[self._arc_net]
        arc_wire = wire[self._arc_net]
        arc_scale = scales[self._scale_row]
        j0, j1, tj = _bracket(arc_load, self._delay_load_axes)
        delay_at = (self._delay_base + j0 * self._n_slews,
                    self._delay_base + j1 * self._n_slews, 1 - tj, tj)
        if self._slew_load_axes is not None:
            j0, j1, tj = _bracket(arc_load, self._slew_load_axes)
        slew_at = (self._slew_base + j0 * self._n_slews,
                   self._slew_base + j1 * self._n_slews, 1 - tj, tj)

        for level in self._levels:
            rows = level.arcs
            x = slew[level.inputs]
            i0, i1, ti = _bracket(x, level.delay_axes)
            delay = (_lookup(self._values, delay_at, rows, i0, i1, ti) * arc_scale[rows]
                     + arc_wire[rows])
            if level.slew_axes is not None:
                i0, i1, ti = _bracket(x, level.slew_axes)
            out_slew = _lookup(self._values, slew_at, rows, i0, i1, ti)
            candidate = arrival[level.inputs] + delay
            if kept is not None:
                kept[0][rows] = candidate
                kept[1][rows] = delay
            (first, out), *rest = level.merges
            arrival[out] = candidate[first]
            slew[out] = out_slew[first]
            for part, out in rest:
                now = arrival[out]
                new = candidate[part]
                wins = new > now
                arrival[out] = np.where(wins, new, now)
                merged = out_slew[part]
                slew[out] = np.where(wins, merged, np.maximum(slew[out], merged))
        return arrival, slew


def derate_columns(engine: StaEngine, derates: Mapping[str, InstanceDerate]
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each gate's (rise, fall, cap) scales as ``(n_gates, 1)`` columns in
    ``engine.nodes`` order, 1.0 where ``derates`` has no entry (``1.0 * x
    == x``, so a missing base derate composes exactly).  Entries that name
    no gate are ignored, as the scalar engine ignores them."""
    scales = [(1.0, 1.0, 1.0) if d is None
              else (d.delay_rise_scale, d.delay_fall_scale, d.cap_scale)
              for d in map(derates.get, [node.name for node in engine.nodes])]
    flat = np.fromiter(chain.from_iterable(scales), np.float64, 3 * len(scales))
    rise, fall, cap = flat.reshape(-1, 3).T.copy()[:, :, None]
    return rise, fall, cap


def _intern(axes: Sequence[Axis]) -> Tuple[np.ndarray, _AxisBank]:
    """Each axis's index among the distinct axes, and those axes stacked."""
    index: Dict[Axis, int] = {}
    ids = np.array([index.setdefault(axis, len(index)) for axis in axes], dtype=np.int64)
    return ids, _AxisBank(list(index))
