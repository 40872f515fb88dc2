"""The batched timing kernel: ``StaEngine.run`` with a sample axis.

``SampleKernel`` compiles an engine's timing graph (``engine.nodes``) once
into integer-indexed arrays.  It then propagates ``(n_nodes, S)`` arrival
and slew arrays level by level.  ``run`` takes S samples at a time
(Monte-Carlo draws or corners) and returns each sample's WNS and critical
delay.  ``state`` takes one sample and returns the whole timing state:
arrivals, slews and each node's winning arc, from which
``run_incremental`` rebuilds ``StaEngine.run``'s result dicts for a large
what-if.  Both run the one level loop, ``_propagate``; only ``state``
keeps each arc's delay.

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
- an output's arcs sit in consecutive rows in merge order and merge in
  three segmented reductions (``_merge``) that keep the scalar engine's
  order-dependent slew merge.

Which ``(net, transition)`` nodes exist and which arcs feed them does not
depend on the derates, so the graph is fixed when the kernel is built.
The scalar engine stays the oracle, the drawn-STA and hold path, and the
what-if path for small cones.
"""

from __future__ import annotations

from itertools import groupby
from typing import (TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, TypeVar, Union)

import numpy as np

from repro.timing.liberty import TRANSITIONS, TimingArc, TimingTable

if TYPE_CHECKING:
    from repro.timing.sta import InstanceDerate, StaEngine, TimingConstraints

Axis = Tuple[float, ...]
T = TypeVar("T")


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
    inside = x < axes.last
    inner = (x > axes.first) & inside
    edge = np.where(inside, 0, axes.top)  # outside ``inner``, ``x < last`` means below
    hi = np.empty(x.shape, dtype=np.int64)
    for axis, rows in axes.groups:
        hi[rows] = np.searchsorted(axis, x[rows], side="right")  # bisect_right
    lo = hi - 1
    at = axes.start + lo
    a_lo = axes.guarded.take(at)
    t = np.where(inner, (x - a_lo) / (axes.guarded.take(at + 1) - a_lo), 0.0)
    return np.where(inner, lo, edge), np.where(inner, hi, edge), t


def _lookup(values: np.ndarray, at: np.ndarray, weight: np.ndarray,
            i0: np.ndarray, i1: np.ndarray, ti: np.ndarray) -> np.ndarray:
    """``TimingTable.lookup`` for a level's arcs on their delay and their
    slew tables at once: ``(2, rows, S)``, the delay first.

    ``at`` holds each arc's flat index of ``v[0][j0]`` and ``v[0][j1]``, and
    ``weight`` its ``1 - tj`` and ``tj``: ``(2, 2, rows, S)``, the table
    second.  The slew side ``i0``, ``i1`` and ``ti`` are ``(rows, S)`` when
    both tables share their slew axis, else ``(2, rows, S)``."""
    (j0, j1), (u, tj) = at, weight
    bottom = values.take(j0 + i0) * u + values.take(j1 + i0) * tj
    top = values.take(j0 + i1) * u + values.take(j1 + i1) * tj
    return bottom * (1 - ti) + top * ti


_NO_ROW = np.iinfo(np.int64).max  # above every row id


def _merge(candidate: np.ndarray, out_slew: np.ndarray, row: np.ndarray,
           starts: np.ndarray, segment: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each output's merged arrival, slew and winning row, ``(outputs, S)``.

    An output's arcs are consecutive rows from its ``starts`` entry, in merge
    order; ``segment`` names each row's output and ``row`` its id, ``(rows,
    1)`` ascending.  The arrival is the max candidate, the winner the first
    row attaining it, and the slew the max over the rows from the winner on:
    the scalar ``candidate > current`` merge, in which a later arc that wins
    on arrival replaces the slew merged so far."""
    best = np.maximum.reduceat(candidate, starts)
    first = np.minimum.reduceat(
        np.where(candidate == best.take(segment, axis=0), row, _NO_ROW), starts)
    onward = row >= first.take(segment, axis=0)
    return best, np.maximum.reduceat(np.where(onward, out_slew, -np.inf), starts), first


class _Level(NamedTuple):
    """The arcs feeding one level's outputs, each output's arcs consecutive."""

    arcs: slice                # rows of the kernel's per-arc arrays
    row: np.ndarray            # (arcs, 1) the same rows as ids
    inputs: np.ndarray         # input node id per arc
    scale_row: np.ndarray      # the row of its gate's rise or fall scale, per arc
    net: np.ndarray            # its output net's load index, per arc
    pair: np.ndarray           # (2, arcs) its delay and slew table's load pair
    table_base: np.ndarray     # (2, arcs, 1) where those tables start in the values
    delay_axes: _Axes          # the delay tables' slew axes
    slew_axes: Optional[_Axes]  # the slew tables' slew axes; None if the same
    outputs: np.ndarray        # the level's output ids, in row order
    starts: np.ndarray         # each output's first level-local row
    segment: np.ndarray        # each row's index into ``outputs``


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
        arcs.sort(key=lambda a: (a[0], a[3], a[1]))
        #: each arc row's predecessor prefix (input net, input transition, gate)
        self.arc_inputs: List[Tuple[str, str, str]] = [(*self.keys[a[2]], a[8]) for a in arcs]
        self._arc_out = np.array([a[3] for a in arcs], dtype=np.int64)
        self.n_nodes = len(level)
        self._launch = np.array(launch, dtype=np.int64)
        self._launch_row = np.array(launch_row, dtype=np.int64)
        self._clk_to_q = np.array(clk_to_q)[:, None]

        # Tables, their values transposed to (table, load, slew), and axes.
        by_id = {id(table): table for a in arcs for table in a[5:7]}
        tables = list(by_id.values())
        table_index = {key: k for k, key in enumerate(by_id)}
        n_slews = max((len(t.slews) for t in tables), default=0)
        n_loads = max((len(t.loads) for t in tables), default=0)
        values = np.zeros((len(tables), n_loads, n_slews))
        for k, table in enumerate(tables):
            values[k, :len(table.loads), :len(table.slews)] = np.array(table.values).T
        self._values = values.ravel()  # v[i][j] of table k at (k*n_loads + j)*n_slews + i
        self._n_slews = n_slews
        delay_table, slew_table = (np.array([table_index[id(a[k])] for a in arcs], dtype=np.int64)
                                   for k in (5, 6))
        table_base = (np.stack((delay_table, slew_table)) * n_loads * n_slews)[:, :, None]
        slew_axis, slew_bank = _intern([t.slews for t in tables])
        scale_row = np.array([a[4] for a in arcs], dtype=np.int64)

        # Loads: the nets the arcs drive, most sinks first, so the k-th
        # sink of every net with more than k sinks is one leading slice.
        nets = sorted(dict.fromkeys(a[7] for a in arcs),
                      key=lambda net: -len(engine._loads.get(net, ())))
        net_index = {net: k for k, net in enumerate(nets)}
        arc_net = np.array([net_index[a[7]] for a in arcs], dtype=np.int64)
        # The load side brackets once per (net, load axis) pair.
        load_axis, load_bank = _intern([t.loads for t in tables])
        n_axes = len(load_bank.axes)
        pairs, pair = np.unique(arc_net * n_axes + load_axis[np.stack((delay_table, slew_table))],
                                return_inverse=True)
        #: each arc's (delay, slew) table's pair: (2, arcs)
        self._pair = pair = pair.reshape(2, -1)
        self._pair_net = pairs // max(n_axes, 1)
        self._pair_axes = load_bank.rows(pairs % max(n_axes, 1))
        gate_index = engine.gate_index()
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
        lengths = np.array([engine._hpwl.get(net, 0.0) for net in nets], dtype=np.float64)
        self._wire_cap = (lengths * model.c_per_nm)[:, None]
        self._wired = np.flatnonzero(lengths != 0.0)
        self._wire_r = (lengths[self._wired] * model.r_per_nm)[:, None]
        self._wire_c_half = (lengths[self._wired] * model.c_per_nm / 2)[:, None]
        outputs = set(engine.netlist.outputs)
        self._po = np.array([k for k, net in enumerate(nets) if net in outputs], dtype=np.int64)

        # Levels, each output's arcs one segment of consecutive rows.
        self._levels: List[_Level] = []
        shared_slews = np.array_equal(slew_axis[delay_table], slew_axis[slew_table])
        begin = 0
        for _, group in groupby(arcs, key=lambda a: a[0]):
            level_arcs = list(group)
            rows = slice(begin, begin + len(level_arcs))
            out = self._arc_out[rows]
            new = np.concatenate(([True], out[1:] != out[:-1]))
            self._levels.append(_Level(
                rows, np.arange(rows.start, rows.stop)[:, None],
                np.array([a[2] for a in level_arcs], dtype=np.int64), scale_row[rows],
                arc_net[rows], pair[:, rows], table_base[:, rows],
                slew_bank.rows(slew_axis[delay_table[rows]]),
                None if shared_slews else slew_bank.rows(slew_axis[slew_table[rows]]),
                out[new], np.flatnonzero(new), np.cumsum(new) - 1))
            begin = rows.stop

        # Endpoints, in ``StaEngine._collect_endpoints`` order.
        ends = [(net, t, None) for net in engine.netlist.outputs
                for t in TRANSITIONS if (net, t) in ids]
        ends += [(reg.d_net, t, reg.lib_cell.setup_time) for reg in engine.registers
                 for t in TRANSITIONS if (reg.d_net, t) in ids]
        #: each endpoint's net, transition and setup time (None at a primary
        #: output, which is required at the clock period itself)
        self.end_keys: List[Tuple[str, str, Optional[float]]] = ends
        #: each endpoint's node id
        self.end_nodes = np.array([ids[(net, t)] for net, t, _ in ends], dtype=np.int64)
        self._setup = np.array([0.0 if setup is None else setup for *_, setup in ends])[:, None]
        self._key_slots = dict.fromkeys(self.keys)

    def node_map(self, values: Sequence[T]) -> Dict[Tuple[str, str], T]:
        """``values``, one per node id, keyed by ``keys`` in their order.  A
        copy of a dict that already holds every key is filled in place,
        which skips the resizes of building the dict entry by entry."""
        filled = self._key_slots.copy()
        filled.update(zip(self.keys, values))
        return filled

    def run(self, constraints: TimingConstraints, rise: np.ndarray,
            fall: np.ndarray, cap: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each sample's (WNS, critical delay), in ps.

        ``rise``, ``fall`` and ``cap`` are the ``(n_gates, S)`` delay-rise,
        delay-fall and cap scales of every gate, in ``engine.nodes`` order.
        """
        n = rise.shape[1]
        if n == 0:
            return np.empty(0), np.empty(0)
        if not len(self.end_nodes):
            raise ValueError("no endpoints in STA result")
        arrival, _, _ = self._propagate(constraints, rise, fall, cap, None)
        ends = arrival[self.end_nodes]
        slack = (constraints.clock_period_ps - self._setup) - ends
        samples = np.arange(n)
        return (slack[slack.argmin(axis=0), samples],
                ends[ends.argmax(axis=0), samples])

    def state(self, constraints: TimingConstraints, rise: np.ndarray,
              fall: np.ndarray, cap: np.ndarray) -> KernelState:
        """One sample's full timing state: ``StaEngine.run``'s arrivals,
        slews and predecessors (each merge's winner, ``_merge``) as arrays
        over the node ids.  ``rise``, ``fall`` and ``cap`` are ``(n_gates, 1)``."""
        delay = np.zeros(len(self._arc_out) + 1)  # winner -1 picks the last 0.0
        arrival, slew, winner = self._propagate(constraints, rise, fall, cap, delay[:-1, None])
        return KernelState(arrival[:, 0], slew[:, 0], winner[:, 0], delay[winner[:, 0]])

    def _propagate(self, constraints: TimingConstraints, rise: np.ndarray,
                   fall: np.ndarray, cap: np.ndarray, kept: Optional[np.ndarray]
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(n_nodes, S)`` arrivals, slews and winning arc rows (-1 at
        inputs and register outputs); with ``kept``, also each arc row's
        delay, written into it."""
        n = rise.shape[1]
        arrival, slew = np.empty((2, self.n_nodes, n))
        winner = np.full((self.n_nodes, n), -1, dtype=np.int64)
        arrival[self._inputs] = constraints.input_arrival_ps
        slew[self._inputs] = constraints.input_slew_ps
        scales = np.concatenate((rise, fall))
        arrival[self._launch] = self._clk_to_q * scales.take(self._launch_row, axis=0)
        slew[self._launch] = constraints.input_slew_ps

        # Everything that depends on the loads only, once per (net, load axis) pair.
        load = np.zeros((len(self._wire_cap), n))
        for count, gates, caps in self._sinks:
            load[:count] += caps * cap.take(gates, axis=0)
        load += self._wire_cap
        load[self._po] += constraints.output_load_ff
        wire = np.zeros_like(load)
        wire[self._wired] = self._wire_r * (self._wire_c_half + load[self._wired])
        j0, j1, tj = _bracket(load.take(self._pair_net, axis=0), self._pair_axes)
        pair_at = np.stack((j0, j1)) * self._n_slews
        pair_weight = np.stack((1 - tj, tj))

        for level in self._levels:
            rows = level.arcs
            x = slew.take(level.inputs, axis=0)
            slew_side = _bracket(x, level.delay_axes)
            if level.slew_axes is not None:
                slew_side = tuple(map(np.stack, zip(slew_side, _bracket(x, level.slew_axes))))
            table_delay, out_slew = _lookup(
                self._values, level.table_base + pair_at.take(level.pair, axis=1),
                pair_weight.take(level.pair, axis=1), *slew_side)
            delay = (table_delay * scales.take(level.scale_row, axis=0)
                     + wire.take(level.net, axis=0))
            candidate = arrival.take(level.inputs, axis=0) + delay
            if kept is not None:
                kept[rows] = delay
            (arrival[level.outputs], slew[level.outputs],
             winner[level.outputs]) = _merge(candidate, out_slew, level.row,
                                             level.starts, level.segment)
        return arrival, slew, winner


def derate_columns(engine: StaEngine, derates: Mapping[str, InstanceDerate]
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each gate's (rise, fall, cap) scales as ``(n_gates, 1)`` columns in
    ``engine.nodes`` order, 1.0 where ``derates`` has no entry (``1.0 * x
    == x``, so a missing base derate composes exactly).  Entries that name
    no gate are ignored, as the scalar engine ignores them."""
    index = engine.gate_index()
    gates: List[int] = []
    rise: List[float] = []
    fall: List[float] = []
    cap: List[float] = []
    for name, derate in derates.items():
        g = index.get(name)
        if g is not None and derate is not None:
            gates.append(g)
            rise.append(derate.delay_rise_scale)
            fall.append(derate.delay_fall_scale)
            cap.append(derate.cap_scale)
    scales = np.ones((3, len(engine.nodes), 1))
    if gates:
        scales[:, gates, 0] = (rise, fall, cap)
    rise_column, fall_column, cap_column = scales
    return rise_column, fall_column, cap_column


def _intern(axes: Sequence[Axis]) -> Tuple[np.ndarray, _AxisBank]:
    """Each axis's index among the distinct axes, and those axes stacked."""
    index: Dict[Axis, int] = {}
    ids = np.array([index.setdefault(axis, len(index)) for axis in axes], dtype=np.int64)
    return ids, _AxisBank(list(index))
