"""Gate-level netlist with validation, ordering, and logic simulation.

Nets are plain strings.  Every net has exactly one driver (a primary input
or a gate output) and any number of loads.  Sequential cells (DFFs) break
combinational cycles: their outputs are treated as launch points and their
D pins as capture points, matching how the STA engine sees them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

from repro.cells import CellLibrary, StandardCell


@dataclass
class Gate:
    """One placed logic gate: a library cell with pin-to-net bindings."""

    name: str
    cell_name: str
    connections: Dict[str, str]  # pin name -> net name

    def net_on(self, pin: str) -> str:
        if pin not in self.connections:
            raise KeyError(f"gate {self.name} has no connection on pin {pin!r}")
        return self.connections[pin]


class NetlistError(Exception):
    """Structural problem in a netlist (multiple drivers, dangling nets...)."""


@dataclass
class Netlist:
    """A named gate-level netlist."""

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    gates: Dict[str, Gate] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    def add_input(self, net: str) -> str:
        if net in self.inputs:
            raise NetlistError(f"duplicate primary input {net!r}")
        self.inputs.append(net)
        return net

    def add_output(self, net: str) -> str:
        if net in self.outputs:
            raise NetlistError(f"duplicate primary output {net!r}")
        self.outputs.append(net)
        return net

    def add_gate(self, name: str, cell_name: str, connections: Mapping[str, str]) -> Gate:
        if name in self.gates:
            raise NetlistError(f"duplicate gate name {name!r}")
        gate = Gate(name, cell_name, dict(connections))
        self.gates[name] = gate
        return gate

    # -- structure queries ---------------------------------------------------

    def nets(self, library: CellLibrary) -> Set[str]:
        all_nets: Set[str] = set(self.inputs) | set(self.outputs)
        for gate in self.gates.values():
            all_nets.update(gate.connections.values())
        return all_nets

    def driver_of(self, net: str, library: CellLibrary) -> Optional[Gate]:
        """The gate driving ``net``, or None for a primary input."""
        for gate in self.gates.values():
            cell = library[gate.cell_name]
            if gate.connections.get(cell.output) == net:
                return gate
        return None

    def loads_of(self, net: str, library: CellLibrary) -> List[Gate]:
        """Gates with an input (or clock) pin on ``net``."""
        loads = []
        for gate in self.gates.values():
            cell = library[gate.cell_name]
            sink_pins = set(cell.inputs) | ({cell.clock} if cell.clock else set())
            for pin, bound in gate.connections.items():
                if bound == net and pin in sink_pins:
                    loads.append(gate)
                    break
        return loads

    def fanout_count(self, net: str, library: CellLibrary) -> int:
        count = len(self.loads_of(net, library))
        if net in self.outputs:
            count += 1
        return count

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def validate(self, library: CellLibrary) -> None:
        """Raise NetlistError on structural problems."""
        drivers: Dict[str, str] = {net: "<PI>" for net in self.inputs}
        for gate in self.gates.values():
            cell = library[gate.cell_name]
            expected = set(cell.inputs) | {cell.output} | ({cell.clock} if cell.clock else set())
            bound = set(gate.connections)
            if bound != expected:
                raise NetlistError(
                    f"gate {gate.name} ({cell.name}) pins {sorted(bound)} != {sorted(expected)}"
                )
            out_net = gate.connections[cell.output]
            if out_net in drivers:
                raise NetlistError(
                    f"net {out_net!r} driven by both {drivers[out_net]} and {gate.name}"
                )
            drivers[out_net] = gate.name
        for gate in self.gates.values():
            cell = library[gate.cell_name]
            for pin in cell.inputs:
                net = gate.connections[pin]
                if net not in drivers:
                    raise NetlistError(f"net {net!r} (gate {gate.name}.{pin}) has no driver")
        for net in self.outputs:
            if net not in drivers:
                raise NetlistError(f"primary output {net!r} has no driver")

    # -- ordering and simulation ---------------------------------------------

    def topological_gates(self, library: CellLibrary) -> List[Gate]:
        """Gates in evaluation order (see :meth:`topological_order`)."""
        return self.topological_order(
            {name: library[gate.cell_name] for name, gate in self.gates.items()})

    def topological_order(self, cell_of: Mapping[str, StandardCell]) -> List[Gate]:
        """Gates in evaluation order, each gate's cell already resolved
        (``cell_of`` maps gate name to cell).

        Sequential cell outputs are launch points: a DFF is ordered by its
        clock/D availability for *placement* purposes, but its output never
        feeds back a combinational dependency, so cycles through registers
        are legal.
        """
        driver_by_net: Dict[str, str] = {}
        for gate in self.gates.values():
            driver_by_net[gate.connections[cell_of[gate.name].output]] = gate.name

        dependents: Dict[str, List[str]] = {g: [] for g in self.gates}
        in_degree: Dict[str, int] = {g: 0 for g in self.gates}
        for gate in self.gates.values():
            cell = cell_of[gate.name]
            if cell.is_sequential:
                continue  # register outputs launch independently
            for pin in cell.inputs:
                driver = driver_by_net.get(gate.connections[pin])
                if driver is not None and not cell_of[driver].is_sequential:
                    dependents[driver].append(gate.name)
                    in_degree[gate.name] += 1

        # Sequential gates and gates fed only by PIs/registers start ready;
        # registers go first so their Q launches are available before any
        # combinational consumer is evaluated.
        queue = deque(sorted((g for g, deg in in_degree.items() if deg == 0),
                             key=lambda g: (0 if cell_of[g].is_sequential else 1, g)))
        order: List[Gate] = []
        while queue:
            name = queue.popleft()
            order.append(self.gates[name])
            for dep in dependents[name]:
                in_degree[dep] -= 1
                if in_degree[dep] == 0:
                    queue.append(dep)
        if len(order) != len(self.gates):
            raise NetlistError("combinational cycle detected")
        return order

    def simulate(
        self, library: CellLibrary, input_values: Mapping[str, bool],
        register_values: Optional[Mapping[str, bool]] = None,
    ) -> Dict[str, bool]:
        """Evaluate all net values for one input vector.

        ``register_values`` provides the current Q value per sequential gate
        name (default False).
        """
        values: Dict[str, bool] = {}
        for net in self.inputs:
            if net not in input_values:
                raise KeyError(f"no value for primary input {net!r}")
            values[net] = bool(input_values[net])
        registers = register_values or {}
        # Register outputs launch before any combinational evaluation (the
        # topological order does not sequence DFFs ahead of their fanout).
        for gate in self.gates.values():
            cell = library[gate.cell_name]
            if cell.is_sequential:
                values[gate.connections[cell.output]] = bool(registers.get(gate.name, False))
        for gate in self.topological_gates(library):
            cell = library[gate.cell_name]
            if cell.is_sequential:
                continue
            pin_values = {pin: values[gate.connections[pin]] for pin in cell.inputs}
            values[gate.connections[cell.output]] = cell.evaluate(pin_values)
        return values

    def logic_depth(self, library: CellLibrary) -> int:
        """Maximum number of combinational gates on any input-to-output path."""
        depth: Dict[str, int] = {net: 0 for net in self.inputs}
        best = 0
        for gate in self.topological_gates(library):
            cell = library[gate.cell_name]
            if cell.is_sequential:
                depth[gate.connections[cell.output]] = 0
                continue
            level = 1 + max(depth.get(gate.connections[pin], 0) for pin in cell.inputs)
            depth[gate.connections[cell.output]] = level
            best = max(best, level)
        return best

    def cell_usage(self) -> Dict[str, int]:
        usage: Dict[str, int] = {}
        for gate in self.gates.values():
            usage[gate.cell_name] = usage.get(gate.cell_name, 0) + 1
        return usage
