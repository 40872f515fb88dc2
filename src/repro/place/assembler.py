"""Assembly of a placed netlist into a hierarchical layout.

``assemble_layout`` produces the GDS-ready :class:`~repro.gds.Layout` (one
structure per distinct library cell plus a flat top cell of SREFs), and
``instance_gate_rects`` maps every transistor of every placed gate to its
absolute gate region — the measurement sites for post-OPC CD extraction —
and ``instance_poly_layer`` flattens the placed poly shapes for litho.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cells import CellLibrary
from repro.circuits import Netlist
from repro.gds import Layout
from repro.geometry import Polygon, Rect, Transform
from repro.pdk import Layers
from repro.place.placer import Placement

TOP_CELL = "CHIP"

#: key: (gate instance name, transistor name)
GateRectMap = Dict[Tuple[str, str], Rect]


def assemble_layout(
    netlist: Netlist, library: CellLibrary, placement: Placement
) -> Layout:
    """Build the full-chip layout for a placement."""
    layout = Layout(name=netlist.name.upper())
    used_cells = {p.cell_name for p in placement.gates.values()}
    for cell_name in sorted(used_cells):
        layout.add_cell(library[cell_name].layout)
    top = layout.new_cell(TOP_CELL)
    for gate_name in sorted(placement.gates):
        placed = placement.gates[gate_name]
        top.add_instance(placed.cell_name, placed.transform)
    return layout


def instance_gate_rects(
    netlist: Netlist, library: CellLibrary, placement: Placement
) -> GateRectMap:
    """Absolute gate rectangles of every transistor of every placed gate.

    Transforms can mirror/rotate, so the cell-local gate rect is mapped
    through the instance transform and re-normalized to an axis-aligned
    rect (gate rects are axis-aligned in all eight Manhattan orientations).
    Each cell's rects are oriented once per orientation and then only
    translated per instance: ``Transform.apply_rect`` orients exactly, and
    rounding is monotone, so ``min(a, b) + dx == min(a + dx, b + dx)``.
    """
    oriented: Dict[Tuple[str, int, bool], List[Tuple[str, Rect]]] = {}
    rects: GateRectMap = {}
    for gate_name, placed in placement.gates.items():
        transform = placed.transform
        key = (placed.cell_name, transform.rotation, transform.mirror_x)
        shapes = oriented.get(key)
        if shapes is None:
            orient = Transform(rotation=transform.rotation, mirror_x=transform.mirror_x)
            shapes = oriented[key] = [
                (transistor.name, orient.apply_rect(transistor.gate_rect))
                for transistor in library[placed.cell_name].transistors]
        for name, rect in shapes:
            rects[(gate_name, name)] = rect.translated(transform.dx, transform.dy)
    return rects


def instance_poly_layer(
    library: CellLibrary, placement: Placement
) -> List[Tuple[str, Polygon]]:
    """The flat poly layer: every placed gate's poly shapes, in gate-name
    order, each tagged with its gate.

    Equal, vertex for vertex, to ``transform.apply_polygon`` per shape:
    each cell's shapes are oriented and normalised once per orientation,
    then translated per instance (:meth:`Polygon.translated`, which keeps
    the vertex order).
    """
    oriented: Dict[Tuple[str, int, bool], List[Polygon]] = {}
    owned: List[Tuple[str, Polygon]] = []
    for gate_name in sorted(placement.gates):
        placed = placement.gates[gate_name]
        transform = placed.transform
        key = (placed.cell_name, transform.rotation, transform.mirror_x)
        shapes = oriented.get(key)
        if shapes is None:
            orient = Transform(rotation=transform.rotation, mirror_x=transform.mirror_x)
            shapes = oriented[key] = [
                orient.apply_polygon(poly)
                for poly in library[placed.cell_name].layout.polygons_on(Layers.POLY)]
        owned.extend((gate_name, poly.translated(transform.dx, transform.dy))
                     for poly in shapes)
    return owned
