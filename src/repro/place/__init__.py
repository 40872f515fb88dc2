"""Row-based standard-cell placement and full-layout assembly."""

from repro.place.placer import Placement, PlacedGate, place_rows
from repro.place.assembler import assemble_layout, instance_gate_rects, instance_poly_layer

__all__ = ["Placement", "PlacedGate", "place_rows", "assemble_layout", "instance_gate_rects",
           "instance_poly_layer"]
