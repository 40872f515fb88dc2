"""Golden window plans of c17 on the tile path.

Pins, for the metrology and model-OPC tile plans, each occupied window's
interior, the keys it owns and the size of its polygon context.  Four
c17 transistors have centers exactly on an interior tile edge; the
closed lower-wins rule of ``WindowGrid.locate`` keeps them in the lower
window, where the former first-tile-in-scan-order planner put them.
"""

import pytest

from repro.cells import build_library
from repro.circuits import c17
from repro.flow import FlowConfig, PostOpcTimingFlow
from repro.geometry import Rect
from repro.litho import plan_tile_grid
from repro.metrology import plan_metrology_tiles
from repro.opc import RuleOpcRecipe, apply_rule_opc
from repro.pdk import make_tech_90nm

#: (interior, owned gate keys, context polygon count) per metrology task
METROLOGY_PLAN = [
    ((267.0, 232.0, 1963.0, 1928.0),
     [("g_n10", "MN0"), ("g_n10", "MN1"), ("g_n11", "MN0"), ("g_n11", "MN1")],
     18),
    ((1963.0, 232.0, 3573.0, 1928.0),
     [("g_n16", "MN0"), ("g_n16", "MN1"), ("g_n19", "MN0"), ("g_n19", "MN1")],
     14),
    ((267.0, 1928.0, 1963.0, 3624.0),
     [("g_n10", "MP0"), ("g_n10", "MP1"), ("g_n11", "MP0"), ("g_n11", "MP1"),
      ("g_n22", "MP0"), ("g_n22", "MP1"), ("g_n23", "MP0"), ("g_n23", "MP1")],
     22),
    ((1963.0, 1928.0, 3573.0, 3624.0),
     [("g_n16", "MP0"), ("g_n16", "MP1"), ("g_n19", "MP0"), ("g_n19", "MP1")],
     16),
    ((267.0, 3624.0, 1963.0, 5320.0),
     [("g_n22", "MN0"), ("g_n22", "MN1"), ("g_n23", "MN0"), ("g_n23", "MN1")],
     15),
]

#: gate keys whose centers lie exactly on an interior tile edge
ON_EDGE = {("g_n22", "MN0"), ("g_n22", "MN1"), ("g_n23", "MN0"), ("g_n23", "MN1")}

#: (interior, owned target polygon indices, context polygon count) per
#: model-OPC task
OPC_PLAN = [
    ((-90.0, -90.0, 1606.0, 1606.0), [0, 1, 2, 3, 4, 5, 6, 7], 4),
    ((1606.0, -90.0, 3302.0, 1606.0), [8, 9, 10, 11, 12, 13], 8),
    ((3302.0, -90.0, 3930.0, 1606.0), [14, 15], 6),
    ((-90.0, 3302.0, 1606.0, 4998.0), [16, 17, 18, 19, 20, 21, 22, 23], 6),
]


def _box(rect):
    return (rect.x0, rect.y0, rect.x1, rect.y1)


@pytest.fixture(scope="module")
def flow():
    tech = make_tech_90nm()
    lib = build_library(tech)
    return PostOpcTimingFlow(c17(lib), tech, cells=lib)


@pytest.fixture(scope="module")
def drawn(flow):
    return [poly for _, poly in flow.owned_polygons]


def test_metrology_tile_plan(flow, drawn):
    tasks = plan_metrology_tiles(flow.simulator, drawn, flow.gate_rects)
    plan = [(_box(t.spec.interior), [key for key, _ in t.gate_rects],
             len(t.polygons)) for t in tasks]
    assert plan == METROLOGY_PLAN


def test_edge_gates_keep_lower_owner(flow, drawn):
    tasks = plan_metrology_tiles(flow.simulator, drawn, flow.gate_rects)
    # the planner's default region: the gates' bbox plus one pixel
    region = Rect.bounding(flow.gate_rects.values()).expanded(
        flow.simulator.settings.pixel_nm)
    grid = plan_tile_grid(flow.simulator, region)
    inner_x, inner_y = set(grid.xs[1:-1]), set(grid.ys[1:-1])
    on_edge = {key for key, rect in flow.gate_rects.items()
               if rect.center.x in inner_x or rect.center.y in inner_y}
    assert on_edge == ON_EDGE
    owner = {key: task.spec.interior for task in tasks
             for key, _ in task.gate_rects}
    for key in ON_EDGE:
        center = flow.gate_rects[key].center
        # the owner's upper edge is the shared one: the lower window won
        assert center.x == owner[key].x1 or center.y == owner[key].y1


def test_model_opc_tile_plan(flow, drawn):
    base = apply_rule_opc(drawn, RuleOpcRecipe.for_tech(flow.tech))
    grid, plan = flow._opc_plan(base, range(len(base)), FlowConfig())
    got = [(_box(grid.interior(window)), local,
            len([k for k in context if k not in local]))
           for window, local, context in plan]
    assert got == OPC_PLAN
