"""E1 (Fig. 1): residual OPC error distribution.

Reconstructs the paper's "extracting residual OPC errors" figure: the EPE
distribution over a standard-cell poly context for no OPC, rule-based OPC
and model-based OPC.  Model OPC shrinks but does not eliminate the error —
the residual is what the flow back-annotates.
"""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.opc import apply_model_opc, apply_rule_opc, run_orc
from repro.pdk import Layers


@pytest.fixture(scope="module")
def cell_row_polys(library):
    """A row of three cells: the litho context of a placed design."""
    polys = []
    x = 0.0
    for name in ("NAND2_X1", "INV_X1", "NAND3_X1"):
        cell = library[name]
        for poly in cell.layout.polygons_on(Layers.POLY):
            polys.append(poly.translated(x, 0.0))
        x += cell.width
    return polys


@pytest.fixture(scope="module")
def masks(simulator, cell_row_polys):
    rule = apply_rule_opc(cell_row_polys)
    model = apply_model_opc(simulator, cell_row_polys).polygons
    return {"none": cell_row_polys, "rule": rule, "model": model}


def test_e1_epe_distribution(benchmark, simulator, cell_row_polys, masks):
    reports = {
        mode: run_orc(simulator, mask, cell_row_polys)
        for mode, mask in masks.items()
    }

    rows = []
    for mode in ("none", "rule", "model"):
        r = reports[mode]
        epes = np.asarray(r.epes)
        rows.append((
            mode, len(epes), f"{epes.mean():+.2f}", f"{r.rms_epe:.2f}",
            f"{r.max_epe:.2f}", len(r.violations),
        ))
    print()
    print(format_table(
        ["opc", "sites", "mean EPE (nm)", "rms EPE (nm)", "max |EPE| (nm)",
         "ORC violations"],
        rows,
        title="E1: residual edge-placement error by OPC recipe",
    ))

    # Shape assertions: every correction level strictly improves RMS EPE.
    assert reports["rule"].rms_epe < reports["none"].rms_epe
    assert reports["model"].rms_epe < reports["rule"].rms_epe
    assert reports["model"].rms_epe > 0.2  # but residual never vanishes

    benchmark.extra_info["rms_epe_model"] = reports["model"].rms_epe
    benchmark(run_orc, simulator, masks["rule"], cell_row_polys)
