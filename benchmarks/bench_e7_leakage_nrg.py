"""E7 (Fig. 4): leakage from non-rectangular gates.

Substrate result from the cited companion work (Poppe et al., "From poly
line to transistor"): a printed gate needs *different* equivalent lengths
for delay and for leakage.  Using the mid-gate CD alone underestimates
leakage because the narrowest slices dominate the exponential.
"""

import numpy as np

from repro.analysis import format_table
from repro.device import extract_equivalent_lengths


def test_e7_leakage_nrg(benchmark, c17_flow, c17_reports, device_model):
    report = c17_reports["none"]  # biggest CD distortion: clearest effect
    measurements = {k: m for k, m in report.measurements.items() if m.printed}

    per_gate = []
    leak_nrg_total = leak_mid_total = leak_drawn_total = 0.0
    for (gate, tname), m in measurements.items():
        transistor = c17_flow.cells[
            c17_flow.netlist.gates[gate].cell_name
        ].transistor(tname)
        nrg = extract_equivalent_lengths(m, device_model, width=transistor.width)
        leak_nrg = device_model.leakage_current(transistor.width, nrg.length_leakage)
        leak_mid = device_model.leakage_current(transistor.width, m.mid_cd)
        leak_drawn = device_model.leakage_current(transistor.width, m.drawn_cd)
        leak_nrg_total += leak_nrg
        leak_mid_total += leak_mid
        leak_drawn_total += leak_drawn
        per_gate.append((nrg.length_drive, nrg.length_leakage, m.cd_range))

    drive_els = np.array([x[0] for x in per_gate])
    leak_els = np.array([x[1] for x in per_gate])
    print()
    print(format_table(
        ["model", "total leakage (nA)", "vs drawn"],
        [
            ("drawn rectangles", f"{leak_drawn_total * 1e9:.2f}", "1.00x"),
            ("mid-gate single CD", f"{leak_mid_total * 1e9:.2f}",
             f"{leak_mid_total / leak_drawn_total:.2f}x"),
            ("slice-based NRG (leakage EL)", f"{leak_nrg_total * 1e9:.2f}",
             f"{leak_nrg_total / leak_drawn_total:.2f}x"),
        ],
        title="E7: leakage of the un-OPC'd c17 under three gate models",
    ))
    print()
    print(f"mean drive EL {drive_els.mean():.2f} nm, "
          f"mean leakage EL {leak_els.mean():.2f} nm "
          f"(leakage EL is shorter: narrow slices dominate)")
    print(f"mean within-gate CD range {np.mean([x[2] for x in per_gate]):.2f} nm")

    # Shape: leakage EL <= drive EL for every gate; NRG total >= mid-CD total.
    assert (leak_els <= drive_els + 1e-6).all()
    assert leak_nrg_total >= 0.98 * leak_mid_total
    assert leak_nrg_total > 1.2 * leak_drawn_total  # thin gates leak hard

    sample = next(iter(measurements.values()))
    benchmark(extract_equivalent_lengths, sample, device_model)
