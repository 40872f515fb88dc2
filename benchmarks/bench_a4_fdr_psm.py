"""Ablation A4: flexible design rules and the attenuated-PSM option.

Two extension studies tied to the authors' companion work:

* the FDR exploration — classifying gate-layer pitches by image
  parameters (NILS, MEEF, CD fidelity) instead of one minimum-pitch rule;
* binary mask vs 6% attenuated PSM at the anchor pitch.
"""

import dataclasses

from repro.analysis import format_table
from repro.dfm import explore_pitch_rules
from repro.litho import LithographySimulator, grating_meef, grating_nils


def test_a4_flexible_design_rules(benchmark, simulator, tech):
    pitches = [320, 400, 480, 640, 960, 1600]
    verdicts = explore_pitch_rules(simulator, tech.rules.gate_length, pitches)

    rows = [
        (f"{v.pitch:.0f}", f"{v.printed_cd:.1f}", f"{v.cd_error:+.1f}",
         f"{v.nils:.2f}", f"{v.meef:.2f}", v.classification)
        for v in verdicts
    ]
    print()
    print(format_table(
        ["pitch (nm)", "printed CD", "CD err (nm)", "NILS", "MEEF", "class"],
        rows,
        title="A4a: flexible design rules for the 90 nm gate layer (no OPC)",
    ))

    by_pitch = {v.pitch: v for v in verdicts}
    assert by_pitch[320].classification in ("preferred", "allowed")
    # Somewhere in the sweep the simple fixed rule would hide a bad pitch.
    assert any(v.classification == "flagged" for v in verdicts)

    benchmark(grating_nils, simulator, 90.0, 320.0)


def test_a4_attpsm_vs_binary(tech, simulator, benchmark):
    psm_settings = dataclasses.replace(tech.litho, mask_type="attpsm")
    psm = LithographySimulator(psm_settings)
    psm.calibrate_to_anchor(tech.rules.gate_length, tech.rules.poly_pitch)

    rows = []
    values = {}
    for name, sim in (("binary", simulator), ("attpsm 6%", psm)):
        nils = grating_nils(sim, 90, 320)
        meef = grating_meef(sim, 90, 320)
        values[name] = (nils, meef)
        rows.append((name, f"{sim.resist.threshold:.3f}", f"{nils:.2f}", f"{meef:.2f}"))
    print()
    print(format_table(
        ["mask", "threshold", "NILS", "MEEF"],
        rows,
        title="A4b: binary chrome vs attenuated PSM at the anchor pitch",
    ))

    assert values["attpsm 6%"][0] > 1.15 * values["binary"][0]

    benchmark(grating_meef, psm, 90.0, 320.0)
