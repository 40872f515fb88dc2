"""E10 (Table 4): equivalent-length extraction accuracy.

The multi-slice extraction versus the mid-gate single cut that a plain
CD-SEM measurement would give: error in the predicted drive and leakage
currents for characteristic printed-gate shapes (bowed, necked, flared,
tilted).  The single-cut model misestimates exactly when the gate is
non-rectangular — the case the flow exists for.
"""

import pytest

from repro.analysis import format_table
from repro.device import equivalent_length_drive, equivalent_length_leakage

PROFILES = {
    "uniform":  [88, 88, 88, 88, 88],
    "bowed":    [94, 89, 86, 89, 94],   # endcap flare, thin middle
    "necked":   [90, 90, 74, 90, 90],   # local pinch
    "flared":   [90, 92, 96, 104, 116], # near the gate contact pad
    "tilted":   [82, 86, 90, 94, 98],   # focus/astigmatism gradient
}
WIDTH_PER_SLICE = 80.0


def reference_currents(cds, model):
    """Ground truth: sum the slice devices directly."""
    drive = sum(model.drive_current(WIDTH_PER_SLICE, cd) for cd in cds)
    leak = sum(model.leakage_current(WIDTH_PER_SLICE, cd) for cd in cds)
    return drive, leak


def test_e10_el_accuracy(benchmark, device_model):
    total_width = 5 * WIDTH_PER_SLICE
    rows = []
    worst_single_cut_leak_error = 0.0
    for name, cds in PROFILES.items():
        widths = [WIDTH_PER_SLICE] * len(cds)
        ref_drive, ref_leak = reference_currents(cds, device_model)

        el_drive = equivalent_length_drive(cds, widths, device_model)
        el_leak = equivalent_length_leakage(cds, widths, device_model)
        nrg_drive = device_model.drive_current(total_width, el_drive)
        nrg_leak = device_model.leakage_current(total_width, el_leak)

        mid = cds[len(cds) // 2]
        single_drive = device_model.drive_current(total_width, mid)
        single_leak = device_model.leakage_current(total_width, mid)

        err = lambda got, ref: 100.0 * (got - ref) / ref
        leak_err_single = err(single_leak, ref_leak)
        worst_single_cut_leak_error = max(worst_single_cut_leak_error,
                                          abs(leak_err_single))
        rows.append((
            name,
            f"{el_drive:.1f}/{el_leak:.1f}",
            f"{err(nrg_drive, ref_drive):+.2f}%",
            f"{err(single_drive, ref_drive):+.2f}%",
            f"{err(nrg_leak, ref_leak):+.2f}%",
            f"{leak_err_single:+.2f}%",
        ))

        # NRG equivalents must reproduce the slice ground truth exactly
        # (that is their defining equation).
        assert nrg_drive == pytest.approx(ref_drive, rel=1e-3)
        assert nrg_leak == pytest.approx(ref_leak, rel=1e-3)

    print()
    print(format_table(
        ["profile", "EL drive/leak (nm)", "NRG drive err", "1-cut drive err",
         "NRG leak err", "1-cut leak err"],
        rows,
        title="E10: slice-based NRG model vs mid-gate single-cut model",
    ))

    # The single cut is exact for the uniform gate but misses badly on the
    # necked/flared shapes (leakage above all).
    assert worst_single_cut_leak_error > 15.0

    cds = PROFILES["flared"]
    benchmark(equivalent_length_leakage, cds, [WIDTH_PER_SLICE] * 5, device_model)
