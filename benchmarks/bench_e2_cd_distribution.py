"""E2 (Fig. 2): printed-vs-drawn gate-CD distribution across a placed design.

The "deriving actual (calibrated to silicon) CD values" result: per-
transistor printed CDs over the whole adder with an across-chip
dose/defocus map, split into systematic (context) and random components.
"""

from repro.analysis import format_histogram, format_table
from repro.metrology import measure_gate_cds
from repro.metrology.statistics import histogram_of_errors, systematic_random_split


def test_e2_cd_distribution(benchmark, adder_flow, adder_reports):
    report = adder_reports["rule"]
    stats = report.cd_stats

    print()
    print(format_table(
        ["metric", "value"],
        [
            ("measured transistors", stats.count),
            ("mean error (nm)", f"{stats.mean:+.2f}"),
            ("sigma (nm)", f"{stats.sigma:.2f}"),
            ("min / max (nm)", f"{stats.minimum:+.2f} / {stats.maximum:+.2f}"),
        ],
        title="E2: printed-minus-drawn gate CD (rule OPC + ACLV map)",
    ))
    print()
    print(format_histogram(histogram_of_errors(report.measurements, bin_width=1.0)))

    # Context signature: same cell, same transistor -> same systematic error.
    groups = {}
    for (gate, transistor), m in report.measurements.items():
        if not m.printed:
            continue
        cell_name = adder_flow.netlist.gates[gate].cell_name
        groups.setdefault((cell_name, transistor), []).append(m.error)
    sigma_sys, sigma_rand = systematic_random_split(groups)
    print()
    print(f"variance split: systematic (cell context) sigma = {sigma_sys:.2f} nm, "
          f"residual (ACLV + stitching) sigma = {sigma_rand:.2f} nm")

    assert stats.count == len(adder_flow.gate_rects)
    assert abs(stats.mean) < 5.0           # rule OPC keeps the population centered
    assert 0.2 < stats.sigma < 5.0         # but leaves real spread
    assert sigma_sys > 0

    # Kernel: CD metrology of one tile's worth of gates.
    from repro.geometry import Rect

    tile_rects = dict(list(adder_flow.gate_rects.items())[:16])
    region = Rect.bounding(tile_rects.values()).expanded(200)
    mask = [poly for _, poly in adder_flow.owned_polygons]
    latent = adder_flow.simulator.latent_image(mask, region)
    benchmark(
        measure_gate_cds, latent, adder_flow.simulator.resist.threshold, tile_rects
    )
