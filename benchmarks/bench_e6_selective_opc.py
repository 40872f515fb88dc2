"""E6 (Table 3): selective OPC on tagged critical gates.

The paper's proposal: "by passing design intent to process/OPC engineers,
selective OPC can be applied to improve CD variation control based on
gates' functions such as critical gates."  Selective mode holds the
critical gates at model-OPC accuracy for a fraction of the correction
cost.
"""

from repro.analysis import format_table
from repro.flow import FlowConfig


def test_e6_selective_opc(benchmark, c17_flow, c17_reports):
    rows = []
    critical_err = {}
    for mode in ("none", "rule", "selective", "model"):
        report = c17_reports[mode]
        critical = [
            abs(m.error) for (gate, _), m in report.measurements.items()
            if gate in report.critical_gates and m.printed
        ]
        critical_err[mode] = max(critical) if critical else float("nan")
        rows.append((
            mode,
            report.model_corrected_polygons,
            f"{report.runtimes['opc']:.1f}",
            f"{report.cd_stats.mean:+.2f}",
            f"{report.cd_stats.sigma:.2f}",
            f"{critical_err[mode]:.2f}",
            f"{report.wns_post:+.1f}",
        ))
    print()
    print(format_table(
        ["opc mode", "model polys", "opc time (s)", "CD mean (nm)",
         "CD sigma (nm)", "worst critical |err| (nm)", "post WNS (ps)"],
        rows,
        title="E6: selective OPC — timing quality vs correction cost (c17)",
    ))

    selective = c17_reports["selective"]
    model = c17_reports["model"]
    # Selective corrects strictly fewer polygons...
    assert 0 < selective.model_corrected_polygons < model.model_corrected_polygons
    # ...is cheaper than full model OPC...
    assert selective.runtimes["opc"] < model.runtimes["opc"]
    # ...and still beats plain rule OPC on the critical gates.
    assert critical_err["selective"] <= critical_err["rule"] + 0.5

    sta = c17_flow.engine.run()
    critical_gates = c17_flow.tag_critical_gates(sta, 1)
    benchmark(
        c17_flow.apply_opc,
        FlowConfig(opc_mode="selective", clock_period_ps=500.0, n_critical_paths=1),
        critical_gates,
    )
