"""E3 (Table 1): speed-path criticality reordering.

The paper's first headline: after back-annotating post-OPC CDs, the speed
paths do not just shift — they *reorder*.  The vehicle is a random-logic
block whose top paths are nearly tied; the systematic, context-dependent
CD residuals (different cells print differently) change the ranking, and
the #1 speed path itself changes.
"""

from repro.analysis import format_table


def test_e3_path_reordering(benchmark, rand_flow, rand_reports):
    for mode in ("none", "rule"):
        report = rand_reports[mode]
        rows = []
        for net, before, after, move in report.rank.rows():
            rows.append((
                net,
                before + 1,
                after + 1,
                f"{_slack(report.drawn_sta, net):+.1f}",
                f"{_slack(report.post_sta, net):+.1f}",
                "<-- moved" if move else "",
            ))
        print()
        print(format_table(
            ["endpoint", "drawn rank", "post rank", "drawn slack (ps)",
             "post slack (ps)", ""],
            rows,
            title=f"E3: speed-path ranking, drawn vs post-OPC CDs (opc={mode})",
        ))
        print(f"Kendall tau = {report.rank.tau:.3f}, "
              f"Spearman rho = {report.rank.rho:.3f}, "
              f"moved = {report.rank.moved}/{len(report.rank.endpoints)}, "
              f"new #1 path: {report.rank.new_top}")

    none = rand_reports["none"]
    rule = rand_reports["rule"]
    # Shape: significant reordering, including a new most-critical path,
    # and it survives even with OPC applied (residual errors reorder too).
    assert none.rank.moved >= 4
    assert none.rank.tau < 0.95
    assert none.rank.new_top or rule.rank.new_top
    assert rule.rank.moved >= 2

    # Kernel: one full STA run of the reordering design.
    result = benchmark(rand_flow.engine.run)
    assert result.critical_delay > 0


def _slack(sta, net):
    try:
        return sta.slack_of(net)
    except KeyError:
        return float("nan")
