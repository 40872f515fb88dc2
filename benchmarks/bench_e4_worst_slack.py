"""E4 (Table 2): worst-case slack, drawn vs post-OPC.

The paper reports a 36.4% change in worst-case slack once silicon CDs are
used.  The magnitude is margin-relative (their design, their period); the
*shape* reproduced here: post-OPC slack moves by tens of percent of the
signoff margin, and the direction flips with the sign of the residual CD
bias (thin gates -> faster/leakier, fat gates -> slower).
"""

from repro.analysis import format_table


def test_e4_worst_slack(benchmark, adder_flow, adder_reports, signoff_period):
    rows = []
    for mode in ("none", "rule"):
        report = adder_reports[mode]
        rows.append((
            mode,
            f"{report.cd_stats.mean:+.2f}",
            f"{report.wns_drawn:+.2f}",
            f"{report.wns_post:+.2f}",
            f"{report.wns_post - report.wns_drawn:+.2f}",
            f"{report.wns_change_percent:+.1f}%",
        ))
    print()
    print(format_table(
        ["opc", "CD bias (nm)", "drawn WNS (ps)", "post WNS (ps)",
         "delta (ps)", "change"],
        rows,
        title=f"E4: worst-case slack at the signoff period "
              f"({signoff_period:.1f} ps)",
    ))
    print()
    print("paper: 36.4% increase in worst-case slack on their testchip;")
    print("the reproduction's change is likewise tens of percent of margin.")

    none, rule = adder_reports["none"], adder_reports["rule"]
    # The drawn-CD margin is small by construction; the post-OPC shift is a
    # large fraction of it in at least the uncorrected scenario.
    assert abs(none.wns_change_percent) > 15.0
    assert abs(none.wns_post - none.wns_drawn) > abs(rule.wns_post - rule.wns_drawn)

    benchmark.extra_info["wns_change_percent_none"] = none.wns_change_percent
    benchmark.extra_info["wns_change_percent_rule"] = rule.wns_change_percent
    benchmark(adder_flow.tag_critical_gates, none.drawn_sta, 8)
