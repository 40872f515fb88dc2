"""E5 (Fig. 3): corner-case vs Monte-Carlo statistical timing.

The paper's motivation: "process variation modeling based on worst-case
scenarios (corner cases) yields overly pessimistic simulation results."
The corners put every gate at +-3 sigma simultaneously; the Monte-Carlo
distribution over realistic (partially correlated) CD fields never gets
close to the corner bound.
"""

from repro.analysis import format_table
from repro.timing import run_corners, run_monte_carlo
from repro.timing.mc import CdVariationSpec


def test_e5_corner_vs_mc(benchmark, adder_flow, device_model, signoff_period):
    from repro.timing import TimingConstraints

    constraints = TimingConstraints(clock_period_ps=signoff_period)
    corners = run_corners(adder_flow.engine, device_model, constraints)
    spec = CdVariationSpec(sigma_random_nm=1.5, sigma_correlated_nm=1.0, seed=11)
    mc = run_monte_carlo(adder_flow.engine, device_model, samples=60,
                         spec=spec, constraints=constraints)

    print()
    print(format_table(
        ["quantity", "WNS (ps)"],
        [
            ("slow corner (all gates +6 nm)", f"{corners['slow']:+.2f}"),
            ("MC worst of 60", f"{mc.min_wns:+.2f}"),
            ("MC 1st percentile", f"{mc.percentile_wns(1):+.2f}"),
            ("MC mean", f"{mc.mean_wns:+.2f}"),
            ("typical corner", f"{corners['typical']:+.2f}"),
            ("fast corner (all gates -6 nm)", f"{corners['fast']:+.2f}"),
        ],
        title="E5: corner-based guardband vs Monte-Carlo statistical timing",
    ))
    pessimism = mc.min_wns - corners["slow"]
    guardband = corners["typical"] - corners["slow"]
    print()
    print(f"corner guardband {guardband:.1f} ps; MC never comes within "
          f"{pessimism:.1f} ps of the slow corner "
          f"({100 * pessimism / guardband:.0f}% of the guardband is pessimism)")

    assert corners["slow"] < mc.min_wns <= mc.mean_wns < corners["fast"]
    assert pessimism > 0.25 * guardband  # the paper's pessimism claim

    benchmark(run_monte_carlo, adder_flow.engine, device_model, 10, spec, constraints)
