"""Ablation A: gate-based vs latch-based isolation vs idle-burst length.

The paper's Section 5.2 caveat: "AND(OR)-based isolation will result in
power savings only if the module is idle for several consecutive clock
cycles, a limitation that does not apply to latch-based isolation" — and
its Section 6 finding that, on its benchmarks, gate-based isolation
nevertheless matched or beat latch-based because "the power overhead
induced by the latches offset the gains".

This ablation makes the trade-off explicit: at a fixed 20 % activity we
sweep the activation signal's toggle rate (short ↔ long idle bursts) and
compare AND vs LAT power reduction. Expected shape: short bursts favour
latches (no forced transition per idle entry); long bursts erase the
latch advantage while its standing overhead remains.
"""

import pytest

from repro.designs import design1
from repro.opt import IsolationConfig, isolate_design
from repro.sim import ControlStream, random_stimulus

CYCLES = 1500
PROBABILITY = 0.2
#: Activation toggle rates: ~2/(rate) cycles mean burst length.
RATES = (0.32, 0.16, 0.08, 0.02)


def run_ablation():
    design = design1(width=12)
    rows = []
    for rate in RATES:
        reductions = {}
        for style in ("and", "latch", "auto"):
            def stimulus():
                return random_stimulus(
                    design,
                    seed=21,
                    control_probability=0.4,
                    overrides={"EN": ControlStream(PROBABILITY, rate)},
                )

            result = isolate_design(
                design, stimulus, IsolationConfig(style=style, cycles=CYCLES)
            )
            reductions[style] = result.power_reduction
        mean_burst = 2 * (1 - PROBABILITY) / rate
        rows.append(
            (rate, mean_burst, reductions["and"], reductions["latch"],
             reductions["auto"])
        )
    return rows


@pytest.mark.benchmark(group="ablation-styles")
def test_gate_vs_latch_burst_length(benchmark, record):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    lines = [
        "design1 @ Pr(EN)=0.2: AND vs LAT vs AUTO power reduction vs idle-burst length",
        f"{'Tr(EN)':>8} {'burst[cyc]':>11} {'AND %red':>9} {'LAT %red':>9} "
        f"{'AUTO %red':>10} {'AND-LAT':>8}",
    ]
    for rate, burst, and_red, lat_red, auto_red in rows:
        lines.append(
            f"{rate:>8.2f} {burst:>11.1f} {and_red:>9.1%} {lat_red:>9.1%} "
            f"{auto_red:>10.1%} {and_red - lat_red:>+8.1%}"
        )
    record("ablation_styles_burst_length", "\n".join(lines))

    # AUTO tracks the better fixed style at every burst length.
    for _r, _b, and_red, lat_red, auto_red in rows:
        assert auto_red >= max(and_red, lat_red) - 0.03

    # AND's disadvantage shrinks (or flips) as bursts get longer.
    gaps = [and_red - lat_red for _r, _b, and_red, lat_red, _a in rows]
    assert gaps[-1] > gaps[0] - 0.02, "long bursts must favour gate isolation"
    assert gaps[-1] > -0.05, "with long bursts AND ≈ LAT (paper's conclusion)"
    # With the shortest bursts the latch advantage is visible.
    assert gaps[0] < gaps[-1] + 0.05

    benchmark.extra_info["gap_short_bursts"] = round(gaps[0], 4)
    benchmark.extra_info["gap_long_bursts"] = round(gaps[-1], 4)
