"""Table 2: power / area / slack on design2, per isolation style.

Paper (design2, typical stimuli; activation statistics not controllable
from outside): ≈32 % power reduction for all three isolation styles,
≈21–25 % area increase (latches costliest), slack reduced ≈11–13 % but
constraints still met.

Shape asserted here: all styles land in the same ballpark reduction
(tens of percent, much less variation than design1's sweep), latch area
overhead strictly exceeds the gate styles, timing met.

Known deviation (documented in EXPERIMENTS.md): design2's modules idle
in short 3-cycle bursts, so latch isolation — which pays no forced
transition on idle entry — saves somewhat *more* power than gate
isolation here, where the paper reports parity. The paper itself states
the gate styles need "several consecutive idle cycles" to win.
"""

import pytest


from repro.core import compare_styles, format_comparison_table
from repro.designs import design2
from repro.opt import IsolationConfig
from repro.sim import random_stimulus

CYCLES = 2000


def run_table2():
    design = design2(width=16)

    def stimulus():
        return random_stimulus(design, seed=11)

    return compare_styles(design, stimulus, IsolationConfig(cycles=CYCLES))


@pytest.mark.benchmark(group="table2")
def test_table2_design2(benchmark, record):
    comparison = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    record("table2_design2", format_comparison_table(comparison))

    base = comparison.row("non-isolated")
    rows = {
        label: comparison.row(label)
        for label in ("AND-isolated", "OR-isolated", "LAT-isolated")
    }

    for label, row in rows.items():
        assert row.power_reduction > 0.2, f"{label}: paper ballpark is ≈32 %"
        assert row.slack >= 0

    # Less spread than design1's statistics sweep: styles within ~25 pp.
    reductions = [row.power_reduction for row in rows.values()]
    assert max(reductions) - min(reductions) < 0.25

    # AND and OR isolation agree closely (paper: 31.95 % vs 31.1 %).
    assert abs(
        rows["AND-isolated"].power_reduction - rows["OR-isolated"].power_reduction
    ) < 0.05

    # Latches cost the most area *per gated operand bit* (paper: 24.7 %
    # total vs ≈21 % for gates on the same candidate set; here the latch
    # run may isolate fewer candidates, so normalise by gated bits).
    def area_per_bit(style):
        result = comparison.results[style]
        bits = sum(t.instance.gated_bits for t in result.transforms)
        return (result.final.area - result.baseline.area) / max(1, bits)

    assert area_per_bit("latch") > area_per_bit("and")
    assert area_per_bit("latch") > area_per_bit("or")

    benchmark.extra_info.update(
        {label: round(row.power_reduction, 4) for label, row in rows.items()}
    )
