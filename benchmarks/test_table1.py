"""Table 1: power / area / slack on design1, per isolation style.

Paper (design1, representative stimuli): power reductions of roughly
12–21 % across AND/OR/LAT isolation, area overhead from under 2 %
(gate styles) up to ≈7 % (latches), and a modest slack reduction —
the design still meets timing.

We assert the *shape*: every style yields a double-digit reduction,
gate-style area overhead is small and latch-style strictly larger, and
timing is met after isolation.
"""

import pytest


from repro.core import compare_styles, format_comparison_table
from repro.designs import design1
from repro.opt import IsolationConfig
from repro.sim import ControlStream, random_stimulus

CYCLES = 2000


def run_table1():
    design = design1(width=12)

    def stimulus():
        # Representative stimuli: stage-1 modules idle 80 % of the time in
        # long bursts (the workload class the paper's intro describes).
        return random_stimulus(
            design,
            seed=7,
            control_probability=0.35,
            overrides={"EN": ControlStream(0.2, 0.05)},
        )

    return compare_styles(design, stimulus, IsolationConfig(cycles=CYCLES))


@pytest.mark.benchmark(group="table1")
def test_table1_design1(benchmark, record):
    comparison = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    record("table1_design1", format_comparison_table(comparison))

    base = comparison.row("non-isolated")
    and_row = comparison.row("AND-isolated")
    or_row = comparison.row("OR-isolated")
    lat_row = comparison.row("LAT-isolated")

    for row in (and_row, or_row, lat_row):
        assert row.power_reduction > 0.10, f"{row.label}: expected double-digit savings"
        assert row.slack >= 0, f"{row.label}: must still meet timing"

    # Gate-style isolation: low area overhead; latches cost more area.
    assert and_row.area_increase < 0.10
    assert or_row.area_increase < 0.10
    assert lat_row.area_increase > and_row.area_increase

    # Paper's conclusion: combinational isolation performs as well as or
    # better than latch-based under long idle bursts.
    assert and_row.power_reduction >= lat_row.power_reduction - 0.03

    benchmark.extra_info.update(
        {
            "and_reduction": round(and_row.power_reduction, 4),
            "or_reduction": round(or_row.power_reduction, 4),
            "lat_reduction": round(lat_row.power_reduction, 4),
            "lat_area_increase": round(lat_row.area_increase, 4),
        }
    )
