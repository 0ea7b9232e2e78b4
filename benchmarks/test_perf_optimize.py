"""Pass composition benchmark: isolation vs clock gating vs both.

The ``repro.opt`` redesign lets Algorithm 1's greedy loop select
operand-isolation and clock-gating transforms jointly under one
``h_min`` budget. This benchmark quantifies the claim that the two
families compose: on the soc datapath (an enable-dominated system
block) the joint run must strictly beat each family alone, because
isolation removes redundant datapath computation while gating removes
standing clock energy — disjoint components of the same total.
"""

import pytest

from repro.opt import IsolationConfig
from repro.designs import soc_datapath
from repro.opt import optimize
from repro.sim import ControlStream, random_stimulus

CYCLES = 800

PASS_SETS = [
    ("isolation", ("isolation",)),
    ("clock_gating", ("clock_gating",)),
    ("combined", ("isolation", "clock_gating")),
]


def run_composition():
    design = soc_datapath()
    config = IsolationConfig(cycles=CYCLES, engine="compiled")

    def stimulus():
        return random_stimulus(
            design,
            seed=3,
            control_probability=0.3,
            overrides={"SYS_EN": ControlStream(0.25, 0.1)},
        )

    rows = []
    for label, passes in PASS_SETS:
        result = optimize(design, stimulus, passes=passes, config=config)
        rows.append(
            (
                label,
                result.baseline.power_mw,
                result.final.power_mw,
                result.power_reduction,
                result.area_increase,
                len(result.transforms),
            )
        )
    return rows


@pytest.mark.benchmark(group="optimize")
def test_pass_composition(benchmark, record):
    rows = benchmark.pedantic(run_composition, rounds=1, iterations=1)

    lines = ["soc datapath: power reduction by pass selection"]
    lines.append(
        f"{'passes':<14} {'base mW':>9} {'final mW':>9} {'%red':>8} "
        f"{'%area':>8} {'transforms':>10}"
    )
    table = {}
    for label, base, final, reduction, area, transforms in rows:
        table[label] = reduction
        lines.append(
            f"{label:<14} {base:>9.4f} {final:>9.4f} {reduction:>8.1%} "
            f"{area:>8.1%} {transforms:>10}"
        )
    record("perf_optimize", "\n".join(lines))

    # Both families must contribute alone, and the joint selection must
    # strictly beat each of them.
    assert table["isolation"] > 0
    assert table["clock_gating"] > 0
    assert table["combined"] > table["isolation"]
    assert table["combined"] > table["clock_gating"]

    benchmark.extra_info.update(
        {label: round(reduction, 4) for label, reduction in table.items()}
    )
