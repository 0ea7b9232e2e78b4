"""System-scale run: the full algorithm on the composite SoC design.

Not a paper table — a release-credibility check at the scale the
algorithm is meant for: ~50 candidates across ~18 combinational blocks
with a shared system strobe. Asserts substantial savings, per-block
iteration behaviour (several iterations, many isolated modules), met
timing, and observable equivalence.
"""

import pytest

from repro.designs import soc_datapath
from repro.opt import IsolationConfig, isolate_design
from repro.sim import ControlStream, random_stimulus
from repro.verify import check_observable_equivalence

CYCLES = 800


def stimulus_for(design):
    return random_stimulus(
        design,
        seed=4,
        control_probability=0.3,
        overrides={
            "SYS_EN": ControlStream(0.15, 0.05),
            "fir_BYP": ControlStream(0.8, 0.05),
        },
    )


def run_soc():
    design = soc_datapath(width=12)
    result = isolate_design(
        design, lambda: stimulus_for(design), IsolationConfig(cycles=CYCLES)
    )
    equivalent = check_observable_equivalence(
        design, result.design, stimulus_for(design), 1500
    ).equivalent
    return design, result, equivalent


@pytest.mark.benchmark(group="soc")
def test_soc_scale_isolation(benchmark, record):
    design, result, equivalent = benchmark.pedantic(run_soc, rounds=1, iterations=1)

    lines = [
        "Composite SoC datapath: Algorithm 1 at scale",
        f"  candidates          : {len(design.datapath_modules)}",
        f"  isolated modules    : {len(result.isolated_names)}",
        f"  iterations          : {len(result.iterations)}",
        f"  power               : {result.baseline.power_mw:.3f} -> "
        f"{result.final.power_mw:.3f} mW ({result.power_reduction:+.1%})",
        f"  area                : {result.baseline.area:.0f} -> "
        f"{result.final.area:.0f} um^2 ({result.area_increase:+.1%})",
        f"  worst slack         : {result.baseline.worst_slack:.3f} -> "
        f"{result.final.worst_slack:.3f} ns",
        f"  observably equivalent: {equivalent}",
    ]
    record("soc_scale", "\n".join(lines))

    assert equivalent
    assert result.power_reduction > 0.4
    assert len(result.isolated_names) >= 20
    assert len(result.iterations) >= 3  # per-block iteration really iterates
    assert result.final.worst_slack >= 0
    assert result.area_increase < 0.15

    benchmark.extra_info["reduction"] = round(result.power_reduction, 4)
    benchmark.extra_info["isolated"] = len(result.isolated_names)
