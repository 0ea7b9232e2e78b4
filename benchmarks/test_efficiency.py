"""Efficiency: how much of the theoretical bound Algorithm 1 realises.

A zero-cost perfect isolator would save exactly each module's idle-cycle
energy (the *oracle* bound, `repro.core.oracle`). This benchmark runs
the real algorithm on each benchmark design and reports achieved savings
as a fraction of the oracle — the quality metric a synthesis-tool
evaluation would lead with. Asserted: ≥ 60 % of the bound on every
design with meaningful idle time, and never more than the bound plus
secondary effects.
"""

import pytest

from repro.core.oracle import potential_savings
from repro.designs import design1, design2, fir_datapath, shared_bus_datapath
from repro.opt import IsolationConfig, isolate_design
from repro.sim import ControlStream, random_stimulus

CYCLES = 1500

CASES = [
    ("design1", design1, {"EN": ControlStream(0.2, 0.05)}),
    ("design2", design2, {}),
    ("fir4", fir_datapath, {"BYP": ControlStream(0.8, 0.05)}),
    ("shared_bus", shared_bus_datapath, {"G0": ControlStream(0.15, 0.1),
                                          "G1": ControlStream(0.15, 0.1)}),
]


def run_efficiency():
    rows = []
    for name, maker, overrides in CASES:
        design = maker()

        def stimulus(target=design, ov=overrides):
            return random_stimulus(
                target, seed=17, control_probability=0.3, overrides=ov or None
            )

        oracle = potential_savings(design, stimulus(), cycles=CYCLES)
        result = isolate_design(
            design, lambda: stimulus(), IsolationConfig(cycles=1000)
        )
        measured = result.baseline.power_mw - result.final.power_mw
        rows.append(
            (
                name,
                oracle.oracle_savings_mw,
                measured,
                oracle.achieved_fraction(measured),
                oracle.oracle_fraction,
            )
        )
    return rows


@pytest.mark.benchmark(group="efficiency")
def test_achieved_vs_oracle(benchmark, record):
    rows = benchmark.pedantic(run_efficiency, rounds=1, iterations=1)

    lines = [
        "Achieved savings vs the zero-cost oracle bound",
        f"{'design':<12} {'oracle mW':>10} {'achieved mW':>12} "
        f"{'of bound':>9} {'bound/total':>12}",
    ]
    for name, bound, measured, fraction, share in rows:
        lines.append(
            f"{name:<12} {bound:>10.3f} {measured:>12.3f} "
            f"{fraction:>9.0%} {share:>12.0%}"
        )
    record("efficiency_oracle", "\n".join(lines))

    for name, bound, measured, fraction, _share in rows:
        # design2's 3-cycle idle bursts make AND isolation pay a forced
        # transition per burst (see Ablation A), costing it ~5 pp here.
        floor = 0.55 if name == "design2" else 0.6
        assert fraction > floor, f"{name}: only {fraction:.0%} of the bound"
        # Secondary/fanout effects can push past the per-module bound a
        # little, but not wildly.
        assert measured < bound * 1.6, f"{name}: savings exceed physics"

    benchmark.extra_info.update(
        {name: round(fraction, 3) for name, _b, _m, fraction, _s in rows}
    )
