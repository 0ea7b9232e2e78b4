#!/usr/bin/env python3
"""Reused-IP scenario: an FIR filter that is mostly bypassed.

The paper's introduction motivates operand isolation with "re-used
designs of which only part of the functionality is being used". Here a
4-tap FIR filter sits behind a bypass mux; the surrounding system keeps
it in bypass most of the time, so its four multipliers and adder tree
compute redundantly almost every cycle.

The script sweeps the bypass duty cycle and reports, for each point, the
power of the original design, the automatically isolated design, and the
three Section-2 baselines — showing where each technique's coverage
breaks down.

Run:  python examples/reused_ip_fir.py
"""

from repro.baselines import enable_gating, guarded_evaluation, manual_mux_isolation
from repro.designs import fir_datapath
from repro.opt import IsolationConfig, isolate_design
from repro.power import estimate_power
from repro.runconfig import RunConfig
from repro.sim import ControlStream, random_stimulus
from repro.verify import assert_observable_equivalence

CYCLES = 2000


def make_stimulus(design, bypass_duty: float):
    """Data streaming in every cycle; BYP high ``bypass_duty`` of the time."""
    return random_stimulus(
        design,
        seed=2024,
        overrides={"BYP": ControlStream(bypass_duty, min(0.05, 2 * bypass_duty * (1 - bypass_duty)))},
    )


def main() -> None:
    design = fir_datapath(width=12)
    print(f"Design: {design.name} — {design.stats()}")
    print(f"{'BYP duty':>9} {'orig mW':>9} {'isolated':>9} {'%red':>7} "
          f"{'manual':>8} {'guarded':>8} {'kapadia':>8}")

    for duty in (0.0, 0.5, 0.8, 0.95):
        stimulus = lambda: make_stimulus(design, duty)
        base = estimate_power(
            design, stimulus(), run=RunConfig(cycles=CYCLES)
        ).total_power_mw

        result = isolate_design(
            design, stimulus, IsolationConfig(style="and", cycles=1500)
        )
        assert_observable_equivalence(design, result.design, stimulus(), 1000)

        rows = [result.final.power_mw]
        for transform in (manual_mux_isolation, guarded_evaluation, enable_gating):
            variant = transform(design).design
            rows.append(estimate_power(
                variant, stimulus(), run=RunConfig(cycles=CYCLES)).total_power_mw
            )

        iso, man, grd, kap = rows
        print(
            f"{duty:>9.0%} {base:>9.3f} {iso:>9.3f} {1 - iso / base:>7.1%} "
            f"{man:>8.3f} {grd:>8.3f} {kap:>8.3f}"
        )

    print(
        "\nThe automated RTL isolation tracks the bypass duty; the manual\n"
        "mux rule catches only the final adder, guarded evaluation finds no\n"
        "existing signal implying ¬BYP, and enable gating reaches only the\n"
        "single exclusively-owned delay register."
    )


if __name__ == "__main__":
    main()
