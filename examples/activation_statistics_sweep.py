#!/usr/bin/env python3
"""The paper's Section 6 sweep: savings vs activation-signal statistics.

design1's first-stage activation signal is the primary input ``EN``, so
its static probability and toggle rate can be set from the testbench —
exactly the experiment the paper runs: "we generated a set of
testbenches ranging between low and high static probabilities and toggle
rates of the activation signal", observing average reductions between
19 % and 31 % and extremes of roughly 5 % (worst) to 70 % (best).

Run:  python examples/activation_statistics_sweep.py
"""

from repro.designs import design1
from repro.opt import IsolationConfig, isolate_design
from repro.sim import ControlStream, random_stimulus


def main() -> None:
    design = design1(width=12)
    print(f"Design: {design.name} — {design.stats()}\n")
    print(f"{'Pr(EN)':>7} {'Tr(EN)':>7} {'orig mW':>9} {'isolated':>9} {'%red':>7}")

    reductions = []
    for probability in (0.1, 0.3, 0.5, 0.8):
        max_rate = 2 * min(probability, 1 - probability)
        for rate in (0.2 * max_rate, 0.8 * max_rate):
            def stimulus():
                return random_stimulus(
                    design,
                    seed=99,
                    control_probability=0.4,
                    overrides={"EN": ControlStream(probability, rate)},
                )

            result = isolate_design(
                design, stimulus, IsolationConfig(style="and", cycles=1500)
            )
            reductions.append(result.power_reduction)
            print(
                f"{probability:>7.2f} {rate:>7.3f} "
                f"{result.baseline.power_mw:>9.3f} "
                f"{result.final.power_mw:>9.3f} {result.power_reduction:>7.1%}"
            )

    print(
        f"\nReduction range: {min(reductions):.1%} (worst) … "
        f"{max(reductions):.1%} (best); mean {sum(reductions)/len(reductions):.1%}"
    )
    print("Compare the paper: ≈5 % worst, ≈70 % best, averages 19–31 %.")


if __name__ == "__main__":
    main()
