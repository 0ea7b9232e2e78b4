#!/usr/bin/env python3
"""Control-dominated design: an FSM-sequenced ALU.

The paper's other motivating workload class: arithmetic used in only a
few FSM states. The `alu_ctrl` design runs a 4-state IDLE→LOAD→EXEC→
STORE machine; its adder/subtractor/multiplier produce observable
results only in EXEC (one quarter of the busy cycles), and only the unit
selected by OP matters even then.

The script runs the full Algorithm-1 flow for each isolation style,
prints the per-iteration candidate scores (the h(c) cost function in
action) and the final Table-1-style comparison.

Run:  python examples/control_dominated_alu.py
"""

from repro.core import compare_styles, format_comparison_table
from repro.designs import alu_control_dominated
from repro.opt import IsolationConfig, isolate_design
from repro.sim import ControlStream, random_stimulus
from repro.verify import assert_observable_equivalence


def main() -> None:
    design = alu_control_dominated(width=16)
    print(f"Design: {design.name} — {design.stats()}\n")

    # GO pulses start a 4-state run; between runs the machine idles.
    def stimulus():
        return random_stimulus(
            design,
            seed=5,
            overrides={"GO": ControlStream(0.3, 0.2)},
        )

    # --- Watch one run in detail ----------------------------------------
    result = isolate_design(
        design, stimulus, IsolationConfig(style="and", cycles=2000)
    )
    print("Iteration log (style=and):")
    for record in result.iterations:
        print(f"  iteration {record.index}: measured {record.total_power_mw:.3f} mW")
        for score in record.scores.get("isolation", []):
            s = score.savings
            print(
                f"    {score.candidate.name:<10} h={score.h:+.4f} "
                f"idle={s.idle_probability:.2f} "
                f"ΔPp={s.primary_mw:.4f} ΔPs={s.secondary_mw:.4f} "
                f"Pi={s.overhead_mw:.4f} mW"
            )
        isolated = [t.target for t in record.applied]
        if isolated:
            print(f"    -> isolated: {', '.join(isolated)}")
    print()
    print(result.summary())
    assert_observable_equivalence(design, result.design, stimulus(), 2000)
    print("Observable equivalence verified.\n")

    # --- All three styles -------------------------------------------------
    comparison = compare_styles(design, stimulus, IsolationConfig(cycles=1500))
    print(format_comparison_table(comparison))


if __name__ == "__main__":
    main()
