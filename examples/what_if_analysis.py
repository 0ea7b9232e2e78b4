#!/usr/bin/env python3
"""What-if analysis: rank candidates and compare against the oracle.

Before committing to any netlist change, a power engineer wants to know:
which modules are worth isolating, what would each cost, and how much of
the total power is redundant computation at all? This script answers all
three on the FSM-controlled design2:

1. the **oracle bound** — per-module idle-cycle energy, the savings a
   zero-cost perfect isolation could reach;
2. the **ranked what-if table** — predicted net savings, overhead, area
   and the h(c) score per candidate, without transforming anything;
3. the **achieved** result of actually running Algorithm 1, as a
   fraction of the bound.

Run:  python examples/what_if_analysis.py
"""

from repro.core import format_ranking, rank_candidates
from repro.core.oracle import potential_savings
from repro.designs import design2
from repro.opt import IsolationConfig, isolate_design
from repro.runconfig import RunConfig
from repro.sim import random_stimulus

CYCLES = 2000


def main() -> None:
    design = design2(width=16)

    def stimulus():
        return random_stimulus(design, seed=11)

    # --- 1. The oracle bound --------------------------------------------
    oracle = potential_savings(design, stimulus(), cycles=CYCLES)
    print(f"Total power: {oracle.total_power_mw:.3f} mW; "
          f"redundant computation: {oracle.oracle_savings_mw:.3f} mW "
          f"({oracle.oracle_fraction:.0%} of total)\n")
    print(f"{'module':<10} {'idle power [mW]':>16}")
    for name, power in sorted(
        oracle.idle_power_mw.items(), key=lambda item: -item[1]
    ):
        print(f"{name:<10} {power:>16.4f}")
    print()

    # --- 2. The ranked what-if table --------------------------------------
    ranked = rank_candidates(design, stimulus(), run=RunConfig(cycles=CYCLES))
    print(format_ranking(ranked))
    print()

    # --- 3. Commit and compare to the bound --------------------------------
    result = isolate_design(design, stimulus, IsolationConfig(cycles=CYCLES))
    measured = result.baseline.power_mw - result.final.power_mw
    print(result.summary())
    print(
        f"\nachieved {measured:.3f} mW of the {oracle.oracle_savings_mw:.3f} mW "
        f"bound ({oracle.achieved_fraction(measured):.0%})"
    )


if __name__ == "__main__":
    main()
