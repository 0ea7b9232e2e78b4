#!/usr/bin/env python3
"""System-scale scenario: isolating a composite SoC datapath.

Flattens four subsystems (a PI-gated datapath, an FSM-phased block, a
bypassable FIR and a valid-gated CORDIC pipeline) into one netlist with
a shared system strobe, then runs the full isolation algorithm. Shows
the per-subsystem power breakdown before and after, and the iteration
log of the per-block greedy loop.

Run:  python examples/soc_system.py
"""

from collections import defaultdict

from repro.designs import soc_datapath
from repro.opt import IsolationConfig, isolate_design
from repro.power import PowerEstimator
from repro.sim import ControlStream, random_stimulus
from repro.sim.engine import Simulator
from repro.sim.monitor import ToggleMonitor
from repro.verify import assert_observable_equivalence

CYCLES = 1500


def stimulus_for(design):
    # The system strobe is low 85 % of the time; the FIR is bypassed 80 %.
    return random_stimulus(
        design,
        seed=4,
        control_probability=0.3,
        overrides={
            "SYS_EN": ControlStream(0.15, 0.05),
            "fir_BYP": ControlStream(0.8, 0.05),
        },
    )


def subsystem_power(design):
    """Power per instance prefix, measured under the shared stimulus."""
    monitor = ToggleMonitor()
    Simulator(design).run(stimulus_for(design), CYCLES, monitors=[monitor], warmup=16)
    breakdown = PowerEstimator().breakdown(design, monitor)
    per_prefix = defaultdict(float)
    for cell, energy in breakdown.energy_per_cell.items():
        prefix = cell.name.split("_", 1)[0]
        per_prefix[prefix] += breakdown.library.power_mw(energy)
    return dict(per_prefix), breakdown.total_power_mw


def main() -> None:
    design = soc_datapath(width=12)
    stats = design.stats()
    print(
        f"SoC design: {stats['cells']} cells, {stats['modules']} candidate "
        f"modules, {stats['registers']} registers\n"
    )

    before, total_before = subsystem_power(design)
    result = isolate_design(
        design, lambda: stimulus_for(design), IsolationConfig(cycles=1000)
    )
    after, total_after = subsystem_power(result.design)

    print(f"{'subsystem':<10} {'before mW':>10} {'after mW':>10} {'%red':>7}")
    for prefix in sorted(before):
        b = before[prefix]
        if b < 1e-9:
            continue  # boundary cells (shared strobe etc.) draw nothing
        a = after.get(prefix, 0.0)
        print(f"{prefix:<10} {b:>10.3f} {a:>10.3f} {1 - a / b:>7.1%}")
    print(f"{'TOTAL':<10} {total_before:>10.3f} {total_after:>10.3f} "
          f"{1 - total_after / total_before:>7.1%}\n")

    print("Iteration log:")
    for record in result.iterations:
        isolated = [t.target for t in record.applied]
        if isolated:
            print(f"  iteration {record.index}: isolated {', '.join(isolated)}")
    print()
    print(result.summary())

    assert_observable_equivalence(design, result.design, stimulus_for(design), 1500)
    print("\nObservable equivalence verified over 1500 cycles.")


if __name__ == "__main__":
    main()
