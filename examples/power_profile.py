#!/usr/bin/env python3
"""Power over time: seeing operand isolation work.

Drives design1 with a bursty activation signal (long idle stretches
between bursts of work) and plots — as ASCII sparklines — the power
waveform of the original design, the isolated design, and the activation
signal itself.

The original design's power is nearly flat: its multipliers churn
whether or not EN is high (the redundant computation the paper targets).
The isolated design's waveform tracks EN: full power during bursts, a
fraction of it during idle.

Run:  python examples/power_profile.py
"""

from repro.designs import design1
from repro.opt import IsolationConfig, isolate_design
from repro.power.profile import PowerProfileMonitor
from repro.sim import ControlStream, NetTrace, random_stimulus
from repro.sim.engine import Simulator

CYCLES = 1024
WINDOW = 16


def stimulus_for(design):
    # Long bursts: mean dwell ≈ 40 cycles per state.
    return random_stimulus(
        design,
        seed=13,
        control_probability=0.4,
        overrides={"EN": ControlStream(0.4, 0.024)},
    )


def profile(design):
    monitor = PowerProfileMonitor(window=WINDOW)
    trace = NetTrace([design.net("EN")])
    Simulator(design).run(stimulus_for(design), CYCLES, monitors=[monitor, trace])
    return monitor, trace


def en_sparkline(trace, design):
    values = trace.values_of(design.net("EN"))
    buckets = [
        sum(values[i : i + WINDOW]) / WINDOW
        for i in range(0, len(values), WINDOW)
    ]
    return "".join(" .:-=+*#%@"[min(9, int(v * 9))] for v in buckets)


def main() -> None:
    design = design1(width=12)
    result = isolate_design(
        design, lambda: stimulus_for(design), IsolationConfig(cycles=1000)
    )

    base_profile, base_trace = profile(design)
    iso_profile, _ = profile(result.design)

    print(f"design1, {CYCLES} cycles, {WINDOW}-cycle windows\n")
    print(f"EN (activation): {en_sparkline(base_trace, design)}")
    print(f"original power : {base_profile.sparkline()}")
    print(f"isolated power : {iso_profile.sparkline()}")
    print()
    print(f"original: mean {base_profile.mean_mw:.3f} mW, peak {base_profile.peak_mw:.3f} mW")
    print(f"isolated: mean {iso_profile.mean_mw:.3f} mW, peak {iso_profile.peak_mw:.3f} mW")
    print(f"mean reduction: {1 - iso_profile.mean_mw / base_profile.mean_mw:.1%}")
    low_orig = min(base_profile.windows_mw)
    low_iso = min(iso_profile.windows_mw)
    print(
        f"quietest window: original {low_orig:.3f} mW vs isolated "
        f"{low_iso:.3f} mW — isolation lets the design actually rest."
    )


if __name__ == "__main__":
    main()
