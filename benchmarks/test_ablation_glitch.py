"""Ablation E: robustness of the conclusions to the glitch assumption.

Our power estimation (like the paper's RT-level DesignPower runs) is
based on zero-delay cycle simulation, which does not see glitches. A
real circuit glitches more in deeper logic. This ablation re-evaluates
the Table-1 experiment with a depth-proportional glitch surcharge on
every combinational cell's dynamic energy and checks the *conclusions*
— double-digit savings, AND ≈ OR, gate styles competitive with latches
— survive the modelling change (the quantities shift by at most a few
points).
"""

import pytest

from repro.designs import design1
from repro.opt import IsolationConfig, isolate_design
from repro.power.estimator import PowerEstimator
from repro.sim import ControlStream, random_stimulus
from repro.sim.engine import Simulator
from repro.sim.monitor import ToggleMonitor

CYCLES = 1500


def measure(design, stimulus, glitch):
    monitor = ToggleMonitor()
    Simulator(design).run(stimulus, CYCLES, monitors=[monitor], warmup=16)
    estimator = PowerEstimator(glitch_model=glitch)
    return estimator.breakdown(design, monitor).total_power_mw


def run_ablation():
    design = design1(width=12)

    def stimulus(target=None):
        return random_stimulus(
            target or design,
            seed=7,
            control_probability=0.35,
            overrides={"EN": ControlStream(0.2, 0.05)},
        )

    rows = []
    variants = {"non-isolated": design}
    for style in ("and", "or", "latch"):
        result = isolate_design(
            design, lambda: stimulus(), IsolationConfig(style=style, cycles=1000)
        )
        variants[style] = result.design

    base = {
        glitch: measure(design, stimulus(), glitch) for glitch in (False, True)
    }
    for style in ("and", "or", "latch"):
        variant = variants[style]
        for glitch in (False, True):
            power = measure(variant, stimulus(variant), glitch)
            rows.append((style, glitch, 1 - power / base[glitch]))
    return rows


@pytest.mark.benchmark(group="ablation-glitch")
def test_glitch_model_robustness(benchmark, record):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    lines = [
        "design1: power reduction with and without the glitch surcharge",
        f"{'style':<8} {'zero-delay':>11} {'glitch model':>13}",
    ]
    table = {}
    for style in ("and", "or", "latch"):
        plain = next(r for s, g, r in rows if s == style and not g)
        glitchy = next(r for s, g, r in rows if s == style and g)
        table[style] = (plain, glitchy)
        lines.append(f"{style:<8} {plain:>11.1%} {glitchy:>13.1%}")
    record("ablation_glitch", "\n".join(lines))

    for style, (plain, glitchy) in table.items():
        assert glitchy > 0.10, f"{style}: conclusion must survive glitch model"
        assert abs(glitchy - plain) < 0.10, f"{style}: modelling shift too large"
    # Style ranking preserved: AND ≈ OR, both >= LAT - small tolerance.
    assert abs(table["and"][1] - table["or"][1]) < 0.05
    assert table["and"][1] >= table["latch"][1] - 0.05
