"""Ablation B: the cost function's ω_p/ω_a trade-off and h_min threshold.

Section 5.1: "the quotient ω_p/ω_a determines the decrease in power
consumption that must come with a certain increase in area", and
Algorithm 1 only isolates candidates with h(c) ≥ h_min.

Sweep shape asserted:

* raising the area weight ω_a monotonically prunes candidates (fewer
  isolated modules, less area overhead, less power saved);
* raising h_min does the same;
* at ω_a = 0 everything beneficial is isolated; at a prohibitive ω_a
  nothing is.
"""

import pytest

from repro.core.cost import CostWeights
from repro.designs import design1
from repro.opt import IsolationConfig, isolate_design
from repro.sim import ControlStream, random_stimulus

CYCLES = 1200
OMEGA_A_VALUES = (0.0, 0.25, 2.0, 50.0)
H_MIN_VALUES = (0.0, 0.02, 0.1, 1.0)


def stimulus_factory(design):
    def make():
        return random_stimulus(
            design,
            seed=7,
            control_probability=0.35,
            overrides={"EN": ControlStream(0.2, 0.05)},
        )

    return make


def run_weight_sweep():
    design = design1(width=12)
    rows = []
    for omega_a in OMEGA_A_VALUES:
        config = IsolationConfig(
            cycles=CYCLES, weights=CostWeights(omega_p=1.0, omega_a=omega_a)
        )
        result = isolate_design(design, stimulus_factory(design), config)
        rows.append(
            (omega_a, len(result.isolated_names), result.power_reduction,
             result.area_increase)
        )
    return rows


def run_hmin_sweep():
    design = design1(width=12)
    rows = []
    for h_min in H_MIN_VALUES:
        config = IsolationConfig(
            cycles=CYCLES, weights=CostWeights(omega_p=1.0, omega_a=0.25, h_min=h_min)
        )
        result = isolate_design(design, stimulus_factory(design), config)
        rows.append((h_min, len(result.isolated_names), result.power_reduction))
    return rows


@pytest.mark.benchmark(group="ablation-cost")
def test_area_weight_sweep(benchmark, record):
    rows = benchmark.pedantic(run_weight_sweep, rounds=1, iterations=1)
    lines = [
        "design1: effect of the area weight ω_a (ω_p = 1)",
        f"{'ω_a':>8} {'#isolated':>10} {'%power red':>11} {'%area inc':>10}",
    ]
    for omega_a, count, reduction, area in rows:
        lines.append(f"{omega_a:>8.2f} {count:>10d} {reduction:>11.1%} {area:>10.1%}")
    record("ablation_cost_omega_a", "\n".join(lines))

    counts = [count for _w, count, _r, _a in rows]
    assert all(a >= b for a, b in zip(counts, counts[1:])), "ω_a must prune"
    # Free area: at least the two big multipliers are worth isolating.
    assert counts[0] >= 2
    assert counts[-1] == 0  # prohibitive area weight: nothing

    areas = [a for *_x, a in rows]
    assert areas[0] >= areas[-1]


@pytest.mark.benchmark(group="ablation-cost")
def test_hmin_threshold_sweep(benchmark, record):
    rows = benchmark.pedantic(run_hmin_sweep, rounds=1, iterations=1)
    lines = [
        "design1: effect of the acceptance threshold h_min",
        f"{'h_min':>8} {'#isolated':>10} {'%power red':>11}",
    ]
    for h_min, count, reduction in rows:
        lines.append(f"{h_min:>8.3f} {count:>10d} {reduction:>11.1%}")
    record("ablation_cost_hmin", "\n".join(lines))

    counts = [count for _h, count, _r in rows]
    assert all(a >= b for a, b in zip(counts, counts[1:])), "h_min must prune"
    assert counts[0] > counts[-1]
    assert counts[-1] == 0
