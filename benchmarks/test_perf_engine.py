"""Compiled-vs-python engine performance (ISSUE 1 acceptance criteria).

Two measurements, both on ``design1``:

* raw simulation throughput over 10k cycles with a ToggleMonitor
  attached (the ``estimate_power`` shape) — the compiled engine must be
  >= 5x faster;
* the full Algorithm-1 flow (``isolate_design``) — the compiled engine
  must be >= 2x faster end-to-end while making identical isolation
  decisions and reporting identical power numbers.
"""

from __future__ import annotations

import time

from repro.designs import design1
from repro.opt import IsolationConfig, isolate_design
from repro.sim.compile import CompiledSimulator, program_cache
from repro.sim.engine import Simulator
from repro.sim.monitor import ToggleMonitor
from repro.sim.stimulus import random_stimulus

CYCLES = 10_000


def _best_of(runs, fn):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_raw_simulation_speedup(record):
    design_py, design_c = design1(), design1()
    program_cache().get(design_c)  # compile outside the timed region

    def run_python():
        Simulator(design_py).run(
            random_stimulus(design_py, seed=0), CYCLES, [ToggleMonitor()]
        )

    def run_compiled():
        CompiledSimulator(design_c).run(
            random_stimulus(design_c, seed=0), CYCLES, [ToggleMonitor()]
        )

    python_s = _best_of(2, run_python)
    compiled_s = _best_of(2, run_compiled)
    speedup = python_s / compiled_s

    lines = [
        f"Raw simulation, design1, {CYCLES} cycles + ToggleMonitor (best of 2):",
        f"  python   : {python_s * 1e3:9.1f} ms "
        f"({CYCLES / python_s / 1e3:7.1f} kcycles/s)",
        f"  compiled : {compiled_s * 1e3:9.1f} ms "
        f"({CYCLES / compiled_s / 1e3:7.1f} kcycles/s)",
        f"  speedup  : {speedup:9.2f}x (acceptance: >= 5x)",
    ]
    record("perf_engine_raw", "\n".join(lines))
    assert speedup >= 5.0, f"compiled engine only {speedup:.2f}x faster"


def test_isolate_design_speedup(record):
    design = design1()

    def stimulus():
        return random_stimulus(design1(), seed=1)

    def run(engine):
        start = time.perf_counter()
        result = isolate_design(
            design, stimulus, IsolationConfig(engine=engine)
        )
        return result, time.perf_counter() - start

    result_py, python_s = run("python")
    result_c, compiled_s = run("compiled")
    speedup = python_s / compiled_s

    # Identical decisions and numbers — the engines are bit-exact, so
    # Algorithm 1 must walk the exact same path.
    assert result_py.isolated_names == result_c.isolated_names
    assert result_py.baseline.power_mw == result_c.baseline.power_mw
    assert result_py.final.power_mw == result_c.final.power_mw
    assert [[t.target for t in r.applied] for r in result_py.iterations] == [
        [t.target for t in r.applied] for r in result_c.iterations
    ]

    t = result_c.timings
    lines = [
        "isolate_design end-to-end, design1 (identical isolation decisions):",
        f"  python   : {python_s:7.3f} s",
        f"  compiled : {compiled_s:7.3f} s",
        f"  speedup  : {speedup:7.2f}x (acceptance: >= 2x)",
        f"  isolated : {', '.join(result_c.isolated_names)}",
        f"  power    : {result_c.baseline.power_mw:.4f} -> "
        f"{result_c.final.power_mw:.4f} mW",
        f"  compiled stages: simulate {t.simulate_s:.3f}s, "
        f"score {t.score_s:.3f}s, transform {t.transform_s:.3f}s "
        f"({t.simulations} simulations)",
    ]
    record("perf_engine_isolate", "\n".join(lines))
    assert speedup >= 2.0, f"isolate_design only {speedup:.2f}x faster"
