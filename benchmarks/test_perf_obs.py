"""Observability overhead (ISSUE 4 acceptance criterion).

With tracing disabled, every instrumented call site resolves to the
cached no-op recorder: one function call and one branch, nothing
allocated. Since the instrumentation cannot be compiled out, the <2%
budget is bounded from measurements of the same build:

1. time the disabled facade directly (a tight span+counter loop gives
   the per-operation cost, deliberately measured *with* attribute
   packing so it is an overestimate of a bare call);
2. count how many facade operations one ``isolate_design(soc)`` run
   actually performs, by re-running it under a live recorder (the live
   run sees strictly more operations — worker-span machinery, gauge
   updates behind ``obs.enabled()`` guards — so the count too is an
   overestimate);
3. bound: ``overhead <= ops x cost_per_op / wall_seconds``.

The enabled-mode (full tracing) slowdown is also recorded for context;
it has no budget — tracing is opt-in.
"""

from __future__ import annotations

import statistics
import time

from repro import obs
from repro.designs import soc_datapath
from repro.opt import IsolationConfig, isolate_design
from repro.sim.stimulus import random_stimulus

CYCLES = 300
REPEATS = 3
OVERHEAD_BUDGET = 0.02


def _isolate(design):
    start = time.perf_counter()
    result = isolate_design(
        design,
        lambda: random_stimulus(design, seed=7),
        IsolationConfig(style="and", cycles=CYCLES, warmup=16),
    )
    return result, time.perf_counter() - start


def _noop_cost_ns():
    """Per-facade-operation cost of the disabled recorder, in ns."""
    assert not obs.enabled()
    loops = 200_000
    start = time.perf_counter()
    for _ in range(loops):
        with obs.span("bench", "cat", attr=1):
            obs.counter("bench", label="x").inc()
    elapsed = time.perf_counter() - start
    # Each loop visits two instrumented sites (span open/close + counter).
    return elapsed / (2 * loops) * 1e9


def _facade_ops(design):
    """How many facade operations one isolate run performs (overestimate)."""
    recorder = obs.Recorder()
    with obs.use(recorder):
        _, traced_seconds = _isolate(design)
    spans = sum(1 for _ in obs.iter_spans(recorder.tracer.roots))
    metric_ops = 0
    for _name, _labels, instrument in recorder.metrics:
        if isinstance(instrument, obs.Counter):
            metric_ops += max(1, int(instrument.value))
        elif isinstance(instrument, obs.Histogram):
            metric_ops += instrument.count
        else:  # gauge: at least one set per series
            metric_ops += 1
    return 2 * spans + metric_ops, traced_seconds


def test_disabled_observability_overhead(record):
    design = soc_datapath(width=12)
    wall = statistics.median(_isolate(design)[1] for _ in range(REPEATS))
    per_op_ns = _noop_cost_ns()
    ops, traced_seconds = _facade_ops(design)
    overhead = ops * per_op_ns / 1e9 / wall

    lines = [
        "Observability overhead on isolate_design(soc_datapath(width=12)), "
        f"cycles={CYCLES}",
        "",
        f"  wall time, tracing disabled : {wall:8.3f} s "
        f"(median of {REPEATS})",
        f"  wall time, tracing enabled  : {traced_seconds:8.3f} s "
        f"({traced_seconds / wall - 1.0:+.1%}, informational)",
        f"  no-op facade cost           : {per_op_ns:8.1f} ns/op",
        f"  facade operations per run   : {ops:8d}",
        f"  disabled-mode overhead bound: {overhead:8.4%} "
        f"(budget {OVERHEAD_BUDGET:.0%})",
    ]
    record("perf_obs_overhead", "\n".join(lines))

    assert overhead < OVERHEAD_BUDGET, (
        f"no-op observability overhead bound {overhead:.3%} exceeds "
        f"{OVERHEAD_BUDGET:.0%}"
    )
