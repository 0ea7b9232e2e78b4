"""Rewrite scoring is exact: the score's replacement power is what the
applied rewrite measures.

``score_rewrite`` prices a plan's replacement cells from a replay of the
traced boundary values, without touching the design. Applying the same
plan in place and re-simulating the same stimulus over the same window
must give those cells exactly the same power, to the last bit.
"""

from __future__ import annotations

import pytest

from repro.core.cost import CostWeights
from repro.designs import fir_datapath, soc_datapath
from repro.netlist.splice import GraftBuilder, splice_readers
from repro.power.estimator import PowerEstimator
from repro.power.library import default_library
from repro.rewrite import ValueTrace, find_rewrites, score_rewrite
from repro.sim import ToggleMonitor, make_simulator
from repro.sim.stimulus import random_stimulus

CYCLES = 500
WARMUP = 16
SEED = 1


def measure(design, extra_monitors=()):
    monitor = ToggleMonitor()
    make_simulator(design, "compiled").run(
        random_stimulus(design, seed=SEED),
        CYCLES,
        monitors=[monitor, *extra_monitors],
        warmup=WARMUP,
    )
    return monitor


def plan_cases():
    return [
        (make, index)
        for make in (fir_datapath, soc_datapath)
        for index in range(len(find_rewrites(make())))
    ]


@pytest.mark.parametrize(
    "make, index",
    plan_cases(),
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_score_matches_the_applied_rewrite(make, index):
    library = default_library()
    estimator = PowerEstimator(library)
    design = make()
    plan = find_rewrites(design)[index]
    trace = ValueTrace(plan.sources)
    monitor = measure(design, [trace])
    if plan.prepare is not None:
        plan.prepare(plan, monitor)
    score = score_rewrite(
        plan,
        trace,
        monitor,
        estimator.breakdown(design, monitor).total_power_mw,
        library.total_area(design),
        CostWeights(),
        library,
        estimator=estimator,
    )

    graft = GraftBuilder(design)
    splice_readers(design, plan.out_net, plan.build(graft, plan.sources))
    design.sweep_dangling()
    applied = measure(design)
    after_pj = sum(estimator.cell_energy(cell, applied) for cell in graft.cells)
    assert score.after_mw == library.power_mw(after_pj)
