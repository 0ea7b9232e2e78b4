"""Pinned rewrite→isolate suite over every shipped design.

The rewriting pass restructures arithmetic before isolation sees it, so
its contract is stronger than "each rewrite checked at apply time": the
*composed* ``("rewrite", "isolation")`` flow must leave every shipped
design observably equivalent to the original — serial and with a worker
pool — with no silent faults on the transformed netlist, and it must
strictly beat isolation alone where rewrites fire (the headline claim,
benchmarked in ``benchmarks/test_perf_rewrite.py``).
"""

from __future__ import annotations

import functools
import os

import pytest

import repro.designs as designs
from repro.opt import IsolationConfig
from repro.opt import optimize
from repro.sim.compile import design_fingerprint
from repro.sim.stimulus import random_stimulus
from repro.verify import check_observable_equivalence
from repro.verify.faults import run_campaign

#: Every shipped design generator (mirrors tests/test_opt_equivalence.py).
MAKERS = [
    "paper_example",
    "design1",
    "design2",
    "fir_datapath",
    "alu_control_dominated",
    "shared_bus_datapath",
    "lookahead_pipeline",
    "correlated_chain",
    "cordic_pipeline",
    "soc_datapath",
    "random_datapath",
]

#: Designs where the rewriter provably fires (constant-coefficient
#: multipliers with sparse popcounts plus reassociable adder chains).
REWRITING_MAKERS = ["fir_datapath", "soc_datapath"]

CYCLES = 200
VERIFY_CYCLES = 400


def recipe(maker: str, workers: int):
    design = getattr(designs, maker)()
    config = IsolationConfig(cycles=CYCLES, engine="compiled", workers=workers)

    def stimulus():
        return random_stimulus(design, seed=1)

    return design, stimulus, config


@functools.lru_cache(maxsize=None)
def optimized(maker: str, workers: int, passes: tuple):
    """One optimize run per (design, workers, pass list), shared by tests."""
    design, stimulus, config = recipe(maker, workers)
    return design, stimulus, optimize(
        design, stimulus, passes=passes, config=config
    )


@pytest.mark.parametrize("maker", MAKERS)
def test_rewrite_isolate_is_observably_equivalent(maker):
    """Serial composed flow: outputs and register state are preserved,
    checked through the lockstep python/compiled rig."""
    design, stimulus, result = optimized(maker, 1, ("rewrite", "isolation"))
    report = check_observable_equivalence(
        design, result.design, stimulus(), VERIFY_CYCLES, engine="checked"
    )
    assert report.equivalent, report.mismatches[:3]


@pytest.mark.parametrize("maker", MAKERS)
def test_rewrite_isolate_is_observably_equivalent_pooled(maker):
    """The workers=2 scoring path transforms identically to serial."""
    _, _, serial = optimized(maker, 1, ("rewrite", "isolation"))
    design, stimulus, pooled = optimized(maker, 2, ("rewrite", "isolation"))
    assert design_fingerprint(pooled.design) == design_fingerprint(
        serial.design
    )
    report = check_observable_equivalence(
        design, pooled.design, stimulus(), VERIFY_CYCLES
    )
    assert report.equivalent, report.mismatches[:3]


@pytest.mark.parametrize("maker", REWRITING_MAKERS)
def test_rewrites_fire_and_beat_isolation_alone(maker):
    """Where constant multipliers exist, rewrite→isolate strictly beats
    isolation alone in final estimated power."""
    _, _, iso_only = optimized(maker, 1, ("isolation",))
    _, _, composed = optimized(maker, 1, ("rewrite", "isolation"))
    assert composed.targets_of("rewrite"), "expected rewrites to apply"
    assert composed.final.power_mw < iso_only.final.power_mw
    # Rewriting must not crowd isolation out entirely.
    assert composed.isolated_names


@pytest.mark.parametrize("maker", REWRITING_MAKERS)
def test_rewritten_netlist_fault_campaign_quick(maker):
    """No silent faults on the rewritten-then-isolated netlist."""
    _, _, result = optimized(maker, 1, ("rewrite", "isolation"))
    report = run_campaign(result.design, per_kind=1, cycles=150)
    assert report.outcomes, "campaign must evaluate at least one fault"
    assert report.silent == []
    assert report.detection_rate == 1.0


@pytest.mark.campaign
@pytest.mark.skipif(
    not os.environ.get("REPRO_FULL_CAMPAIGN"),
    reason="full campaign is CI-only; set REPRO_FULL_CAMPAIGN=1",
)
@pytest.mark.parametrize("maker", MAKERS)
def test_rewritten_netlist_fault_campaign_full(maker):
    _, _, result = optimized(maker, 1, ("rewrite", "isolation"))
    report = run_campaign(result.design, per_kind=4, cycles=400)
    assert report.silent == []
    assert report.detection_rate == 1.0
