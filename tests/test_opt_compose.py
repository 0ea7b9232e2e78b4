"""Composing passes beats either alone, without changing behaviour.

The headline claim of the ``repro.opt`` redesign: operand isolation and
register clock gating target disjoint power components (redundant
datapath computation vs standing clock energy), so selecting across
both families under one budget strictly improves on each family alone.
Pinned here on the two designs where both families fire — ``soc`` and
the lookahead ``pipeline`` — together with the safety nets: observable
equivalence and a fault campaign over the transformed netlists.
"""

from __future__ import annotations

import os

import pytest

from repro.opt import IsolationConfig
from repro.designs import lookahead_pipeline, soc_datapath
from repro.opt import optimize
from repro.sim import ControlStream, random_stimulus
from repro.verify import check_observable_equivalence
from repro.verify.faults import run_campaign

ISO = ("isolation",)
CG = ("clock_gating",)
BOTH = ("isolation", "clock_gating")


def soc_recipe():
    design = soc_datapath()
    config = IsolationConfig(cycles=600, engine="compiled")

    def stimulus():
        return random_stimulus(
            design,
            seed=3,
            control_probability=0.3,
            overrides={"SYS_EN": ControlStream(0.25, 0.1)},
        )

    return design, stimulus, config


def pipeline_recipe():
    # Depth 0 finds no isolation candidates here; the pipeline's idle
    # windows only become visible to Algorithm 1 with one cycle of
    # control lookahead (see tests/test_lookahead.py).
    design = lookahead_pipeline()
    config = IsolationConfig(cycles=600, engine="compiled", lookahead_depth=1)

    def stimulus():
        return random_stimulus(
            design,
            seed=3,
            control_probability=0.25,
            overrides={
                "SEL_IN": ControlStream(0.3, 0.2),
                "G_IN": ControlStream(0.3, 0.2),
            },
        )

    return design, stimulus, config


RECIPES = {"soc": soc_recipe, "pipeline": pipeline_recipe}


def reductions(recipe):
    design, stimulus, config = recipe()
    results = {
        passes: optimize(design, stimulus, passes=passes, config=config)
        for passes in (ISO, CG, BOTH)
    }
    return results


@pytest.mark.parametrize("name", list(RECIPES))
def test_combined_beats_either_alone(name):
    results = reductions(RECIPES[name])
    iso = results[ISO].power_reduction
    cg = results[CG].power_reduction
    both = results[BOTH].power_reduction
    # Each family must contribute on its own...
    assert iso > 0
    assert cg > 0
    # ...and the joint run must strictly beat both.
    assert both > iso
    assert both > cg
    # The joint run applied transforms from both families.
    assert results[BOTH].isolated_names
    assert results[BOTH].gated_registers


@pytest.mark.parametrize("name", list(RECIPES))
def test_combined_design_is_observably_equivalent(name):
    design, stimulus, config = RECIPES[name]()
    result = optimize(design, stimulus, passes=BOTH, config=config)
    # Lookahead retimes activation, so register contents may legally
    # differ; outputs must not (same rule the CLI --verify-cycles uses).
    report = check_observable_equivalence(
        design,
        result.design,
        stimulus(),
        1000,
        compare_registers=config.lookahead_depth == 0,
    )
    assert report.equivalent, report.mismatches


def test_gated_netlist_fault_campaign_quick():
    """No silent faults on the fully transformed soc netlist."""
    design, stimulus, config = soc_recipe()
    result = optimize(design, stimulus, passes=BOTH, config=config)
    report = run_campaign(result.design, per_kind=1, cycles=150)
    assert report.silent == []
    assert report.detection_rate == 1.0


@pytest.mark.campaign
@pytest.mark.skipif(
    not os.environ.get("REPRO_FULL_CAMPAIGN"),
    reason="full campaign is CI-only; set REPRO_FULL_CAMPAIGN=1",
)
@pytest.mark.parametrize("name", list(RECIPES))
def test_transformed_netlist_fault_campaign_full(name):
    design, stimulus, config = RECIPES[name]()
    result = optimize(design, stimulus, passes=BOTH, config=config)
    report = run_campaign(result.design, per_kind=4, cycles=400)
    assert report.silent == []
    assert report.detection_rate == 1.0
