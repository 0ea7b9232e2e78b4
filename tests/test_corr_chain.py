"""Tests for the phase-correlated chain design and iterative Eq.(2) use."""

import pytest

from repro.boolean.bdd import BddManager
from repro.boolean.expr import or_, var
from repro.core import derive_activation_functions
from repro.core.candidates import find_candidates
from repro.core.isolate import isolate_candidate
from repro.designs import correlated_chain
from repro.opt import IsolationConfig, isolate_design
from repro.sim import random_stimulus
from repro.verify import check_observable_equivalence


class TestCorrelatedChain:
    def test_activation_functions(self):
        design = correlated_chain()
        analysis = derive_activation_functions(design)
        manager = BddManager()
        assert manager.equivalent(
            analysis.of_module(design.cell("mul0")), or_(var("ph0"), var("ph1"))
        )
        assert manager.equivalent(
            analysis.of_module(design.cell("add0")), var("ph1")
        )

    def test_isolation_style_detected_on_rederive(self):
        design = correlated_chain()
        working = design.copy()
        analysis = derive_activation_functions(working)
        isolate_candidate(
            working, working.cell("mul0"),
            analysis.of_module(working.cell("mul0")), "or",
        )
        candidates = find_candidates(working)
        mul0 = next(c for c in candidates if c.name == "mul0")
        assert mul0.isolated
        assert mul0.isolation_style == "or"

    def test_full_algorithm_iterates_through_chain(self):
        design = correlated_chain()

        def stim():
            return random_stimulus(design, seed=5)

        result = isolate_design(design, stim, IsolationConfig(cycles=800))
        assert "mul0" in result.isolated_names
        # The chain is one combinational block: mul0 and add0 must be
        # isolated in different iterations (one per block per pass).
        if "add0" in result.isolated_names:
            iterations_of = {
                name: record.index
                for record in result.iterations
                for name in [t.target for t in record.applied]
            }
            assert iterations_of["mul0"] != iterations_of["add0"]
        report = check_observable_equivalence(design, result.design, stim(), 1500)
        assert report.equivalent

    def test_power_reduction_positive(self):
        design = correlated_chain()

        def stim():
            return random_stimulus(design, seed=5)

        result = isolate_design(design, stim, IsolationConfig(cycles=800))
        assert result.power_reduction > 0.2
