"""Tests for the style-comparison reporting (Tables 1/2 format)."""

import pytest

from repro.core.report import compare_styles, format_comparison_table
from repro.opt import IsolationConfig
from repro.sim.stimulus import ControlStream, random_stimulus


@pytest.fixture(scope="module")
def comparison():
    from repro.designs import design1

    design = design1()

    def stim():
        return random_stimulus(
            design,
            seed=7,
            control_probability=0.35,
            overrides={"EN": ControlStream(0.2, 0.05)},
        )

    return compare_styles(design, stim, IsolationConfig(cycles=500))


class TestComparison:
    def test_all_rows_present(self, comparison):
        labels = [row.label for row in comparison.rows]
        assert labels == [
            "non-isolated",
            "AND-isolated",
            "OR-isolated",
            "LAT-isolated",
        ]

    def test_baseline_has_no_deltas(self, comparison):
        base = comparison.row("non-isolated")
        assert base.power_reduction is None
        assert base.area_increase is None

    def test_isolated_rows_have_reductions(self, comparison):
        for label in ("AND-isolated", "OR-isolated", "LAT-isolated"):
            row = comparison.row(label)
            assert row.power_reduction is not None and row.power_reduction > 0
            assert row.area_increase is not None and row.area_increase > 0

    def test_results_accessible_by_style(self, comparison):
        assert set(comparison.results) == {"and", "or", "latch"}

    def test_format_produces_table(self, comparison):
        text = format_comparison_table(comparison)
        assert "non-isolated" in text
        assert "Power[mW]" in text
        assert "%red" in text

    def test_missing_row_raises(self, comparison):
        with pytest.raises(KeyError):
            comparison.row("GHOST")
