"""End-to-end integration tests across the full pipeline.

These run the complete flow (design → simulate → model → isolate →
re-measure → verify) on every benchmark design and check the paper-level
facts hold: meaningful savings on idle datapaths, equivalence, bounded
overheads, and sane iteration behaviour.
"""

import pytest

from repro.core import compare_styles
from repro.netlist import textio
from repro.netlist.validate import validate_design
from repro.netlist.verilog import to_verilog
from repro.opt import IsolationConfig, isolate_design
from repro.power import estimate_power, format_power_report
from repro.runconfig import RunConfig
from repro.sim import ControlStream, random_stimulus
from repro.verify import check_observable_equivalence


def stimulus_for(design, seed=13, idle=True):
    overrides = {}
    names = {pi.name for pi in design.primary_inputs}
    if "EN" in names:
        overrides["EN"] = ControlStream(0.2 if idle else 0.9, 0.05)
    if "BYP" in names:
        overrides["BYP"] = ControlStream(0.8 if idle else 0.1, 0.05)
    if "GO" in names:
        overrides["GO"] = ControlStream(0.3, 0.2)

    def make():
        return random_stimulus(
            design, seed=seed, control_probability=0.3, overrides=overrides or None
        )

    return make


@pytest.mark.parametrize(
    "fixture_name", ["fig1", "d1", "d2", "fir", "alu", "bus"]
)
def test_full_flow_on_every_benchmark(fixture_name, request):
    design = request.getfixturevalue(fixture_name)
    stim = stimulus_for(design)
    result = isolate_design(design, stim, IsolationConfig(cycles=600))

    validate_design(result.design)
    assert result.final.power_mw <= result.baseline.power_mw * 1.001
    assert result.final.worst_slack >= 0  # timing still met

    report = check_observable_equivalence(design, result.design, stim(), 1200)
    assert report.equivalent, report.mismatches[:3]

    # The transformed design survives serialisation round trips.
    assert textio.loads(textio.dumps(result.design)).stats() == result.design.stats()
    assert "endmodule" in to_verilog(result.design)


def test_savings_track_idleness_on_design1(d1):
    idle = isolate_design(
        d1, stimulus_for(d1, idle=True), IsolationConfig(cycles=600)
    )
    busy = isolate_design(
        d1, stimulus_for(d1, idle=False), IsolationConfig(cycles=600)
    )
    assert idle.power_reduction > busy.power_reduction


def test_style_comparison_consistency(d1):
    stim = stimulus_for(d1)
    comparison = compare_styles(d1, stim, IsolationConfig(cycles=500))
    base = comparison.row("non-isolated")
    for label in ("AND-isolated", "OR-isolated", "LAT-isolated"):
        row = comparison.row(label)
        assert row.power_mw < base.power_mw
        assert row.area > base.area
        # Recorded deltas agree with the absolute columns.
        assert row.power_reduction == pytest.approx(
            1 - row.power_mw / base.power_mw, abs=1e-9
        )


def test_power_report_of_isolated_design_shows_overhead(d1):
    stim = stimulus_for(d1)
    result = isolate_design(d1, stim, IsolationConfig(cycles=500))
    breakdown = estimate_power(result.design, stim(), run=RunConfig(cycles=500))
    text = format_power_report(result.design, breakdown)
    assert "isolation banks" in text
    assert breakdown.overhead_power_mw > 0
    # Overhead stays a small fraction of the total.
    assert breakdown.overhead_power_mw < 0.25 * breakdown.total_power_mw


def test_iterative_behaviour_is_monotone(d1):
    """Measured total power never increases across iterations."""
    stim = stimulus_for(d1)
    result = isolate_design(d1, stim, IsolationConfig(cycles=600))
    measured = [r.total_power_mw for r in result.iterations if r.total_power_mw > 0]
    assert all(b <= a * 1.05 for a, b in zip(measured, measured[1:]))


def test_repeated_runs_are_deterministic(d2):
    stim = lambda: random_stimulus(d2, seed=11)
    first = isolate_design(d2, stim, IsolationConfig(cycles=400))
    second = isolate_design(d2, stim, IsolationConfig(cycles=400))
    assert first.isolated_names == second.isolated_names
    assert first.final.power_mw == pytest.approx(second.final.power_mw)
