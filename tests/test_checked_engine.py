"""The checked engine: lockstep cross-checking and graceful degradation."""

import warnings

import pytest

from repro.designs import design1, paper_example
from repro.errors import CompilationError, EquivalenceError, SimulationError
from repro.sim import (
    CheckedSimulator,
    CompiledSimulator,
    EngineDivergence,
    Simulator,
    ToggleMonitor,
    compile_design,
    make_simulator,
    random_stimulus,
)
from repro.sim import compile as compile_mod
from repro.sim import engine as engine_mod
from repro.sim.checked import DEFAULT_CHECK_INTERVAL


def test_make_simulator_checked():
    sim = make_simulator(design1(), "checked")
    assert isinstance(sim, CheckedSimulator)
    assert sim.fallback_reason is None


def test_checked_matches_python_engine():
    design = design1()
    cycles, warmup = 300, 16

    mon_ref = ToggleMonitor()
    Simulator(design).run(
        random_stimulus(design, seed=5), cycles, monitors=[mon_ref], warmup=warmup
    )
    mon_chk = ToggleMonitor()
    checked = CheckedSimulator(design, check_interval=50)
    checked.run(
        random_stimulus(design, seed=5), cycles, monitors=[mon_chk], warmup=warmup
    )
    assert checked.checks_performed >= (cycles + warmup) // 50
    for net in design.nets:
        assert mon_chk.toggles[net] == mon_ref.toggles[net], net.name


def test_checked_catches_seeded_compiled_bug():
    """The acceptance regression: a deliberately corrupted compiled
    program must be caught at the first cross-check, not averaged into
    the results."""
    design = design1()
    program = compile_design(design)
    compiled = CompiledSimulator(design, program=program)

    # Seed the bug: after the first block settles, flip a bit of one
    # intermediate net — a model of a miscompiled expression.
    block = program.blocks[0]
    original_fn = block.fn

    def corrupted(v, st, ctx):
        original_fn(v, st, ctx)
        v[5] ^= 1

    block.fn = corrupted
    try:
        checked = CheckedSimulator(design, compiled=compiled)
        with pytest.raises(EquivalenceError) as excinfo:
            checked.run(random_stimulus(design, seed=0), 300)
        message = str(excinfo.value)
        assert "diverged" in message
        assert f"cycle {DEFAULT_CHECK_INTERVAL}" in message
        assert "check #1" in message
        assert program.design_hash[:12] in message
    finally:
        block.fn = original_fn  # the program is globally cached


def test_divergences_lists_nets_and_state():
    design = paper_example()
    checked = CheckedSimulator(design)
    stim = random_stimulus(design, seed=2)
    for cycle in range(10):
        checked.step(stim.values(checked.cycle))
        checked.commit()
    assert checked.divergences() == []
    # Corrupt one compiled net value in place and expect it reported.
    checked.compiled._values[3] ^= 1
    found = checked.divergences()
    assert found and isinstance(found[0], EngineDivergence)
    assert found[0].kind in ("net", "state")
    assert "reference=" in str(found[0])


def test_check_interval_validation():
    with pytest.raises(EquivalenceError):
        CheckedSimulator(design1(), check_interval=0)


def test_final_check_covers_short_runs():
    design = paper_example()
    checked = CheckedSimulator(design, check_interval=1000)
    checked.run(random_stimulus(design, seed=0), 10)
    assert checked.checks_performed == 1  # the final tail check


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------
class _AlwaysFails:
    def __init__(self, design, *args, **kwargs):
        raise CompilationError("synthetic lowering failure", unit="settle_0")


@pytest.mark.parametrize("engine", ["compiled", "checked"])
def test_compilation_failure_degrades_to_python(monkeypatch, engine):
    monkeypatch.setattr(compile_mod, "CompiledSimulator", _AlwaysFails)
    if engine == "checked":
        import repro.sim.checked as checked_mod

        monkeypatch.setattr(checked_mod, "CompiledSimulator", _AlwaysFails)

    design = design1()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sim = make_simulator(design, engine)
    assert isinstance(sim, Simulator)
    assert sim.fallback_reason is not None
    assert "synthetic lowering failure" in sim.fallback_reason
    degradations = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(degradations) == 1
    assert "falling back" in str(degradations[0].message)

    # The degraded simulator still works.
    result = sim.run(random_stimulus(design, seed=0), 20)
    assert result.cycles == 20


def test_fallback_reason_lands_in_stage_timings(monkeypatch):
    from repro.opt import IsolationConfig, isolate_design

    monkeypatch.setattr(compile_mod, "CompiledSimulator", _AlwaysFails)
    design = design1()
    config = IsolationConfig(cycles=120, engine="compiled")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = isolate_design(
            design, lambda: random_stimulus(design, seed=0), config
        )
    assert result.timings.fallback_reason is not None
    assert "synthetic lowering failure" in result.timings.fallback_reason
    assert result.timings.to_dict()["fallback_reason"] == (
        result.timings.fallback_reason
    )
    assert "degraded" in result.summary()


def test_no_fallback_reason_on_healthy_run():
    from repro.opt import IsolationConfig, isolate_design

    design = paper_example()
    config = IsolationConfig(cycles=120, engine="checked")
    result = isolate_design(design, lambda: random_stimulus(design, seed=0), config)
    assert result.timings.fallback_reason is None
    assert "degraded" not in result.summary()


def test_typed_errors_still_propagate(monkeypatch):
    """Only CompilationError triggers degradation; design-level typed
    errors would fail on any backend and must surface unchanged."""

    class Explodes:
        def __init__(self, design, *args, **kwargs):
            raise SimulationError("design-level problem")

    monkeypatch.setattr(compile_mod, "CompiledSimulator", Explodes)
    with pytest.raises(SimulationError):
        make_simulator(design1(), "compiled")
