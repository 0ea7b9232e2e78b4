"""Tests for the power-savings model (paper Section 4)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.candidates import find_candidates
from repro.core.savings import SavingsModel
from repro.power.estimator import PowerEstimator
from repro.power.library import default_library
from repro.sim.engine import Simulator
from repro.sim.monitor import ToggleMonitor
from repro.sim.stimulus import ControlStream, random_stimulus


def measured_model(design, seed=1, p=0.3, overrides=None, cycles=1500):
    library = default_library()
    candidates = find_candidates(design)
    model = SavingsModel(design, candidates, library)
    monitor = ToggleMonitor()
    stim = random_stimulus(design, seed=seed, control_probability=p, overrides=overrides)
    Simulator(design).run(stim, cycles, monitors=[monitor, model.probes], warmup=16)
    model.calibrate(monitor)
    return model, candidates, monitor, library


def by_name(candidates, name):
    return next(c for c in candidates if c.name == name)


class TestMeasuredQuantities:
    def test_activation_probability_tracks_stimulus(self, d1):
        model, candidates, _m, _l = measured_model(
            d1, overrides={"EN": ControlStream(0.2, 0.1)}
        )
        mul0 = by_name(candidates, "mul0")
        assert model.activation_probability(mul0) == pytest.approx(0.2, abs=0.06)

    def test_scaled_rate_exceeds_average(self, d1):
        """Eq. (2): Tr' = Tr / Pr(AS) concentrates toggles in active cycles."""
        model, candidates, monitor, _l = measured_model(
            d1, overrides={"EN": ControlStream(0.25, 0.1)}
        )
        mul0 = by_name(candidates, "mul0")
        average = monitor.toggle_rate(mul0.cell.net("Y"))
        scaled = model.scaled_output_rate(mul0)
        assert scaled > average
        assert scaled == pytest.approx(
            average / model.activation_probability(mul0), rel=1e-9
        )

    def test_scaled_rate_zero_when_never_active(self, d1):
        model, candidates, _m, _l = measured_model(
            d1, overrides={"EN": ControlStream(0.0)}
        )
        mul0 = by_name(candidates, "mul0")
        assert model.scaled_output_rate(mul0) == 0.0

    def test_requires_calibration(self, d1):
        from repro.errors import IsolationError

        library = default_library()
        candidates = find_candidates(d1)
        model = SavingsModel(d1, candidates, library)
        with pytest.raises(IsolationError):
            model.primary_savings_simple(by_name(candidates, "mul0"))


class TestPrimarySavings:
    def test_savings_grow_with_idleness(self, d1):
        busy_model, busy_c, _m, _l = measured_model(
            d1, overrides={"EN": ControlStream(0.9, 0.1)}
        )
        idle_model, idle_c, _m2, _l2 = measured_model(
            d1, overrides={"EN": ControlStream(0.1, 0.1)}
        )
        busy = busy_model.primary_savings_simple(by_name(busy_c, "mul0"))
        idle = idle_model.primary_savings_simple(by_name(idle_c, "mul0"))
        assert idle > busy

    def test_refined_close_to_simple_for_env_fed_module(self, d1):
        """mul0's operands come straight from PIs: both models agree."""
        model, candidates, _m, _l = measured_model(
            d1, overrides={"EN": ControlStream(0.3, 0.1)}
        )
        mul0 = by_name(candidates, "mul0")
        simple = model.primary_savings_simple(mul0)
        refined = model.primary_savings(mul0)
        assert refined == pytest.approx(simple, rel=0.15)

    def test_multiplier_saves_more_than_adder(self, d1):
        model, candidates, _m, _l = measured_model(
            d1, overrides={"EN": ControlStream(0.3, 0.1)}
        )
        assert model.primary_savings(
            by_name(candidates, "mul0")
        ) > model.primary_savings(by_name(candidates, "add0"))

    def test_prediction_tracks_measured_savings(self, d1):
        """Ablation C in miniature: predicted ΔP vs measured ΔP."""
        from repro.core.isolate import isolate_candidate

        overrides = {"EN": ControlStream(0.2, 0.05)}
        model, candidates, monitor, library = measured_model(
            d1, overrides=overrides, cycles=3000
        )
        mul0 = by_name(candidates, "mul0")
        predicted = model.estimate(mul0, "and").net_mw

        baseline = PowerEstimator(library).breakdown(d1, monitor).total_power_mw
        working = d1.copy()
        wc = find_candidates(working)
        isolate_candidate(
            working, working.cell("mul0"), by_name(wc, "mul0").activation, "and"
        )
        monitor2 = ToggleMonitor()
        stim = random_stimulus(
            working, seed=1, control_probability=0.3, overrides=overrides
        )
        Simulator(working).run(stim, 3000, monitors=[monitor2], warmup=16)
        after = PowerEstimator(library).breakdown(working, monitor2).total_power_mw
        measured = baseline - after
        assert predicted == pytest.approx(measured, rel=0.35)


class TestSecondarySavings:
    def test_fanout_candidate_sees_secondary_savings(self, fig1):
        model, candidates, _m, _l = measured_model(fig1, p=0.3)
        a1 = by_name(candidates, "a1")
        assert a1.fanout  # a1 feeds a0
        assert model.secondary_savings(a1) >= 0.0

    def test_no_fanout_no_secondary(self, fig1):
        model, candidates, _m, _l = measured_model(fig1, p=0.3)
        a0 = by_name(candidates, "a0")
        assert model.secondary_savings(a0) == 0.0

    def test_isolated_sink_reduces_secondary(self, fig1):
        """The z_j decision variable: isolating a0 first shrinks what
        isolating a1 can additionally save inside a0."""
        model, candidates, _m, _l = measured_model(fig1, p=0.3)
        a1 = by_name(candidates, "a1")
        before = model.secondary_savings(a1)
        by_name(candidates, "a0").isolated = True
        after = model.secondary_savings(a1)
        assert after <= before + 1e-12


class TestOverhead:
    def test_latch_overhead_exceeds_gate_overhead_for_long_bursts(self, d1):
        """With rare activation edges the gate banks' forced-transition
        penalty vanishes while the latches' standing cost remains."""
        model, candidates, _m, _l = measured_model(
            d1, overrides={"EN": ControlStream(0.3, 0.01)}
        )
        mul0 = by_name(candidates, "mul0")
        assert model.overhead(mul0, "latch") > model.overhead(mul0, "and")

    def test_gate_overhead_grows_with_activation_toggle_rate(self, d1):
        """The forced-transition penalty scales with activation edges."""
        slow_model, slow_c, _m, _l = measured_model(
            d1, overrides={"EN": ControlStream(0.3, 0.02)}
        )
        fast_model, fast_c, _m2, _l2 = measured_model(
            d1, overrides={"EN": ControlStream(0.3, 0.4)}
        )
        slow = slow_model.overhead(by_name(slow_c, "mul0"), "and")
        fast = fast_model.overhead(by_name(fast_c, "mul0"), "and")
        assert fast > slow

    def test_overhead_positive(self, d1):
        model, candidates, _m, _l = measured_model(d1, p=0.3)
        for c in candidates:
            for style in ("and", "or", "latch"):
                assert model.overhead(c, style) > 0

    def test_estimate_bundles_terms(self, d1):
        model, candidates, _m, _l = measured_model(
            d1, overrides={"EN": ControlStream(0.2, 0.1)}
        )
        mul0 = by_name(candidates, "mul0")
        estimate = model.estimate(mul0, "and")
        assert estimate.net_mw == pytest.approx(
            estimate.primary_mw + estimate.secondary_mw - estimate.overhead_mw
        )
        assert estimate.idle_probability == pytest.approx(0.8, abs=0.06)


_DIGEST_SCRIPT = """
from repro import api, designs
from repro.sim.stimulus import random_stimulus
from repro.serve.durable import payload_digest

design = designs.alu_control_dominated()
session = api.Session(
    design,
    stimulus=random_stimulus(design, seed=1124811946),
    run=api.RunConfig(cycles=2000, seed=1124811946, engine="compiled", workers=1),
)
payload = session.optimize(passes=["isolation"], style="and").to_dict()
payload.pop("timings")
print(payload_digest(payload))
"""


def test_scores_do_not_depend_on_the_hash_seed():
    """h(c) and net_mw — and so the payload digest the result stores
    check — come out the same in every process, whatever the hash seed
    that orders the activation function's support set."""
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_root)
        completed = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
            check=True,
        )
        digests.add(completed.stdout.strip())
    assert len(digests) == 1
