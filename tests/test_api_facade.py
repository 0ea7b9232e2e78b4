"""The repro.api facade: Session, load/loads, and import-path stability."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro.designs as designs
from repro import api
from repro.netlist import textio


@pytest.fixture
def session():
    return api.Session(designs.paper_example(), run=api.RunConfig(cycles=200))


class TestSession:
    def test_estimate(self, session):
        breakdown = session.estimate()
        assert breakdown.total_power_mw > 0

    def test_isolate(self, session):
        result = session.isolate(style="and")
        assert result.isolated_names == ["a1"]
        assert result.final.power_mw < result.baseline.power_mw

    def test_rank(self, session):
        ranked = session.rank()
        assert ranked[0].name == "a1"

    def test_compare(self, session):
        comparison = session.compare(styles=["and"])
        assert [row.label for row in comparison.rows] == [
            "non-isolated",
            "AND-isolated",
        ]

    def test_activation(self, session):
        analysis = session.activation()
        module = session.design.cell("a1")
        assert analysis.of_module(module) is not None

    def test_simulate(self, session):
        result = session.simulate()
        assert result.cycles == 200

    def test_compiled_engine_matches_python(self):
        base = api.Session(designs.design1(), run=api.RunConfig(cycles=300))
        fast = api.Session(
            designs.design1(), run=api.RunConfig(cycles=300, engine="compiled")
        )
        py = base.isolate(style="and")
        comp = fast.isolate(style="and")
        assert py.isolated_names == comp.isolated_names
        assert py.final.power_mw == pytest.approx(comp.final.power_mw, abs=1e-12)

    def test_per_call_run_override(self, session):
        result = session.isolate(run=api.RunConfig(cycles=120, engine="compiled"))
        assert result.config.cycles == 120
        assert result.config.engine == "compiled"

    def test_stimulus_is_fresh_per_run(self, session):
        first = session.estimate().total_power_mw
        second = session.estimate().total_power_mw
        assert first == second  # same seed -> identical statistics

    def test_explicit_stimulus_object_is_copied(self):
        design = designs.paper_example()
        from repro.sim.stimulus import random_stimulus

        stim = random_stimulus(design, seed=9)
        session = api.Session(design, stimulus=stim, run=api.RunConfig(cycles=150))
        assert session.estimate().total_power_mw == session.estimate().total_power_mw

    def test_explicit_config_object(self, session):
        config = api.IsolationConfig(style="or", cycles=150)
        result = session.isolate(config=config)
        assert result.config.style == "or"

    def test_run_config_applies_with_explicit_config(self):
        run = api.RunConfig(cycles=300, engine="compiled", workers=1)
        session = api.Session(designs.design1(), run=run)
        config = api.IsolationConfig(style="and", workers=1)
        results = [
            session.optimize(config=config),
            session.optimize(style="and"),
            session.optimize(config=config, run=run),
        ]
        for result in results:
            assert result.config.cycles == 300
            assert result.config.warmup == run.warmup
            assert result.config.engine == "compiled"
            assert result.timings.engine == "compiled"
        baselines = {result.baseline.power_mw for result in results}
        assert len(baselines) == 1


class TestLoadLoads:
    def test_loads_round_trip(self):
        text = textio.dumps(designs.paper_example())
        session = api.loads(text, run=api.RunConfig(cycles=100))
        assert session.design.name == "paper_fig1"
        assert session.estimate().total_power_mw > 0

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "d.rtl"
        textio.save(designs.paper_example(), str(path))
        session = api.load(str(path))
        assert session.design.name == "paper_fig1"


class TestImportPathStability:
    """Old deep-import paths must keep working after the facade landed."""

    def test_core_paths(self):
        from repro.core import (  # noqa: F401
            compare_styles,
            derive_activation_functions,
            find_candidates,
            isolate_candidate,
            rank_candidates,
        )
        from repro.opt import IsolationConfig, isolate_design  # noqa: F401

    @pytest.mark.parametrize(
        "module",
        [
            "repro.opt",
            "repro.opt.framework",
            "repro.core",
            "repro.core.report",
            "repro.baselines.clock_gating",
            "repro.parallel.scoring",
            "repro.api",
            "repro.cli",
            "repro.serve.jobs",
        ],
    )
    def test_imports_first_in_a_fresh_interpreter(self, module):
        # repro.opt imports repro.core submodules, so repro.core must not
        # import repro.opt at module level: any cycle fails here.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_sim_paths(self):
        from repro.sim import Simulator, simulate  # noqa: F401
        from repro.sim.engine import Simulator as DeepSimulator  # noqa: F401
        from repro.sim.monitor import ToggleMonitor  # noqa: F401
        from repro.sim.stimulus import random_stimulus  # noqa: F401

    def test_power_paths(self):
        from repro.power import estimate_power  # noqa: F401
        from repro.power.estimator import PowerEstimator  # noqa: F401
        from repro.power.library import default_library  # noqa: F401

    def test_top_level_exports(self):
        import repro

        assert repro.RunConfig is api.RunConfig
        assert repro.api.Session is api.Session

    def test_facade_reexports(self):
        assert api.isolate_design is not None
        assert api.estimate_power is not None
        assert api.rank_candidates is not None
        assert api.compare_styles is not None
        assert api.StageTimings is not None
