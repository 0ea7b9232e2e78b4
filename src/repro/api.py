"""The one-stop facade: ``repro.api``.

Everything the library does — power estimation, candidate ranking,
low-power optimization (operand isolation, clock gating, and any
registered :mod:`repro.opt` pass), style comparison, activation
derivation — is reachable from one :class:`Session` object bound to a
design, a stimulus recipe and a :class:`~repro.runconfig.RunConfig`::

    from repro import api

    session = api.Session(designs.design1(), run=api.RunConfig(engine="compiled"))
    print(session.estimate().total_power_mw)
    print(session.optimize(passes=["isolation", "clock_gating"]).summary())
    print(api.format_ranking(session.rank()))

Designs come from :func:`load` / :func:`loads` (textual netlist format)
or any generator in :mod:`repro.designs`. When no stimulus is given, a
fresh :func:`~repro.sim.stimulus.random_stimulus` with the session's
seed is built per run, so repeated calls see identical statistics.

The deep import paths (``repro.opt.isolate_design``,
``repro.power.estimate_power``, ...) keep working; this module only
bundles them. See ``docs/api.md`` for the full facade map.
"""

from __future__ import annotations

import contextlib
import copy
from typing import List, Optional

from repro import obs
from repro.core.activation import ActivationAnalysis, derive_activation_functions
from repro.core.cost import CostWeights
from repro.core.explore import RankedCandidate, format_ranking, rank_candidates
from repro.core.report import (
    StyleComparison,
    compare_styles,
    format_comparison_table,
)
from repro.diagnostics import Diagnostic
from repro.netlist import textio
from repro.netlist.design import Design
from repro.netlist.validate import validation_problems
from repro.opt import (
    IsolationConfig,
    OptimizeResult,
    StageTimings,
    available_passes,
    isolate_design,
    optimize,
)
from repro.power.estimator import (
    PowerBreakdown,
    PowerInterval,
    estimate_power,
    estimate_power_ci,
)
from repro.power.library import TechnologyLibrary, default_library
from repro.runconfig import ENGINES, RunConfig
from repro.sim.compile import design_fingerprint
from repro.sim.engine import SimulationResult, make_simulator
from repro.sim.stimulus import Stimulus, random_stimulus


class Session:
    """A design plus its run context, with every analysis one call away.

    Parameters
    ----------
    design:
        The design under analysis (never modified; transforms work on
        copies, as in :func:`~repro.opt.optimize`).
    stimulus:
        A stimulus object (deep-copied per run so every run sees
        identical statistics), a zero-argument factory returning a fresh
        stimulus, or ``None`` to use a random stimulus seeded with
        ``run.seed``.
    library:
        Technology library; defaults to
        :func:`~repro.power.library.default_library`.
    run:
        Default :class:`RunConfig` for every method; each method also
        accepts a per-call ``run=`` override. With ``trace=True`` every
        run records spans and metrics into the session's observability
        recorder — read them back with :meth:`trace` / :meth:`metrics`
        or export with :meth:`write_trace`.
    """

    def __init__(
        self,
        design: Design,
        stimulus=None,
        library: Optional[TechnologyLibrary] = None,
        run: Optional[RunConfig] = None,
    ) -> None:
        self.design = design
        self.library = library or default_library()
        self.run = run or RunConfig()
        self._stimulus = stimulus
        self._recorder: Optional[obs.Recorder] = None

    # ------------------------------------------------------------------
    def _run(self, run: Optional[RunConfig]) -> RunConfig:
        return run if run is not None else self.run

    def _recording(self, run: Optional[RunConfig]):
        """Context manager activating the session recorder when tracing.

        Traced runs share one recorder, so the session trace accumulates
        every traced call made through this facade.
        """
        if not self._run(run).trace:
            return contextlib.nullcontext()
        if self._recorder is None:
            self._recorder = obs.Recorder()
        return obs.use(self._recorder)

    # ------------------------------------------------------------------
    def trace(self) -> List[obs.Span]:
        """Spans recorded by traced runs (empty before the first one)."""
        return self._recorder.tracer.roots if self._recorder else []

    def metrics(self) -> obs.MetricsRegistry:
        """Metrics recorded by traced runs (empty before the first one)."""
        return self._recorder.metrics if self._recorder else obs.MetricsRegistry()

    def write_trace(self, path: str) -> None:
        """Export the session trace as Chrome trace-event JSON (Perfetto)."""
        obs.write_chrome_trace(
            path, self.trace(), metrics=self.metrics().to_dict()
        )

    def stimulus(self, run: Optional[RunConfig] = None) -> Stimulus:
        """One fresh stimulus per call (identical statistics each time)."""
        if self._stimulus is None:
            return random_stimulus(self.design, seed=self._run(run).seed)
        if callable(self._stimulus) and not hasattr(self._stimulus, "values"):
            return self._stimulus()
        return copy.deepcopy(self._stimulus)

    def _stimulus_source(self, run: Optional[RunConfig]):
        # optimize draws the stimulus once per call (compare_styles once
        # per style); hand them a factory.
        return lambda: self.stimulus(run)

    def _config(
        self,
        config: Optional[IsolationConfig],
        style: Optional[str],
        run: Optional[RunConfig],
    ) -> IsolationConfig:
        """The caller's config (or the default) with the effective
        RunConfig's cycles, warmup, engine and workers."""
        if config is None:
            config = IsolationConfig(style=style or "and")
        elif style is not None and style != config.style:
            import dataclasses

            config = dataclasses.replace(config, style=style)
        return config.with_run(self._run(run))

    # ------------------------------------------------------------------
    def simulate(
        self, monitors=None, run: Optional[RunConfig] = None
    ) -> SimulationResult:
        """Run the session's stimulus through the design once."""
        cfg = self._run(run)
        with self._recording(run):
            return make_simulator(self.design, cfg.engine).run(
                self.stimulus(run), cfg.cycles, monitors=monitors, warmup=cfg.warmup
            )

    def estimate(self, run: Optional[RunConfig] = None) -> PowerBreakdown:
        """Power breakdown of the design under the session stimulus."""
        with self._recording(run):
            return estimate_power(
                self.design,
                self.stimulus(run),
                library=self.library,
                run=self._run(run),
            )

    def estimate_ci(
        self,
        batch_size: int = 32,
        run: Optional[RunConfig] = None,
        stimulus_kwargs: Optional[dict] = None,
    ) -> PowerInterval:
        """Monte-Carlo power estimate with a 95% confidence interval.

        Runs ``batch_size`` independent replications through the sharded
        batch engine (parallel when ``run.workers > 1``; bit-exact across
        worker counts and across engines — ``engine="bitslice"`` maps
        replications onto packed bit lanes and is the fastest backend
        here). The replications use a fresh
        :class:`~repro.sim.batch.BatchRandomStimulus` derived from the
        session seed — the session's own stimulus object, if any, is not
        consulted (the batch engine generates its lanes vectorised).
        """
        with self._recording(run):
            return estimate_power_ci(
                self.design,
                batch_size=batch_size,
                run=self._run(run),
                library=self.library,
                stimulus_kwargs=stimulus_kwargs,
            )

    def optimize(
        self,
        passes=("isolation", "clock_gating"),
        style: Optional[str] = None,
        config: Optional[IsolationConfig] = None,
        run: Optional[RunConfig] = None,
    ) -> OptimizeResult:
        """Run the greedy low-power loop with the named transform passes.

        This is the primary optimization entry point: ``passes`` lists
        registered pass families (see
        :func:`repro.opt.available_passes`) competing under one shared
        ``CostWeights``/``h_min`` budget; the default applies operand
        isolation and register clock gating jointly.
        :meth:`isolate` is the isolation-only preset.
        """
        with self._recording(run):
            return optimize(
                self.design,
                self._stimulus_source(run),
                passes=passes,
                config=self._config(config, style, run),
                library=self.library,
            )

    def isolate(
        self,
        style: Optional[str] = None,
        config: Optional[IsolationConfig] = None,
        run: Optional[RunConfig] = None,
    ) -> OptimizeResult:
        """Run Algorithm 1: :meth:`optimize` with ``passes=["isolation"]``."""
        return self.optimize(
            passes=("isolation",), style=style, config=config, run=run
        )

    def rank(
        self,
        style: str = "and",
        weights: Optional[CostWeights] = None,
        clock_period: Optional[float] = None,
        lookahead_depth: int = 0,
        run: Optional[RunConfig] = None,
    ) -> List[RankedCandidate]:
        """What-if assessment of every candidate, best first."""
        with self._recording(run):
            return rank_candidates(
                self.design,
                self.stimulus(run),
                style=style,
                weights=weights,
                library=self.library,
                clock_period=clock_period,
                lookahead_depth=lookahead_depth,
                run=self._run(run),
            )

    def compare(
        self,
        styles: Optional[List[str]] = None,
        config: Optional[IsolationConfig] = None,
        run: Optional[RunConfig] = None,
    ) -> StyleComparison:
        """Paper-style table comparing isolation styles."""
        with self._recording(run):
            return compare_styles(
                self.design,
                self._stimulus_source(run),
                self._config(config, None, run),
                self.library,
                styles=styles,
            )

    def activation(self) -> ActivationAnalysis:
        """Derived activation functions of every datapath module."""
        with self._recording(None):
            return derive_activation_functions(self.design)

    def sweep(
        self,
        spec: Optional[dict] = None,
        store=None,
        client=None,
        service=None,
        limit: Optional[int] = None,
        progress=None,
    ):
        """Design-space exploration anchored on this session's design.

        ``spec`` is a :class:`repro.sweep.SweepSpec` or its dict form;
        when the dict omits ``designs`` the session's design is the
        (single) designs axis, and when it omits ``run`` the session's
        :class:`RunConfig` applies to every point. The remaining
        arguments pass straight to :func:`repro.sweep.run_sweep` —
        ``store`` (an :class:`~repro.sweep.ExperimentStore` or
        directory path) makes the sweep resumable, ``client`` /
        ``service`` dispatch points through the serve layer instead of
        computing inline. Returns the
        :class:`~repro.sweep.SweepResult`. See ``docs/sweeps.md``.
        """
        from repro.sweep import SweepSpec, run_sweep

        if spec is None:
            spec = {}
        if isinstance(spec, dict):
            payload = dict(spec)
            if "designs" not in payload:
                payload["designs"] = [{"text": textio.dumps(self.design)}]
            if "run" not in payload:
                payload["run"] = self.run.to_dict()
            spec = SweepSpec.from_dict(payload)
        return run_sweep(
            spec,
            store=store,
            client=client,
            service=service,
            limit=limit,
            progress=progress,
        )

    def fingerprint(self) -> str:
        """Content-addressed fingerprint of the session's design.

        See :func:`repro.sim.compile.design_fingerprint`: structurally
        identical rebuilds collide, any structural edit changes the
        digest. Combined with :meth:`RunConfig.fingerprint` this is the
        identity under which :mod:`repro.serve` caches results.
        """
        return design_fingerprint(self.design)

    def validate(self, allow_dangling: bool = False) -> List[Diagnostic]:
        """Structural diagnostics of the design (empty list = healthy).

        Returns the same :class:`~repro.diagnostics.Diagnostic` records
        the ``repro validate`` CLI subcommand and the fault campaign
        report; callers decide whether warnings matter to them
        (``d.severity == "error"`` is the hard-failure subset).
        """
        with self._recording(None):
            return validation_problems(self.design, allow_dangling=allow_dangling)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(design={self.design.name!r}, "
            f"engine={self.run.engine!r}, cycles={self.run.cycles})"
        )


def load(path: str, **session_kwargs) -> Session:
    """Read a textual netlist file into a ready-to-use :class:`Session`."""
    return Session(textio.load(path), **session_kwargs)


def loads(text: str, **session_kwargs) -> Session:
    """Parse textual netlist source into a ready-to-use :class:`Session`."""
    return Session(textio.loads(text), **session_kwargs)


__all__ = [
    "Session",
    "load",
    "loads",
    "design_fingerprint",
    "Diagnostic",
    "RunConfig",
    "ENGINES",
    "IsolationConfig",
    "OptimizeResult",
    "StageTimings",
    "CostWeights",
    "PowerBreakdown",
    "PowerInterval",
    "RankedCandidate",
    "StyleComparison",
    "estimate_power",
    "estimate_power_ci",
    "optimize",
    "available_passes",
    "isolate_design",
    "rank_candidates",
    "compare_styles",
    "format_ranking",
    "format_comparison_table",
]
