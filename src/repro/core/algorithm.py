"""Algorithm 1: iterative automated operand isolation (paper Section 5.3).

:func:`isolate_design` drives the whole flow on a *copy* of the input
design:

1. partition the RT structure into combinational blocks;
2. identify isolation candidates and reject those whose estimated
   post-isolation slack falls below the threshold;
3. repeat until no candidate is isolated:

   a. simulate the current design, measuring toggle rates and the signal
      statistics (``estimate_power`` + ``Pr(·)`` of Algorithm 1 line 16);
   b. score every remaining candidate with ``h(c) = ω_p·rP − ω_a·rA``;
   c. in each combinational block, isolate the best candidate if it
      clears ``h_min``.

The result records every iteration's scores and the before/after power,
area and worst-slack metrics measured with the *same* stimulus and clock
period, i.e. the quantities of the paper's Tables 1 and 2.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Union

from repro import obs
from repro.core.cost import CandidateCost, CostWeights
from repro.core.isolate import IsolationInstance
from repro.errors import IsolationError
from repro.netlist.design import Design
from repro.power.estimator import PowerEstimator
from repro.power.library import TechnologyLibrary, default_library
from repro.runconfig import ENGINES, RunConfig, resolve_run_config
from repro.sim.engine import make_simulator
from repro.sim.monitor import ToggleMonitor
from repro.sim.stimulus import Stimulus

StimulusSource = Union[Stimulus, Callable[[], Stimulus]]


def _default_workers() -> int:
    # Lazy import: repro.parallel imports core submodules and would
    # cycle back here if imported at module scope.
    from repro.parallel.pool import default_workers

    return default_workers()


@dataclass(frozen=True)
class IsolationConfig:
    """Knobs of Algorithm 1.

    Attributes
    ----------
    style:
        Isolation style: ``"and"``, ``"or"``, ``"latch"`` — or ``"auto"``,
        which scores every candidate under all three styles each
        iteration and isolates with whichever maximises ``h(c)`` (so e.g.
        short-idle-burst candidates get latches while long-burst ones get
        cheap AND gates, see Ablation A).
    weights:
        The ω_p/ω_a/h_min cost trade-off (Section 5.1).
    cycles / warmup:
        Simulation length per estimation run.
    clock_period:
        Timing constraint in ns. ``None`` sets it from the original
        design's critical path times ``period_margin`` (the paper's
        designs met their constraints with margin to spare).
    period_margin:
        Multiplier applied to the critical path when deriving the period.
    slack_threshold:
        Candidates whose *estimated* post-isolation slack would fall
        below this are rejected up front (Algorithm 1, lines 5–10).
    refined_savings:
        Use the refined per-source primary-savings model (default) or
        the plain Eq. (1) approximation.
    lookahead_depth:
        Rounds of one-cycle register look-ahead when deriving activation
        functions (:mod:`repro.core.lookahead`). 0 (default) is the
        paper's baseline ``f_r⁺ = 1``. With look-ahead enabled,
        free-running pipeline registers may capture blocked values in
        provably-unconsumed cycles, so verify the result with
        ``compare_registers=False``.
    max_iterations:
        Safety bound on the main loop; the loop normally exits because
        no candidate clears ``h_min``.
    engine:
        Simulation backend for every estimation run: ``"python"`` (the
        reference interpreter), ``"compiled"`` (the pre-bound kernel
        backend of :mod:`repro.sim.compile`; bit-exact, much faster) or
        ``"checked"`` (compiled + reference in lockstep with periodic
        cross-comparison; raises on any divergence).
    workers:
        Process-pool width for the per-candidate scoring stage
        (:mod:`repro.parallel`): ``1`` = serial, ``0`` = auto (one
        worker per CPU), ``n > 1`` = a pool of ``n`` workers. Defaults
        to the ``REPRO_WORKERS`` environment variable (else 1). Greedy
        selection is bit-identical across worker counts; pool failures
        degrade to serial with a recorded
        ``StageTimings.pool_fallback_reason``.
    """

    style: str = "and"
    weights: CostWeights = field(default_factory=CostWeights)
    cycles: int = 2000
    warmup: int = 32
    clock_period: Optional[float] = None
    period_margin: float = 1.25
    slack_threshold: float = 0.0
    refined_savings: bool = True
    lookahead_depth: int = 0
    max_iterations: int = 25
    engine: str = "python"
    workers: int = field(default_factory=_default_workers)

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise IsolationError(
                f"unknown engine {self.engine!r}; choose one of {ENGINES}"
            )
        if self.workers < 0:
            raise IsolationError(
                f"workers must be >= 0 (0 = auto), got {self.workers}"
            )

    def run_config(self) -> RunConfig:
        """The four run-control fields as a :class:`RunConfig`."""
        return RunConfig(
            cycles=self.cycles,
            warmup=self.warmup,
            engine=self.engine,
            workers=self.workers,
        )

    def with_run(self, run: RunConfig) -> "IsolationConfig":
        """A copy whose cycles, warmup, engine and workers come from ``run``."""
        return replace(
            self,
            cycles=run.cycles,
            warmup=run.warmup,
            engine=run.engine,
            workers=run.workers,
        )


@dataclass
class DesignMetrics:
    """Power / area / slack snapshot of one design state."""

    power_mw: float
    area: float
    worst_slack: float
    clock_period: float


@dataclass
class StageTimings:
    """Wall-clock seconds spent per stage of one :func:`isolate_design` run.

    ``simulate_s`` covers the estimation runs (baseline, per-iteration
    and final), ``score_s`` the analysis between them (partitioning,
    activation derivation, timing, cost evaluation) and ``transform_s``
    the netlist rewrites (``isolate_candidate``).

    ``fallback_reason`` is set when a requested compiled backend could
    not be built and the run gracefully degraded to the python
    reference engine (see :func:`repro.sim.engine.make_simulator`);
    ``engine`` then still names what was *requested*. Likewise
    ``pool_fallback_reason`` is set when a requested worker pool failed
    and candidate scoring degraded to serial execution
    (:class:`repro.parallel.WorkerPool`); ``workers`` still names the
    resolved request.

    ``parallel_tasks`` / ``parallel_busy_s`` / ``parallel_wall_s``
    account for pooled scoring work: tasks dispatched, summed in-worker
    seconds, and wall-clock seconds the parent spent waiting on the
    pool. ``worker_utilization`` is busy / (workers × wall).
    """

    simulate_s: float = 0.0
    score_s: float = 0.0
    transform_s: float = 0.0
    simulations: int = 0
    engine: str = "python"
    fallback_reason: Optional[str] = None
    workers: int = 1
    parallel_tasks: int = 0
    parallel_busy_s: float = 0.0
    parallel_wall_s: float = 0.0
    pool_fallback_reason: Optional[str] = None

    @property
    def total_s(self) -> float:
        return self.simulate_s + self.score_s + self.transform_s

    @property
    def worker_utilization(self) -> float:
        """Fraction of the pool's capacity kept busy (0 when unused)."""
        if self.workers <= 1 or self.parallel_wall_s <= 0.0:
            return 0.0
        return self.parallel_busy_s / (self.workers * self.parallel_wall_s)

    def to_dict(self) -> dict:
        payload = {
            "simulate_s": self.simulate_s,
            "score_s": self.score_s,
            "transform_s": self.transform_s,
            "total_s": self.total_s,
            "simulations": self.simulations,
            "engine": self.engine,
            "workers": self.workers,
        }
        if self.fallback_reason is not None:
            payload["fallback_reason"] = self.fallback_reason
        if self.workers > 1 or self.parallel_tasks:
            payload["parallel"] = {
                "tasks": self.parallel_tasks,
                "busy_s": self.parallel_busy_s,
                "wall_s": self.parallel_wall_s,
                "utilization": self.worker_utilization,
            }
        if self.pool_fallback_reason is not None:
            payload["pool_fallback_reason"] = self.pool_fallback_reason
        return payload

    @classmethod
    def from_spans(cls, spans) -> "StageTimings":
        """Derive stage timings from a recorded span forest.

        The span tree is the primary record when tracing is on; this is
        the backward-compatible flat view: ``simulate_s`` sums the
        ``power.estimate`` spans, ``transform_s`` the ``bank.insert``
        (and ``clock.gate``) spans, and ``score_s`` is the remainder of
        the root ``isolate`` — or ``optimize`` — span: the same
        decomposition the accumulating counters produce.
        """
        isolate = obs.find_spans(spans, "isolate") or obs.find_spans(
            spans, "optimize"
        )
        estimates = obs.find_spans(spans, "power.estimate")
        transforms = obs.find_spans(spans, "bank.insert") + obs.find_spans(
            spans, "clock.gate"
        )
        timings = cls(
            simulate_s=sum(s.duration_s for s in estimates),
            transform_s=sum(s.duration_s for s in transforms),
            simulations=len(estimates),
        )
        if isolate:
            root = isolate[0]
            timings.engine = str(root.attrs.get("engine", timings.engine))
            timings.workers = int(root.attrs.get("workers", timings.workers))
            timings.score_s = max(
                0.0, root.duration_s - timings.simulate_s - timings.transform_s
            )
        return timings


@dataclass
class IterationRecord:
    """What happened in one pass of the main loop."""

    index: int
    total_power_mw: float
    scores: List[CandidateCost] = field(default_factory=list)
    isolated: List[str] = field(default_factory=list)
    rejected_slack: List[str] = field(default_factory=list)


@dataclass
class IsolationResult:
    """Everything :func:`isolate_design` produces."""

    original: Design
    design: Design
    config: IsolationConfig
    baseline: DesignMetrics
    final: DesignMetrics
    instances: List[IsolationInstance] = field(default_factory=list)
    iterations: List[IterationRecord] = field(default_factory=list)
    timings: StageTimings = field(default_factory=StageTimings)

    @property
    def isolated_names(self) -> List[str]:
        return [inst.candidate.name for inst in self.instances]

    @property
    def power_reduction(self) -> float:
        """Fractional power reduction (positive = saved power)."""
        if self.baseline.power_mw <= 0:
            return 0.0
        return 1.0 - self.final.power_mw / self.baseline.power_mw

    @property
    def area_increase(self) -> float:
        """Fractional area increase."""
        if self.baseline.area <= 0:
            return 0.0
        return self.final.area / self.baseline.area - 1.0

    @property
    def slack_reduction(self) -> float:
        """Fractional worst-slack reduction (positive = slack got worse)."""
        if self.baseline.worst_slack <= 0:
            return 0.0
        return 1.0 - self.final.worst_slack / self.baseline.worst_slack

    def to_dict(self) -> dict:
        """JSON-serialisable record of the run (for tooling/dashboards)."""
        return {
            "design": self.original.name,
            "style": self.config.style,
            "isolated": self.isolated_names,
            "power_mw": {
                "before": self.baseline.power_mw,
                "after": self.final.power_mw,
                "reduction": self.power_reduction,
            },
            "area_um2": {
                "before": self.baseline.area,
                "after": self.final.area,
                "increase": self.area_increase,
            },
            "slack_ns": {
                "before": self.baseline.worst_slack,
                "after": self.final.worst_slack,
                "clock_period": self.baseline.clock_period,
            },
            "timings": self.timings.to_dict(),
            "iterations": [
                {
                    "index": record.index,
                    "measured_power_mw": record.total_power_mw,
                    "isolated": record.isolated,
                    "rejected_slack": record.rejected_slack,
                    "scores": [
                        {
                            "candidate": score.candidate.name,
                            "h": score.h,
                            "net_mw": score.savings.net_mw,
                            "idle_probability": score.savings.idle_probability,
                        }
                        for score in record.scores
                    ],
                }
                for record in self.iterations
            ],
        }

    def summary(self) -> str:
        lines = [
            f"Operand isolation of {self.original.name!r} "
            f"(style={self.config.style!r})",
            f"  isolated modules : {', '.join(self.isolated_names) or '(none)'}",
            f"  power  : {self.baseline.power_mw:8.4f} -> {self.final.power_mw:8.4f} mW "
            f"({self.power_reduction:+.1%})",
            f"  area   : {self.baseline.area:8.0f} -> {self.final.area:8.0f} um^2 "
            f"({self.area_increase:+.1%})",
            f"  slack  : {self.baseline.worst_slack:8.3f} -> {self.final.worst_slack:8.3f} ns "
            f"(clock {self.baseline.clock_period:.3f} ns)",
            f"  iterations: {len(self.iterations)}",
            f"  stages : simulate {self.timings.simulate_s:.3f}s, "
            f"score {self.timings.score_s:.3f}s, "
            f"transform {self.timings.transform_s:.3f}s "
            f"({self.timings.simulations} runs, engine {self.timings.engine!r}, "
            f"workers {self.timings.workers})",
        ]
        if self.timings.workers > 1 and self.timings.parallel_tasks:
            lines.append(
                f"  pool   : {self.timings.parallel_tasks} tasks, "
                f"{self.timings.worker_utilization:.0%} utilization"
            )
        if self.timings.fallback_reason:
            lines.append(
                f"  note   : engine degraded to 'python' "
                f"({self.timings.fallback_reason})"
            )
        if self.timings.pool_fallback_reason:
            lines.append(
                f"  note   : scoring pool degraded to serial "
                f"({self.timings.pool_fallback_reason})"
            )
        return "\n".join(lines)


def _stimulus_of(source: StimulusSource) -> Stimulus:
    """A fresh stimulus per estimation run (identical statistics each time)."""
    if callable(source) and not hasattr(source, "values"):
        return source()
    return copy.deepcopy(source)


def _measure_power(
    design: Design,
    source: StimulusSource,
    config: IsolationConfig,
    library: TechnologyLibrary,
    extra_monitors: Optional[list] = None,
    timings: Optional[StageTimings] = None,
) -> float:
    with obs.span(
        "power.estimate",
        "sim",
        design=design.name,
        engine=config.engine,
        cycles=config.cycles,
    ) as span:
        monitor = ToggleMonitor()
        monitors = [monitor] + list(extra_monitors or [])
        simulator = make_simulator(design, config.engine)
        if timings is not None and simulator.fallback_reason is not None:
            timings.fallback_reason = simulator.fallback_reason
        simulator.run(
            _stimulus_of(source), config.cycles, monitors=monitors, warmup=config.warmup
        )
        breakdown = PowerEstimator(library).breakdown(design, monitor)
        span.set(power_mw=breakdown.total_power_mw)
    return breakdown.total_power_mw, monitor


def isolate_design(
    design: Design,
    stimulus: StimulusSource,
    config: Optional[IsolationConfig] = None,
    library: Optional[TechnologyLibrary] = None,
    run: Optional[RunConfig] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    engine: Optional[str] = None,
) -> IsolationResult:
    """Run Algorithm 1 on ``design`` (which is left untouched).

    ``stimulus`` is either a stimulus object (deep-copied per estimation
    run so every run sees identical statistics) or a zero-argument
    factory returning a fresh stimulus. Run control (``cycles``,
    ``warmup``, ``engine``, ``workers``) lives on ``config``;
    ``run=RunConfig(...)`` and ``engine=`` override it, and bare
    ``cycles=``/``warmup=`` are deprecated aliases.
    """
    config = config or IsolationConfig()
    if run is not None or engine is not None or cycles is not None or warmup is not None:
        cfg = resolve_run_config(
            run,
            defaults=config.run_config(),
            stacklevel=3,
            engine=engine,
            cycles=cycles,
            warmup=warmup,
        )
        config = config.with_run(cfg)
    library = library or default_library()

    # Algorithm 1 now lives in the pass-agnostic optimizer (repro.opt);
    # running it with the isolation pass alone is bit-identical to the
    # historical loop this function used to own. Imported lazily to
    # avoid a core <-> opt import cycle.
    from repro.opt import optimize

    return optimize(
        design,
        stimulus,
        passes=("isolation",),
        config=config,
        library=library,
        _working_name=f"{design.name}_iso_{config.style}",
        _root_span="isolate",
    ).to_isolation_result()
