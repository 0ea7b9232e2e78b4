"""The pluggable low-power pass framework.

Algorithm 1's greedy loop — enumerate candidates, derive activation
conditions, measure one simulation, score against the shared cost
budget, transform the netlist, repeat — is one instance of a general
shape. :func:`optimize` owns that loop; what varies per transform
family lives behind the :class:`TransformPass` protocol:

* :class:`~repro.opt.isolation.IsolationPass` — the paper's operand
  isolation (AND/OR/LAT banks in front of datapath modules);
* :class:`~repro.opt.gating.ClockGatingPass` — RT-level register clock
  gating driven by the same activation machinery.

All passes in one run compete under the *shared*
:class:`~repro.core.cost.CostWeights` / ``h_min`` budget and are fed by
the *same* per-iteration estimation run, so their scores are directly
comparable. The loop's knobs are one :class:`IsolationConfig` and its
one output is an :class:`OptimizeResult`: every iteration's decisions
plus the before/after power, area and slack of the paper's Tables 1
and 2. :func:`isolate_design` is Algorithm 1 as the paper states it —
the isolation pass alone.

Writing a third pass means subclassing :class:`TransformPass` and
registering a factory with :func:`register_pass` — see
``docs/passes.md`` for the walkthrough and the composition semantics.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.cost import CostWeights
from repro.core.isolate import STYLES
from repro.errors import IsolationError, ReproError
from repro.netlist.design import Design
from repro.power.estimator import PowerEstimator
from repro.power.library import TechnologyLibrary, default_library
from repro.runconfig import RunConfig, _default_workers
from repro.sim.engine import make_simulator
from repro.sim.monitor import ToggleMonitor
from repro.sim.stimulus import Stimulus, StimulusTable
from repro.timing.sta import analyze_timing

StimulusSource = Union[Stimulus, Callable[[], Stimulus]]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IsolationConfig:
    """Knobs of Algorithm 1, shared by every pass of one :func:`optimize` run.

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
        Simulation length per estimation run; the defaults are
        :class:`~repro.runconfig.RunConfig`'s (2000 and 16), and
        ``cycles`` must be at least 2.
    clock_period:
        Timing constraint in ns. ``None`` sets it from the original
        design's critical path times ``period_margin`` (the paper's
        designs met their constraints with margin to spare).
    period_margin:
        Multiplier (> 0) applied to the critical path when deriving the
        period.
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
        reference interpreter, and :class:`~repro.runconfig.RunConfig`'s
        default), ``"compiled"`` (the pre-bound kernel backend of
        :mod:`repro.sim.compile`; bit-exact, much faster),
        ``"bitslice"`` (a batch engine; these single-stream runs use the
        compiled kernel, with identical results) or ``"checked"``
        (compiled + reference in lockstep with periodic
        cross-comparison; raises on any divergence).
    workers:
        Process-pool width for the per-candidate scoring stage
        (:mod:`repro.parallel`): ``1`` = serial, ``0`` = auto (one
        worker per CPU), ``n > 1`` = a pool of ``n`` workers. Defaults
        to the ``REPRO_WORKERS`` environment variable (else 1). Greedy
        selection is bit-identical across worker counts; pool failures
        degrade to serial with a recorded
        ``StageTimings.pool_fallback_reason``.

    Values that would silently give wrong results (an unknown style,
    fewer than two cycles, a non-positive clock, negative counts) raise
    :class:`~repro.errors.IsolationError` at construction; the four run
    fields are checked by :class:`~repro.runconfig.RunConfig` itself.
    """

    style: str = "and"
    weights: CostWeights = field(default_factory=CostWeights)
    cycles: int = RunConfig.cycles
    warmup: int = RunConfig.warmup
    clock_period: Optional[float] = None
    period_margin: float = 1.25
    slack_threshold: float = 0.0
    refined_savings: bool = True
    lookahead_depth: int = 0
    max_iterations: int = 25
    engine: str = RunConfig.engine
    workers: int = field(default_factory=_default_workers)

    def __post_init__(self) -> None:
        styles = STYLES + ("auto",)
        if self.style not in styles:
            raise IsolationError(
                f"unknown style {self.style!r}; choose one of {styles}"
            )
        try:
            RunConfig(
                cycles=self.cycles,
                warmup=self.warmup,
                engine=self.engine,
                workers=self.workers,
            )
        except ReproError as exc:
            raise IsolationError(str(exc)) from None
        if self.period_margin <= 0:
            raise IsolationError(
                f"period_margin must be > 0, got {self.period_margin}"
            )
        if self.clock_period is not None and self.clock_period <= 0:
            raise IsolationError(
                f"clock_period must be > 0 ns, got {self.clock_period}"
            )
        if self.lookahead_depth < 0:
            raise IsolationError(
                f"lookahead_depth must be >= 0, got {self.lookahead_depth}"
            )
        if self.max_iterations < 0:
            raise IsolationError(
                f"max_iterations must be >= 0, got {self.max_iterations}"
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


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
@dataclass
class DesignMetrics:
    """Power / area / slack snapshot of one design state."""

    power_mw: float
    area: float
    worst_slack: float
    clock_period: float


@dataclass
class StageTimings:
    """Wall-clock seconds spent per stage of one :func:`optimize` run.

    ``simulate_s`` covers the estimation runs (baseline, per-iteration
    and final), ``score_s`` the analysis between them (partitioning,
    activation derivation, timing, cost evaluation) and ``transform_s``
    the netlist transforms (each pass's ``apply``).

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
        the flat view, summed over every ``optimize`` root in the
        forest. Per root, ``simulate_s`` sums its ``power.estimate``
        spans, ``transform_s`` its ``bank.insert``, ``clock.gate`` and
        ``rewrite.apply`` spans, and ``score_s`` is the rest of the
        root: the same decomposition the accumulating counters produce.
        ``engine`` and ``workers`` come from the last root.
        """
        timings = cls()
        for root in obs.find_spans(spans, "optimize"):
            estimates = obs.find_spans([root], "power.estimate")
            simulate_s = sum(s.duration_s for s in estimates)
            transform_s = sum(
                s.duration_s
                for name in ("bank.insert", "clock.gate", "rewrite.apply")
                for s in obs.find_spans([root], name)
            )
            timings.simulate_s += simulate_s
            timings.transform_s += transform_s
            timings.score_s += max(0.0, root.duration_s - simulate_s - transform_s)
            timings.simulations += len(estimates)
            timings.engine = str(root.attrs.get("engine", timings.engine))
            timings.workers = int(root.attrs.get("workers", timings.workers))
        return timings


def _stimulus_of(source: StimulusSource) -> Stimulus:
    """A fresh stimulus from ``source``: the factory's product, or a deep
    copy of a stimulus object, so the caller's object is never advanced."""
    if callable(source) and not hasattr(source, "values"):
        return source()
    return copy.deepcopy(source)


def _drawn_once(
    source: StimulusSource, design: Design, length: int
) -> Callable[[], Stimulus]:
    """The call's stimulus: drawn as a :class:`StimulusTable` on first use.

    The first estimation run (the baseline) makes the one draw inside its
    ``power.estimate`` span, so both stage-timing paths count it as
    simulate time; every later run replays the same table.
    """
    drawn: List[Stimulus] = []

    def table() -> Stimulus:
        if not drawn:
            with obs.span("stimulus.draw", "sim", design=design.name, cycles=length):
                drawn.append(StimulusTable.draw(_stimulus_of(source), design, length))
        return drawn[0]

    return table


def _measure_power(
    design: Design,
    stimulus: Callable[[], Stimulus],
    config: IsolationConfig,
    library: TechnologyLibrary,
    extra_monitors: Optional[list] = None,
    timings: Optional[StageTimings] = None,
) -> Tuple[float, ToggleMonitor]:
    """One estimation run: the total power in mW and its toggle monitor."""
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
            stimulus(), config.cycles, monitors=monitors, warmup=config.warmup
        )
        breakdown = PowerEstimator(library).breakdown(design, monitor)
        span.set(power_mw=breakdown.total_power_mw)
    return breakdown.total_power_mw, monitor


# ----------------------------------------------------------------------
# Pass protocol
# ----------------------------------------------------------------------
@dataclass
class PassContext:
    """Shared per-run state handed to every pass at :meth:`TransformPass.begin`.

    ``working`` is the mutable design copy all passes transform in turn;
    ``period`` is the resolved clock constraint (ns) slack checks use.
    """

    working: Design
    config: IsolationConfig
    library: TechnologyLibrary
    period: float
    pool: object


@dataclass
class AppliedTransform:
    """One accepted transform: which pass, on what, at what predicted gain."""

    pass_name: str
    target: str
    detail: dict = field(default_factory=dict)
    estimated_net_mw: float = 0.0
    instance: object = None


@dataclass
class OptIteration:
    """What happened in one pass of the generic greedy loop.

    Scores and rejections are keyed by pass name, applications carry
    their pass.
    """

    index: int
    total_power_mw: float
    scores: Dict[str, list] = field(default_factory=dict)
    applied: List[AppliedTransform] = field(default_factory=list)
    rejected: Dict[str, List[str]] = field(default_factory=dict)


class TransformPass:
    """One transform family pluggable into :func:`optimize`.

    Lifecycle per run: :meth:`begin` once, then per iteration
    :meth:`enumerate` → :meth:`monitors` → (one shared estimation run) →
    :meth:`score` → per selection group the loop applies the best scored
    entry via :meth:`apply` when it clears ``h_min`` (else
    :meth:`below_threshold` is notified).

    Score objects are pass-defined; the only contract is a float ``h``
    attribute comparable against the shared ``CostWeights.h_min``.
    """

    #: Registry key and the name used in records/results.
    name: str = "pass"

    #: True for passes whose :meth:`apply` rewires or removes netlist
    #: structure (isolation bank insertion, datapath rewriting). The
    #: loop tracks this to protect structure-sensitive passes below.
    changes_structure: bool = False

    #: True for passes whose planned applications become unsafe once
    #: *another* pass has changed the structure in the same iteration
    #: (their candidates reference cells/nets that may no longer exist).
    #: Such a pass is deferred to the next iteration's fresh
    #: enumeration and measurement instead of applying stale plans.
    conflicts_with_structure: bool = False

    def begin(self, ctx: PassContext) -> None:
        """Bind the run context; called once before the main loop."""
        self.ctx = ctx

    def enumerate(self, record: OptIteration) -> int:
        """Find this iteration's candidates; return how many are scorable.

        Permanent rejections (slack violations, structurally ungateable
        registers, ...) are recorded into ``record.rejected[self.name]``
        here. Returning 0 contributes nothing to this iteration; when
        every pass returns 0 the loop ends without simulating.
        """
        raise NotImplementedError

    def monitors(self) -> list:
        """Extra monitors to ride along on the shared estimation run."""
        return []

    def score(self, total_power_mw: float, monitor) -> List[list]:
        """Score the enumerated candidates from the measured run.

        Returns selection *groups* (lists of score objects): the loop
        greedily applies the best entry of each group, mirroring
        Algorithm 1's per-combinational-block selection. Isolation
        groups by block; clock gating puts each register in its own
        group (registers are independent).
        """
        raise NotImplementedError

    def apply(self, best) -> AppliedTransform:
        """Transform the working design for one accepted score."""
        raise NotImplementedError

    def below_threshold(self, best) -> None:
        """A group's best score missed ``h_min`` (for counters)."""

    def serialize_score(self, score) -> dict:
        """JSON-friendly view of one score object."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Pass registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], TransformPass]] = {}


def register_pass(name: str, factory: Callable[[], TransformPass]) -> None:
    """Register a pass factory under ``name`` (last registration wins)."""
    _REGISTRY[name] = factory


def available_passes() -> tuple:
    """Registered pass names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_passes(names: Sequence[str]) -> List[TransformPass]:
    """Instantiate the named passes, preserving order; loud on bad input."""
    if isinstance(names, str):
        names = [part.strip() for part in names.split(",") if part.strip()]
    names = list(names)
    if not names:
        raise IsolationError("optimize() needs at least one pass")
    seen = set()
    passes = []
    for name in names:
        if name not in _REGISTRY:
            raise IsolationError(
                f"unknown pass {name!r}; available: {list(available_passes())}"
            )
        if name in seen:
            raise IsolationError(f"duplicate pass {name!r} in pass list")
        seen.add(name)
        passes.append(_REGISTRY[name]())
    return passes


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
@dataclass
class OptimizeResult:
    """Everything :func:`optimize` produces (Tables 1–2 plus every decision)."""

    original: Design
    design: Design
    config: IsolationConfig
    passes: tuple
    baseline: DesignMetrics
    final: DesignMetrics
    transforms: List[AppliedTransform] = field(default_factory=list)
    iterations: List[OptIteration] = field(default_factory=list)
    timings: StageTimings = field(default_factory=StageTimings)
    _pass_objects: dict = field(default_factory=dict, repr=False)

    # -- convenience views ---------------------------------------------
    def targets_of(self, pass_name: str) -> List[str]:
        return [t.target for t in self.transforms if t.pass_name == pass_name]

    @property
    def isolated_names(self) -> List[str]:
        return self.targets_of("isolation")

    @property
    def gated_registers(self) -> List[str]:
        return self.targets_of("clock_gating")

    def per_pass_net_mw(self) -> Dict[str, float]:
        """Predicted net savings attributed per pass (sum over transforms)."""
        out = {name: 0.0 for name in self.passes}
        for t in self.transforms:
            out[t.pass_name] = out.get(t.pass_name, 0.0) + t.estimated_net_mw
        return out

    @property
    def power_reduction(self) -> float:
        """Fractional power reduction (positive = saved power)."""
        if self.baseline.power_mw <= 0:
            return 0.0
        return 1.0 - self.final.power_mw / self.baseline.power_mw

    @property
    def area_increase(self) -> float:
        if self.baseline.area <= 0:
            return 0.0
        return self.final.area / self.baseline.area - 1.0

    @property
    def slack_reduction(self) -> float:
        if self.baseline.worst_slack <= 0:
            return 0.0
        return 1.0 - self.final.worst_slack / self.baseline.worst_slack

    def to_dict(self) -> dict:
        """JSON-serialisable record of the run (for tooling/serving)."""
        return {
            "design": self.original.name,
            "passes": list(self.passes),
            "style": self.config.style,
            "applied": [
                {
                    "pass": t.pass_name,
                    "target": t.target,
                    "estimated_net_mw": t.estimated_net_mw,
                    **t.detail,
                }
                for t in self.transforms
            ],
            "per_pass_net_mw": self.per_pass_net_mw(),
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
                    "index": rec.index,
                    "measured_power_mw": rec.total_power_mw,
                    "applied": [[t.pass_name, t.target] for t in rec.applied],
                    "rejected": {k: list(v) for k, v in rec.rejected.items()},
                    "scores": {
                        name: [
                            self._serialize_score(name, score) for score in scores
                        ]
                        for name, scores in rec.scores.items()
                    },
                }
                for rec in self.iterations
            ],
        }

    def _serialize_score(self, pass_name: str, score) -> dict:
        handler = self._pass_objects.get(pass_name)
        if handler is not None:
            return handler.serialize_score(score)
        return {"h": getattr(score, "h", None)}

    def summary(self) -> str:
        per_pass = self.per_pass_net_mw()
        lines = [
            f"Low-power optimization of {self.original.name!r} "
            f"(passes={', '.join(self.passes)}; style={self.config.style!r})",
        ]
        for name in self.passes:
            targets = self.targets_of(name)
            lines.append(
                f"  {name:<13}: {', '.join(targets) or '(none)'} "
                f"(est. {per_pass.get(name, 0.0):+.4f} mW)"
            )
        lines += [
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


# ----------------------------------------------------------------------
# The pass-agnostic greedy loop (Algorithm 1, generalised)
# ----------------------------------------------------------------------
def optimize(
    design: Design,
    stimulus: StimulusSource,
    passes: Union[str, Sequence[str]] = ("isolation",),
    config: Optional[IsolationConfig] = None,
    library: Optional[TechnologyLibrary] = None,
    run: Optional[RunConfig] = None,
) -> OptimizeResult:
    """Run the greedy low-power loop with the named passes on a design copy.

    ``stimulus`` is a stimulus object or a zero-argument factory. The
    call draws it once — a factory is called once, an object is
    deep-copied once and left unadvanced — into a
    :class:`~repro.sim.stimulus.StimulusTable` of ``warmup + cycles``
    input vectors that every estimation run of the call replays.
    ``passes`` lists registered pass names in
    application order (order is documented not to change the final
    design — see ``docs/passes.md``). ``run=RunConfig(...)`` overrides
    the config's cycles/warmup/engine/workers. The working copy is named
    ``<design>_opt``; ``design`` itself is left untouched.
    """
    config = config or IsolationConfig()
    if run is not None:
        config = config.with_run(run)
    library = library or default_library()
    pass_objects = resolve_passes(passes)

    from repro.parallel.pool import WorkerPool

    pool = WorkerPool(config.workers)
    with obs.span(
        "optimize",
        "stage",
        design=design.name,
        style=config.style,
        engine=config.engine,
        workers=pool.workers,
        passes=",".join(p.name for p in pass_objects),
    ):
        return _run_optimize(design, stimulus, pass_objects, config, library, pool)


def isolate_design(
    design: Design,
    stimulus: StimulusSource,
    config: Optional[IsolationConfig] = None,
    library: Optional[TechnologyLibrary] = None,
    run: Optional[RunConfig] = None,
) -> OptimizeResult:
    """Run Algorithm 1 on ``design``: :func:`optimize` with the isolation
    pass alone (``passes=("isolation",)``), same arguments and result."""
    return optimize(
        design,
        stimulus,
        passes=("isolation",),
        config=config,
        library=library,
        run=run,
    )


def _run_optimize(
    design: Design,
    stimulus: StimulusSource,
    passes: List[TransformPass],
    config: IsolationConfig,
    library: TechnologyLibrary,
    pool,
) -> OptimizeResult:
    """The traced body of the generic loop (see :func:`optimize`)."""
    working = design.copy(f"{design.name}_opt")

    timings = StageTimings(engine=config.engine, workers=pool.workers)

    def timed_measure(*args, **kwargs):
        start = time.perf_counter()
        out = _measure_power(*args, timings=timings, **kwargs)
        timings.simulate_s += time.perf_counter() - start
        timings.simulations += 1
        return out

    def settle_score() -> None:
        # Score time = iteration wall time minus what the simulate and
        # transform stages already claimed.
        timings.score_s += (
            (time.perf_counter() - iteration_start)
            - (timings.simulate_s - simulate_before)
            - (timings.transform_s - transform_before)
        )

    # --- Baseline metrics & timing constraint -------------------------
    reference_timing = analyze_timing(working, library, clock_period=None)
    period = config.clock_period
    if period is None:
        period = reference_timing.clock_period * config.period_margin
    baseline_timing = analyze_timing(working, library, clock_period=period)
    replay = _drawn_once(stimulus, working, config.warmup + config.cycles)
    baseline_power, _ = timed_measure(working, replay, config, library)
    baseline = DesignMetrics(
        power_mw=baseline_power,
        area=library.total_area(working),
        worst_slack=baseline_timing.worst_slack,
        clock_period=period,
    )

    result = OptimizeResult(
        original=design,
        design=working,
        config=config,
        passes=tuple(p.name for p in passes),
        baseline=baseline,
        final=baseline,  # replaced below
        timings=timings,
        _pass_objects={p.name: p for p in passes},
    )

    ctx = PassContext(
        working=working, config=config, library=library, period=period, pool=pool
    )
    for p in passes:
        p.begin(ctx)

    # --- Main loop (Algorithm 1 lines 13-31, across all passes) -------
    for index in range(config.max_iterations):
        with obs.span("optimize.iteration", "stage", index=index) as span:
            iteration_start = time.perf_counter()
            simulate_before = timings.simulate_s
            transform_before = timings.transform_s

            record = OptIteration(index=index, total_power_mw=0.0)
            counts = []
            for p in passes:
                with obs.span("pass.enumerate", "stage", pass_name=p.name):
                    counts.append(p.enumerate(record))
            if not any(counts):
                result.iterations.append(record)
                settle_score()
                break

            # One estimation run feeds every pass (line 16): toggle rates
            # for the power model plus each pass's own probes.
            monitors = [m for p in passes for m in p.monitors()]
            total_power, monitor = timed_measure(
                working, replay, config, library, extra_monitors=monitors
            )
            record.total_power_mw = total_power

            # Greedy selection under the shared h_min budget (lines 17-29),
            # pass by pass in the listed order, group by group within each.
            performed = False
            structure_changed = False
            for p, count in zip(passes, counts):
                if not count:
                    continue
                if structure_changed and p.conflicts_with_structure:
                    # An earlier pass rewired the netlist this iteration;
                    # this pass's candidates were enumerated against the
                    # old structure. Defer to the next iteration rather
                    # than apply stale plans.
                    obs.counter("passes.deferred", deferred=p.name).inc()
                    continue
                applied_this_pass = False
                with obs.span("pass.score", "score", pass_name=p.name):
                    groups = p.score(total_power, monitor)
                for scores in groups:
                    if not scores:
                        continue
                    record.scores.setdefault(p.name, []).extend(scores)
                    best = max(scores, key=lambda s: s.h)
                    if best.h >= config.weights.h_min:
                        transform_start = time.perf_counter()
                        applied = p.apply(best)
                        timings.transform_s += time.perf_counter() - transform_start
                        result.transforms.append(applied)
                        record.applied.append(applied)
                        performed = True
                        applied_this_pass = True
                    else:
                        p.below_threshold(best)
                if applied_this_pass and p.changes_structure:
                    structure_changed = True

            result.iterations.append(record)
            span.set(
                applied=len(record.applied),
                rejected=sum(len(v) for v in record.rejected.values()),
                measured_power_mw=record.total_power_mw,
            )
            settle_score()
            if not performed:
                break

    # --- Final metrics -------------------------------------------------
    final_power, _ = timed_measure(working, replay, config, library)
    final_timing = analyze_timing(working, library, clock_period=period)
    result.final = DesignMetrics(
        power_mw=final_power,
        area=library.total_area(working),
        worst_slack=final_timing.worst_slack,
        clock_period=period,
    )

    # Fold the pool's utilization accounting into the stage timings.
    # Close *before* reporting so a failing shutdown (recorded into
    # fallback_reason by WorkerPool.close) is visible in the timings.
    pool.close()
    pool_report = pool.report()
    timings.parallel_tasks = pool_report.tasks
    timings.parallel_busy_s = pool_report.busy_seconds
    timings.parallel_wall_s = pool_report.wall_seconds
    timings.pool_fallback_reason = pool_report.fallback_reason
    return result
