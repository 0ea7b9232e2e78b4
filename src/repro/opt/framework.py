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
comparable. With ``passes=("isolation",)`` the loop is an exact
transcription of the legacy :func:`repro.core.algorithm.isolate_design`
and produces bit-identical results; that function is now a thin wrapper
over this one.

Writing a third pass means subclassing :class:`TransformPass` and
registering a factory with :func:`register_pass` — see
``docs/passes.md`` for the walkthrough and the composition semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import obs
from repro.core.algorithm import (
    DesignMetrics,
    IsolationConfig,
    IsolationResult,
    IterationRecord,
    StageTimings,
    StimulusSource,
    _measure_power,
)
from repro.errors import IsolationError
from repro.netlist.design import Design
from repro.power.library import TechnologyLibrary, default_library
from repro.runconfig import RunConfig
from repro.timing.sta import analyze_timing

#: The optimizer reuses Algorithm 1's knobs unchanged; the pass list is a
#: separate argument so one config drives any pass combination.
OptimizeConfig = IsolationConfig


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
class OptIterationRecord:
    """What happened in one pass of the generic greedy loop.

    Generalises :class:`~repro.core.algorithm.IterationRecord`: scores and
    rejections are keyed by pass name, applications carry their pass.
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

    def enumerate(self, record: OptIterationRecord) -> int:
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
    """Everything :func:`optimize` produces; subsumes ``IsolationResult``."""

    original: Design
    design: Design
    config: IsolationConfig
    passes: tuple
    baseline: DesignMetrics
    final: DesignMetrics
    transforms: List[AppliedTransform] = field(default_factory=list)
    iterations: List[OptIterationRecord] = field(default_factory=list)
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

    # ------------------------------------------------------------------
    def to_isolation_result(self) -> IsolationResult:
        """The legacy view: exactly what ``isolate_design`` used to build.

        Score/instance objects are shared, not copied, so a
        ``passes=("isolation",)`` run converts into a bit-identical
        :class:`IsolationResult`.
        """
        result = IsolationResult(
            original=self.original,
            design=self.design,
            config=self.config,
            baseline=self.baseline,
            final=self.final,
            timings=self.timings,
        )
        result.instances = [
            t.instance for t in self.transforms if t.pass_name == "isolation"
        ]
        for rec in self.iterations:
            result.iterations.append(
                IterationRecord(
                    index=rec.index,
                    total_power_mw=rec.total_power_mw,
                    scores=list(rec.scores.get("isolation", [])),
                    isolated=[
                        t.target for t in rec.applied if t.pass_name == "isolation"
                    ],
                    rejected_slack=list(rec.rejected.get("isolation", [])),
                )
            )
        return result

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
    _working_name: Optional[str] = None,
    _root_span: str = "optimize",
) -> OptimizeResult:
    """Run the greedy low-power loop with the named passes on a design copy.

    ``stimulus`` is a stimulus object (deep-copied per estimation run) or
    a zero-argument factory. ``passes`` lists registered pass names in
    application order (order is documented not to change the final
    design — see ``docs/passes.md``). ``run=RunConfig(...)`` overrides
    the config's cycles/warmup/engine/workers, as in ``isolate_design``.
    """
    config = config or IsolationConfig()
    if run is not None:
        config = config.with_run(run)
    library = library or default_library()
    pass_objects = resolve_passes(passes)
    pass_names = tuple(p.name for p in pass_objects)

    from repro.parallel.pool import WorkerPool

    pool = WorkerPool(config.workers)

    attrs = dict(
        design=design.name,
        style=config.style,
        engine=config.engine,
        workers=pool.workers,
    )
    if _root_span != "isolate":
        attrs["passes"] = ",".join(pass_names)
    with obs.span(_root_span, "stage", **attrs):
        return _run_optimize(
            design,
            stimulus,
            pass_objects,
            config,
            library,
            pool,
            working_name=_working_name or f"{design.name}_opt",
            iteration_span=f"{_root_span}.iteration",
        )


def _run_optimize(
    design: Design,
    stimulus: StimulusSource,
    passes: List[TransformPass],
    config: IsolationConfig,
    library: TechnologyLibrary,
    pool,
    working_name: str,
    iteration_span: str,
) -> OptimizeResult:
    """The traced body of the generic loop (see :func:`optimize`)."""
    working = design.copy(working_name)

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
    baseline_power, _ = timed_measure(working, stimulus, config, library)
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
        with obs.span(iteration_span, "stage", index=index) as span:
            iteration_start = time.perf_counter()
            simulate_before = timings.simulate_s
            transform_before = timings.transform_s

            record = OptIterationRecord(index=index, total_power_mw=0.0)
            counts = [p.enumerate(record) for p in passes]
            if not any(counts):
                result.iterations.append(record)
                settle_score()
                break

            # One estimation run feeds every pass (line 16): toggle rates
            # for the power model plus each pass's own probes.
            monitors = [m for p in passes for m in p.monitors()]
            total_power, monitor = timed_measure(
                working, stimulus, config, library, extra_monitors=monitors
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
                for scores in p.score(total_power, monitor):
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
    final_power, _ = timed_measure(working, stimulus, config, library)
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
