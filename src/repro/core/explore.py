"""What-if exploration: score candidates without transforming anything.

:func:`rank_candidates` runs the measurement half of Algorithm 1 — one
simulation with probes, savings estimation, cost evaluation, slack
impact — and returns every candidate's numbers, ranked by ``h(c)``.
Useful for floorplanning an isolation campaign, for reports, and for the
CLI's ``rank`` subcommand; :func:`repro.opt.isolate_design` is the
committing counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.activation import derive_activation_functions
from repro.core.candidates import IsolationCandidate, find_candidates
from repro.core.cost import CostModel, CostWeights
from repro.core.savings import SavingsModel
from repro.netlist.design import Design
from repro.power.estimator import PowerEstimator
from repro.power.library import TechnologyLibrary, default_library
from repro.runconfig import RunConfig
from repro.sim.engine import Simulator, make_simulator
from repro.sim.monitor import ToggleMonitor
from repro.sim.stimulus import Stimulus
from repro.timing.impact import estimate_isolation_impact
from repro.timing.sta import analyze_timing


@dataclass
class RankedCandidate:
    """One candidate's full what-if assessment."""

    name: str
    activation: str
    idle_probability: float
    primary_mw: float
    secondary_mw: float
    overhead_mw: float
    net_mw: float
    area_um2: float
    h: float
    estimated_slack: float
    block_index: int
    always_active: bool

    @property
    def worth_isolating(self) -> bool:
        return not self.always_active and self.h >= 0 and self.estimated_slack >= 0

    def to_dict(self) -> dict:
        """JSON-serialisable record of the assessment."""
        return {
            "name": self.name,
            "activation": self.activation,
            "idle_probability": self.idle_probability,
            "primary_mw": self.primary_mw,
            "secondary_mw": self.secondary_mw,
            "overhead_mw": self.overhead_mw,
            "net_mw": self.net_mw,
            "area_um2": self.area_um2,
            "h": self.h,
            "estimated_slack": self.estimated_slack,
            "block": self.block_index,
            "always_active": self.always_active,
            "worth_isolating": self.worth_isolating,
        }


def assess_candidate(
    candidate: IsolationCandidate,
    cost_model: CostModel,
    design: Design,
    style: str,
    library: TechnologyLibrary,
    timing,
) -> RankedCandidate:
    """The full what-if assessment of one (non-always-active) candidate.

    Pure per-candidate computation against a calibrated cost model —
    also the unit of work the :mod:`repro.parallel` pool dispatches.
    """
    score = cost_model.evaluate(candidate, style)
    impact = estimate_isolation_impact(
        design, candidate.cell, candidate.activation, style, library, timing
    )
    return RankedCandidate(
        name=candidate.name,
        activation=repr(candidate.activation),
        idle_probability=score.savings.idle_probability,
        primary_mw=score.savings.primary_mw,
        secondary_mw=score.savings.secondary_mw,
        overhead_mw=score.savings.overhead_mw,
        net_mw=score.savings.net_mw,
        area_um2=score.area,
        h=score.h,
        estimated_slack=impact.estimated_slack,
        block_index=candidate.block.index,
        always_active=False,
    )


def rank_candidates(
    design: Design,
    stimulus: Stimulus,
    style: str = "and",
    *,
    weights: Optional[CostWeights] = None,
    library: Optional[TechnologyLibrary] = None,
    clock_period: Optional[float] = None,
    lookahead_depth: int = 0,
    run: Optional[RunConfig] = None,
) -> List[RankedCandidate]:
    """Assess every candidate of ``design`` under ``stimulus``.

    Returns candidates sorted by descending ``h(c)``. The design is not
    modified. Run control comes from ``run=RunConfig(...)`` (including
    ``workers`` — per-candidate assessments go to the process pool, with
    results identical to the serial loop), else the :class:`RunConfig`
    defaults.
    """
    cfg = run or RunConfig()
    library = library or default_library()
    weights = weights or CostWeights()

    if lookahead_depth > 0:
        from repro.core.lookahead import derive_with_lookahead

        analysis = derive_with_lookahead(design, depth=lookahead_depth)
    else:
        analysis = derive_activation_functions(design)
    candidates = find_candidates(design, analysis)

    savings_model = SavingsModel(design, candidates, library)
    monitor = ToggleMonitor()
    make_simulator(design, cfg.engine).run(
        stimulus,
        cfg.cycles,
        monitors=[monitor, savings_model.probes],
        warmup=cfg.warmup,
    )
    savings_model.calibrate(monitor)

    total_power = PowerEstimator(library).breakdown(design, monitor).total_power_mw
    cost_model = CostModel(
        savings_model,
        library,
        total_power_mw=total_power,
        total_area=library.total_area(design),
        weights=weights,
    )
    reference = analyze_timing(design, library, clock_period=None)
    period = clock_period if clock_period is not None else reference.clock_period * 1.25
    timing = analyze_timing(design, library, clock_period=period)

    # Assess the non-trivial candidates, serially or on the worker pool
    # (lazy import: repro.parallel imports this module's RankedCandidate).
    from repro.parallel.pool import WorkerPool
    from repro.parallel.scoring import rank_chunked

    assessable = [
        c.name for c in candidates if not c.isolated and not c.always_active
    ]
    with WorkerPool(cfg.workers) as pool:
        assessed = rank_chunked(
            cost_model, assessable, design, style, library, timing, pool
        )

    ranked: List[RankedCandidate] = []
    for candidate in candidates:
        if candidate.isolated:
            continue
        if candidate.always_active:
            ranked.append(
                RankedCandidate(
                    name=candidate.name,
                    activation=repr(candidate.activation),
                    idle_probability=0.0,
                    primary_mw=0.0,
                    secondary_mw=0.0,
                    overhead_mw=0.0,
                    net_mw=0.0,
                    area_um2=0.0,
                    h=0.0,
                    estimated_slack=timing.slack(candidate.cell.net("Y")),
                    block_index=candidate.block.index,
                    always_active=True,
                )
            )
            continue
        ranked.append(assessed[candidate.name])
    ranked.sort(key=lambda r: r.h, reverse=True)
    return ranked


def format_ranking(ranked: List[RankedCandidate]) -> str:
    """Render a ranking as a text table."""
    lines = [
        f"{'candidate':<14} {'blk':>3} {'idle':>6} {'dP[mW]':>8} {'ovh':>7} "
        f"{'area':>7} {'h':>9} {'slack':>7}  activation"
    ]
    for r in ranked:
        if r.always_active:
            lines.append(f"{r.name:<14} {r.block_index:>3} {'--':>6} "
                         f"{'always active':<42} {r.activation}")
            continue
        lines.append(
            f"{r.name:<14} {r.block_index:>3} {r.idle_probability:>6.0%} "
            f"{r.net_mw:>8.4f} {r.overhead_mw:>7.4f} {r.area_um2:>7.0f} "
            f"{r.h:>9.4f} {r.estimated_slack:>7.3f}  {r.activation}"
        )
    return "\n".join(lines)
