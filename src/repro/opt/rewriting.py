"""Power-driven datapath rewriting as a :class:`TransformPass`.

The third pass family: instead of suppressing redundant activity
(isolation) or stopping clocks (gating), it *restructures* the
arithmetic so there is less activity to suppress — strength-reducing
constant multipliers, reassociating add/mul chains by measured operand
activity, and moving muxes through operators. Run it ahead of isolation
(``passes=("rewrite", "isolation")``) so isolation scores the settled
structure; the loop defers structure-sensitive passes in any iteration
where a rewrite landed, so composition in either order is safe.

Candidates come from :func:`repro.rewrite.rules.find_rewrites`, are
scored exactly against the shared estimation run by replaying traced
boundary values through the replacement cone
(:mod:`repro.rewrite.scoring`), and compete in a single selection group:
at most one rewrite applies per iteration, so overlapping plans never
fight and every application is re-measured before the next.

Every applied rewrite is immediately re-verified: the working design
before and after the splice are co-simulated through the lockstep
``engine="checked"`` rig on a fresh random stimulus, and any divergence
aborts the run loudly. The rewrite is discarded only by failing, never
silently.
"""

from __future__ import annotations

from typing import List, Optional

from repro import obs
from repro.opt.framework import (
    AppliedTransform,
    OptIteration,
    PassContext,
    TransformPass,
    register_pass,
)
from repro.power.estimator import PowerEstimator
from repro.rewrite.rules import RewritePlan, find_rewrites
from repro.rewrite.scoring import (
    MIN_GAIN_MW,
    RewriteScore,
    ValueTrace,
    score_rewrite,
)

#: Cycles of the per-rewrite checked-engine equivalence run. Plenty for
#: the shipped designs' state depth while keeping apply cheap; the full
#: campaign-length verification lives in the test suite.
VERIFY_CYCLES = 128

#: Seed of the verification stimulus (independent of the scoring run).
VERIFY_SEED = 20260808


class RewritePass(TransformPass):
    """Greedy, estimator-scored structural rewriting of the datapath."""

    name = "rewrite"
    changes_structure = True
    conflicts_with_structure = True

    def __init__(self) -> None:
        #: Cell name -> rule that grafted it, for the whole run. Keeps
        #: the two mux directions from unwinding each other's work.
        self._rule_of: dict = {}

    def begin(self, ctx: PassContext) -> None:
        super().begin(ctx)
        self._estimator = PowerEstimator(ctx.library)
        self._plans: List[RewritePlan] = []
        self._trace: Optional[ValueTrace] = None

    def enumerate(self, record: OptIteration) -> int:
        with obs.span("rewrite.enumerate", "stage"):
            self._plans = find_rewrites(self.ctx.working, created_by=self._rule_of)
        self._trace = None
        if self._plans:
            nets = [net for plan in self._plans for net in plan.sources]
            self._trace = ValueTrace(nets)
        return len(self._plans)

    def monitors(self) -> list:
        return [self._trace] if self._trace is not None else []

    def score(self, total_power_mw: float, monitor) -> List[List[RewriteScore]]:
        ctx = self.ctx
        total_area = ctx.library.total_area(ctx.working)
        scores: List[RewriteScore] = []
        for plan in self._plans:
            with obs.span(
                "rewrite.score", "score", rule=plan.rule, target=plan.target
            ):
                if plan.prepare is not None:
                    plan.prepare(plan, monitor)
                score = score_rewrite(
                    plan,
                    trace=self._trace,
                    monitor=monitor,
                    total_power_mw=total_power_mw,
                    total_area=total_area,
                    weights=ctx.config.weights,
                    library=ctx.library,
                    estimator=self._estimator,
                )
            if score.net_mw > MIN_GAIN_MW:
                scores.append(score)
            else:
                obs.counter("rewrites.rejected", reason="no_gain").inc()
        if not scores:
            return []
        # One selection group: at most one rewrite per iteration. Plans
        # can overlap structurally (nested chains, a mul that is both a
        # strength-reduction and a mux-push target), so the losers must
        # be re-enumerated against the post-splice netlist, not applied.
        return [scores]

    def apply(self, best: RewriteScore) -> AppliedTransform:
        from repro.netlist.splice import GraftBuilder, splice_readers
        from repro.sim.stimulus import random_stimulus
        from repro.verify.equivalence import assert_observable_equivalence

        plan = best.plan
        working = self.ctx.working
        with obs.span(
            "rewrite.apply", "transform", rule=plan.rule, target=plan.target
        ):
            golden = working.copy(f"{working.name}_pre_rewrite")
            graft = GraftBuilder(working)
            new_out = plan.build(graft, plan.sources)
            splice_readers(working, plan.out_net, new_out)
            swept = working.sweep_dangling()
            for cell in graft.cells:
                self._rule_of[cell.name] = plan.rule
            # Trust nothing: co-simulate the pre/post-splice designs in
            # lockstep (python + compiled) before accepting the rewrite.
            cycles = min(self.ctx.config.cycles, VERIFY_CYCLES)
            assert_observable_equivalence(
                golden,
                working,
                random_stimulus(working, seed=VERIFY_SEED),
                cycles=cycles,
                engine="checked",
            )
        obs.counter("rewrites.applied", rule=plan.rule).inc()
        return AppliedTransform(
            pass_name=self.name,
            target=plan.target,
            detail={
                "rule": plan.rule,
                "cells_removed": swept,
                "cells_added": best.cells_added,
                **{
                    k: v
                    for k, v in plan.detail.items()
                    if isinstance(v, (str, int, float, bool, list))
                },
            },
            estimated_net_mw=best.net_mw,
        )

    def below_threshold(self, best: RewriteScore) -> None:
        obs.counter("rewrites.rejected", reason="below_h_min").inc()

    def serialize_score(self, score: RewriteScore) -> dict:
        return {
            "rule": score.rule,
            "target": score.target,
            "h": score.h,
            "net_mw": score.net_mw,
            "area_delta": score.area_delta,
            "cells_added": score.cells_added,
        }


register_pass(RewritePass.name, RewritePass)
