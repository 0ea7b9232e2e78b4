"""Operand isolation re-expressed as a :class:`TransformPass`.

This is the paper's Algorithm 1 body, stage by stage, behind the pass
protocol: ``optimize(passes=("isolation",))`` — spelled
:func:`~repro.opt.isolate_design` — is Algorithm 1. The golden suite
``tests/test_opt_equivalence.py`` pins its decisions and metrics on
every shipped design.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro import obs
from repro.core.activation import derive_activation_functions
from repro.core.candidates import IsolationCandidate, find_candidates
from repro.core.cost import CandidateCost, CostModel
from repro.core.isolate import isolate_candidate
from repro.core.savings import SavingsModel
from repro.netlist.partition import partition_blocks
from repro.opt.framework import (
    AppliedTransform,
    OptIteration,
    PassContext,
    TransformPass,
    register_pass,
)
from repro.timing.impact import estimate_isolation_impact
from repro.timing.sta import analyze_timing


class IsolationPass(TransformPass):
    """Insert AND/OR/latch isolation banks in front of idle datapath modules."""

    name = "isolation"
    # Bank insertion rewires module fanin; a structure-sensitive pass
    # scored this iteration must not apply after isolation has.
    changes_structure = True
    conflicts_with_structure = True

    def begin(self, ctx: PassContext) -> None:
        super().begin(ctx)
        # Candidates rejected for slack stay rejected: earlier transforms
        # only ever *add* delay on these paths.
        self._rejected: Set[str] = set()

    def enumerate(self, record: OptIteration) -> int:
        ctx = self.ctx
        working, config, library = ctx.working, ctx.config, ctx.library
        blocks = partition_blocks(working)
        if config.lookahead_depth > 0:
            from repro.core.lookahead import derive_with_lookahead

            analysis = derive_with_lookahead(working, depth=config.lookahead_depth)
        else:
            analysis = derive_activation_functions(working)
        candidates = find_candidates(working, analysis, blocks)

        # Prune candidates whose activation function is a tautology —
        # syntactically (f ≡ 1) or semantically (e.g. the OR of a full
        # mux-select decode): isolation could never block anything.
        # f ≡ 0 goes too: the result is never observed, so there is
        # nothing to isolate (isolate_candidate refuses such a module).
        from repro.boolean.bdd import BddManager

        tautology_check = BddManager()
        eligible: List[IsolationCandidate] = []
        for c in candidates:
            if c.isolated or c.name in self._rejected:
                continue
            if c.always_active:
                obs.counter("candidates.rejected", reason="always_active").inc()
                continue
            if c.activation.is_false:
                obs.counter("candidates.rejected", reason="never_active").inc()
                continue
            if tautology_check.is_tautology(c.activation):
                obs.counter("candidates.rejected", reason="tautology").inc()
                continue
            eligible.append(c)

        # Slack rejection (lines 5–10; re-checked per iteration because
        # earlier isolations change arrival times). With style "auto" a
        # candidate survives if ANY style meets timing; the per-candidate
        # style choice below only considers the surviving styles.
        styles = ["and", "or", "latch"] if config.style == "auto" else [config.style]
        rejected_here = record.rejected.setdefault(self.name, [])
        with obs.span("slack.check", "stage", candidates=len(eligible)):
            timing = analyze_timing(working, library, clock_period=ctx.period)
            slack_ok: List[IsolationCandidate] = []
            allowed_styles: Dict[str, List[str]] = {}
            for c in eligible:
                passing = []
                for style in styles:
                    impact = estimate_isolation_impact(
                        working, c.cell, c.activation, style, library, timing
                    )
                    if not impact.violates(config.slack_threshold):
                        passing.append(style)
                if passing:
                    slack_ok.append(c)
                    allowed_styles[c.name] = passing
                else:
                    self._rejected.add(c.name)
                    rejected_here.append(c.name)
                    obs.counter("candidates.rejected", reason="slack").inc()

        self._blocks = blocks
        self._slack_ok = slack_ok
        self._allowed_styles = allowed_styles
        if slack_ok:
            # Savings probes ride along on the shared estimation run
            # (Algorithm 1 line 16); built over ALL candidates so probe
            # layout does not depend on this iteration's slack outcome.
            self._savings_model = SavingsModel(working, candidates, library)
        else:
            self._savings_model = None
        return len(slack_ok)

    def monitors(self) -> list:
        if self._savings_model is None:
            return []
        return [self._savings_model.probes]

    def score(self, total_power_mw: float, monitor) -> List[List[CandidateCost]]:
        from repro.parallel.scoring import score_candidates

        ctx = self.ctx
        self._savings_model.calibrate(monitor)
        cost_model = CostModel(
            self._savings_model,
            ctx.library,
            total_power_mw=total_power_mw,
            total_area=ctx.library.total_area(ctx.working),
            weights=ctx.config.weights,
        )

        # Score every surviving (candidate, style) pair — serially or on
        # the worker pool; both paths are bit-identical (repro.parallel).
        evaluated = score_candidates(
            cost_model,
            [
                (c.name, style)
                for c in self._slack_ok
                for style in self._allowed_styles[c.name]
            ],
            refined=ctx.config.refined_savings,
            pool=ctx.pool,
        )

        # One selection group per combinational block, each holding the
        # best-style score of every surviving candidate in that block
        # (Algorithm 1 lines 17–29: isolate at most one per block).
        groups: List[List[CandidateCost]] = []
        for block in self._blocks:
            block_candidates = [
                c for c in self._slack_ok if c.block.index == block.index
            ]
            if not block_candidates:
                continue
            scores = []
            for c in block_candidates:
                best_for_candidate = None
                for style in self._allowed_styles[c.name]:
                    score = evaluated[(c.name, style)]
                    if best_for_candidate is None or score.h > best_for_candidate.h:
                        best_for_candidate = score
                scores.append(best_for_candidate)
            groups.append(scores)
        return groups

    def apply(self, best: CandidateCost) -> AppliedTransform:
        with obs.span(
            "bank.insert",
            "transform",
            candidate=best.candidate.name,
            style=best.savings.style,
            block=best.candidate.block.index,
        ):
            instance = isolate_candidate(
                self.ctx.working, best.candidate.cell, best.candidate.activation,
                style=best.savings.style,
            )
        obs.counter("candidates.isolated", style=best.savings.style).inc()
        return AppliedTransform(
            pass_name=self.name,
            target=best.candidate.name,
            detail={
                "style": best.savings.style,
                "block": best.candidate.block.index,
            },
            estimated_net_mw=best.savings.net_mw,
            instance=instance,
        )

    def below_threshold(self, best: CandidateCost) -> None:
        obs.counter("candidates.rejected", reason="below_h_min").inc()

    def serialize_score(self, score: CandidateCost) -> dict:
        return {
            "candidate": score.candidate.name,
            "style": score.savings.style,
            "h": score.h,
            "net_mw": score.savings.net_mw,
            "idle_probability": score.savings.idle_probability,
        }


register_pass(IsolationPass.name, IsolationPass)
