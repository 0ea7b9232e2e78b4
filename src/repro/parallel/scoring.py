"""Parallel candidate evaluation (the task-parallel axis).

Algorithm 1 and the what-if explorer both score candidates against a
*calibrated* :class:`~repro.core.cost.CostModel` — pure computation per
``(candidate, style)`` pair, independent across pairs. These helpers
dispatch those evaluations to a :class:`~repro.parallel.pool.WorkerPool`
in chunks, while guaranteeing that the caller's greedy selection sees
exactly the numbers a serial loop would have produced:

* the same :meth:`CostModel.evaluate` code runs in the worker (on a
  pickled copy of the calibrated model) — identical IEEE arithmetic,
  and pickling round-trips floats losslessly;
* workers return plain numeric records; the parent re-binds them to its
  *own* candidate objects by name, so downstream netlist transforms
  (``isolate_candidate``) keep operating on the live design.

``score_candidates`` therefore commutes with serial evaluation
bit-for-bit, which is what ``tests/test_parallel_determinism.py``
locks down.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.cost import CandidateCost, CostModel
from repro.core.savings import SavingsEstimate
from repro.parallel.pool import WorkerPool

#: One scoring task: (candidate name, isolation style).
ScoreTask = Tuple[str, str]


@dataclass(frozen=True)
class ScoreRecord:
    """Numbers of one ``(candidate, style)`` evaluation, identity-free."""

    name: str
    style: str
    primary_mw: float
    secondary_mw: float
    overhead_mw: float
    idle_probability: float
    area: float
    relative_power: float
    relative_area: float
    h: float
    accepted: bool


def _record_of(cost: CandidateCost) -> ScoreRecord:
    return ScoreRecord(
        name=cost.candidate.name,
        style=cost.savings.style,
        primary_mw=cost.savings.primary_mw,
        secondary_mw=cost.savings.secondary_mw,
        overhead_mw=cost.savings.overhead_mw,
        idle_probability=cost.savings.idle_probability,
        area=cost.area,
        relative_power=cost.relative_power,
        relative_area=cost.relative_area,
        h=cost.h,
        accepted=cost.accepted,
    )


def _cost_of(record: ScoreRecord, candidate) -> CandidateCost:
    """Re-bind a worker's numbers to the parent's candidate object."""
    cost = CandidateCost(
        candidate=candidate,
        savings=SavingsEstimate(
            candidate=candidate,
            style=record.style,
            primary_mw=record.primary_mw,
            secondary_mw=record.secondary_mw,
            overhead_mw=record.overhead_mw,
            idle_probability=record.idle_probability,
        ),
        area=record.area,
        relative_power=record.relative_power,
        relative_area=record.relative_area,
        h=record.h,
    )
    cost._accepted = record.accepted
    return cost


def _score_chunk(payload: dict) -> List[ScoreRecord]:
    """Worker: evaluate a chunk of (name, style) tasks on a model copy."""
    cost_model: CostModel = payload["cost_model"]
    refined: bool = payload["refined"]
    by_name = {c.name: c for c in cost_model.savings_model.candidates}
    return [
        _score_one(cost_model, by_name[name], style, refined)
        for name, style in payload["tasks"]
    ]


def _score_one(cost_model: CostModel, candidate, style: str, refined: bool) -> ScoreRecord:
    """One traced ``(candidate, style)`` evaluation (worker or serial)."""
    with obs.span(
        "score.candidate", "score", candidate=candidate.name, style=style
    ) as span:
        cost = cost_model.evaluate(candidate, style, refined=refined)
        span.set(accepted=cost.accepted, h=cost.h)
        obs.counter(
            "score.evaluations", accepted=str(cost.accepted).lower()
        ).inc()
    return _record_of(cost)


def chunk_tasks(tasks: Sequence, chunks: int) -> List[List]:
    """Split tasks into at most ``chunks`` contiguous, near-even chunks."""
    chunks = max(1, min(chunks, len(tasks)))
    base, extra = divmod(len(tasks), chunks)
    out, cursor = [], 0
    for index in range(chunks):
        size = base + (1 if index < extra else 0)
        out.append(list(tasks[cursor : cursor + size]))
        cursor += size
    return out


def score_candidates(
    cost_model: CostModel,
    tasks: Sequence[ScoreTask],
    refined: bool = True,
    pool: Optional[WorkerPool] = None,
) -> Dict[ScoreTask, CandidateCost]:
    """Evaluate every ``(candidate, style)`` task, serially or pooled.

    Returns a dict keyed by task whose :class:`CandidateCost` values
    reference the *caller's* candidate objects. Serial and pooled
    execution produce bit-identical numbers.
    """
    by_name = {c.name: c for c in cost_model.savings_model.candidates}
    with obs.span("score.batch", "score", tasks=len(tasks)):
        if pool is None or not pool.active or len(tasks) <= 1:
            return {
                (name, style): _cost_of(
                    _score_one(cost_model, by_name[name], style, refined),
                    by_name[name],
                )
                for name, style in tasks
            }
        payloads = [
            {"cost_model": cost_model, "refined": refined, "tasks": chunk}
            for chunk in chunk_tasks(tasks, pool.workers)
        ]
        results: Dict[ScoreTask, CandidateCost] = {}
        for records in pool.map(_score_chunk, payloads):
            for record in records:
                results[(record.name, record.style)] = _cost_of(
                    record, by_name[record.name]
                )
        return results


# ----------------------------------------------------------------------
# What-if ranking parallelism for rank_candidates
# ----------------------------------------------------------------------
def _rank_chunk(payload: dict) -> List:
    """Worker: full what-if assessment of a chunk of candidates.

    The whole payload is pickled as one unit, so the cost model, design
    and timing analysis keep sharing one object graph in the worker —
    candidate cells resolve against the same design copy.
    """
    from repro.core.explore import assess_candidate

    cost_model = payload["cost_model"]
    by_name = {c.name: c for c in cost_model.savings_model.candidates}
    return [
        assess_candidate(
            by_name[name],
            cost_model,
            payload["design"],
            payload["style"],
            payload["library"],
            payload["timing"],
        )
        for name in payload["names"]
    ]


def rank_chunked(
    cost_model,
    names: Sequence[str],
    design,
    style: str,
    library,
    timing,
    pool: Optional[WorkerPool],
) -> Dict[str, object]:
    """Assess candidates by name, serially or pooled; bit-exact either way.

    Returns ``{name: RankedCandidate}``; :class:`RankedCandidate` carries
    only plain values, so workers return it directly.
    """
    from repro.core.explore import assess_candidate

    if pool is None or not pool.active or len(names) <= 1:
        by_name = {c.name: c for c in cost_model.savings_model.candidates}
        return {
            name: assess_candidate(
                by_name[name], cost_model, design, style, library, timing
            )
            for name in names
        }
    payloads = [
        {
            "cost_model": cost_model,
            "design": design,
            "style": style,
            "library": library,
            "timing": timing,
            "names": chunk,
        }
        for chunk in chunk_tasks(names, pool.workers)
    ]
    return {
        ranked.name: ranked
        for records in pool.map(_rank_chunk, payloads)
        for ranked in records
    }


# ----------------------------------------------------------------------
# Style-level parallelism for compare_styles
# ----------------------------------------------------------------------
def _optimize_style(payload: dict):
    """Worker: one full optimizer run for one style."""
    from repro.opt import optimize

    return optimize(
        payload["design"],
        payload["stimulus"],
        passes=payload["passes"],
        config=payload["config"],
        library=payload["library"],
    )


def optimize_styles(
    design,
    stimulus_of,
    configs: Sequence,
    library,
    passes: Sequence[str] = ("isolation",),
    pool: Optional[WorkerPool] = None,
) -> List:
    """Run :func:`repro.opt.optimize` once per style config, serially or pooled.

    ``stimulus_of`` is a zero-argument factory producing one fresh
    stimulus per style (workers receive a materialised stimulus object,
    which ``optimize`` deep-copies once and draws from — identical
    statistics to the serial factory path for deterministic factories).
    Nested pools are avoided by forcing ``workers=1`` in shipped
    configs. Results keep referencing the caller's original design.
    """
    from repro.opt import optimize

    passes = list(passes)
    if pool is None or not pool.active or len(configs) <= 1:
        return [
            optimize(
                design, stimulus_of(), passes=passes, config=config, library=library
            )
            for config in configs
        ]
    payloads = [
        {
            "design": design,
            "stimulus": copy.deepcopy(stimulus_of()),
            "passes": passes,
            "config": replace(config, workers=1),
            "library": library,
        }
        for config in configs
    ]
    results = pool.map(_optimize_style, payloads)
    for result in results:
        result.original = design  # re-bind identity lost in pickling
    return results
