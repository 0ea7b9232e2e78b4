"""The benchmark's five workloads: inputs, one timed step, output checks.

Every workload builds its inputs from the run seed and calls the public
API only (``api.Session`` and ``repro.sweep.run_sweep``), with the
engine and ``workers=1`` pinned so a later change of a library default
cannot change what is measured. A *step* is one op, except on
sweep-serve, where a step is one sweep pass and each grid point is an op.
Steps come in rounds; the first ``min_rounds`` rounds are the *quality
window* whose results feed ``result_digest`` and ``power_reduction_pct``,
so those two are fixed by the seed however long the run lasts.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import api, designs
from repro.serve import JobService
from repro.serve.durable import payload_digest
from repro.serve.supervisor import run_job_payload
from repro.sim import ControlStream, random_stimulus
from repro.sim.compile import design_fingerprint
from repro.sweep import ExperimentStore, SweepSpec, run_sweep
from repro.sweep.engine import COMPUTED, FAILED, SKIPPED
from repro.verify.equivalence import check_observable_equivalence

#: Cycles of the held-out equivalence check on the python reference engine.
CHECK_CYCLES = 256
#: Cycles of the warm-up op run per distinct design and pass list.
WARMUP_CYCLES = 64
#: Final worst slack below this fails an op (the optimizer's own default).
SLACK_THRESHOLD = api.IsolationConfig(workers=1).slack_threshold

#: Failure reasons that make an output wrong. ``slack`` is not one of
#: them: it counts in ``failed_share`` but the output is still correct.
SLACK = "slack"


def derive_seed(*parts: object) -> int:
    """A 31-bit seed from the run seed and an op's coordinates."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def scaled(cycles: int, scale: float) -> int:
    return max(32, int(round(cycles * scale)))


@dataclass
class Op:
    """One completed op and, after the checks, why it failed (if it did)."""

    step: int
    design: str
    kind: str  # "computed", "resume" (store read) or "hit" (serve cache)
    latency_s: float
    payload: Optional[dict] = None
    reason: Optional[str] = None
    key: str = ""
    source: object = None  # input design, for the equivalence check
    candidate: object = None  # optimized design

    @property
    def digest(self) -> str:
        return payload_digest(self.payload) if self.payload is not None else ""

    @property
    def hard_failure(self) -> bool:
        return self.reason is not None and self.reason != SLACK


def _raised(step: int, design: str, started: float) -> Op:
    traceback.print_exc()
    exc_type, exc, _ = sys.exc_info()
    return Op(
        step,
        design,
        "computed",
        time.perf_counter() - started,
        reason=f"raised {exc_type.__name__}: {exc}",
    )


def _without_timings(payload: dict) -> dict:
    payload.pop("timings", None)
    return payload


# ----------------------------------------------------------------------
class Workload:
    """Seed, scaled cycle count and designs of one workload.

    Unless a subclass says otherwise, step ``i`` runs design
    ``i mod len(designs)`` and a round is one pass over the designs.
    """

    name = ""
    design_names: tuple = ()
    cycles = 0
    min_rounds = 1

    def __init__(self, seed: int, scale: float, tmp_dir: str) -> None:
        self.seed = seed
        self.cycles = scaled(self.cycles, scale)
        self.designs = [getattr(designs, n)() for n in self.design_names]
        self.steps_per_round = len(self.designs)

    def stimulus(self, design, seed: int):
        return random_stimulus(design, seed=seed)

    def label(self, step: int) -> str:
        return self.designs[step % len(self.designs)].name

    def close(self) -> None:
        pass


class OptimizeWorkload(Workload):
    """``Session.optimize`` with one pass list, one design per step."""

    passes: tuple = ()

    def _session(self, design, cycles: int, seed: int) -> api.Session:
        run = api.RunConfig(cycles=cycles, seed=seed, engine="compiled", workers=1)
        return api.Session(
            design, stimulus=lambda: self.stimulus(design, seed), run=run
        )

    def warm_up(self) -> None:
        for design in self.designs:
            self._session(design, WARMUP_CYCLES, 0).optimize(
                passes=list(self.passes), style="and"
            )

    def step(self, step: int) -> List[Op]:
        design = self.designs[step % len(self.designs)]
        session = self._session(
            design, self.cycles, derive_seed(self.name, self.seed, step)
        )
        started = time.perf_counter()
        try:
            result = session.optimize(passes=list(self.passes), style="and")
        except Exception:  # a failed op is counted, not fatal
            return [_raised(step, design.name, started)]
        latency = time.perf_counter() - started
        return [
            Op(
                step,
                design.name,
                "computed",
                latency,
                payload=_without_timings(result.to_dict()),
                source=design,
                candidate=result.design,
            )
        ]

    def check(self, ops: List[Op]) -> None:
        """Held-out equivalence on the reference engine, then slack."""
        verdicts: Dict[tuple, bool] = {}
        for op in ops:
            if op.reason is not None:
                continue
            # One held-out stimulus per design, so equal results share a verdict.
            key = (op.design, design_fingerprint(op.candidate))
            if key not in verdicts:
                held_out = self.stimulus(
                    op.source, derive_seed(self.name, self.seed, "held-out", op.design)
                )
                verdicts[key] = check_observable_equivalence(
                    op.source, op.candidate, held_out, CHECK_CYCLES, engine="python"
                ).equivalent
            if not verdicts[key]:
                op.reason = "equivalence"
            elif op.payload["slack_ns"]["after"] < SLACK_THRESHOLD:
                op.reason = SLACK


class IsolatePaper(OptimizeWorkload):
    name = "isolate-paper"
    design_names = (
        "paper_example",
        "design1",
        "design2",
        "alu_control_dominated",
        "shared_bus_datapath",
    )
    passes = ("isolation",)
    cycles = 2000
    min_rounds = 4


class ComposeSoc(OptimizeWorkload):
    name = "compose-soc"
    design_names = ("soc_datapath",)
    passes = ("isolation", "clock_gating")
    cycles = 500
    min_rounds = 3

    def stimulus(self, design, seed: int):
        # The stimulus of benchmarks/test_perf_optimize.py.
        return random_stimulus(
            design,
            seed=seed,
            control_probability=0.3,
            overrides={"SYS_EN": ControlStream(0.25, 0.1)},
        )


class RewriteFir(OptimizeWorkload):
    name = "rewrite-fir"
    design_names = ("fir_datapath",)
    passes = ("rewrite", "isolation")
    cycles = 1000
    min_rounds = 4


# ----------------------------------------------------------------------
class EstimateCi(Workload):
    """``Session.estimate_ci`` on the bitslice batch engine."""

    name = "estimate-ci"
    design_names = ("soc_datapath", "cordic_pipeline", "fir_datapath")
    cycles = 500
    batch_size = 64

    def _estimate(self, design, cycles: int, seed: int, engine: str) -> dict:
        run = api.RunConfig(cycles=cycles, seed=seed, engine=engine, workers=1)
        interval = api.Session(design, run=run).estimate_ci(batch_size=self.batch_size)
        payload = interval.to_dict()
        payload["per_lane_mw"] = [float(v) for v in interval.per_lane_mw]
        return payload

    def warm_up(self) -> None:
        for design in self.designs:
            self._estimate(design, WARMUP_CYCLES, 0, "bitslice")

    def step(self, step: int) -> List[Op]:
        design = self.designs[step % len(self.designs)]
        seed = derive_seed(self.name, self.seed, step)
        started = time.perf_counter()
        try:
            payload = self._estimate(design, self.cycles, seed, "bitslice")
        except Exception:  # a failed op is counted, not fatal
            return [_raised(step, design.name, started)]
        latency = time.perf_counter() - started
        return [Op(step, design.name, "computed", latency, payload=payload)]

    def check(self, ops: List[Op]) -> None:
        """Sane intervals; the first fir op equals the compiled batch engine."""
        fir_checked = False
        for op in ops:
            if op.reason is not None:
                continue
            if not (math.isfinite(op.payload["mean_mw"]) and op.payload["mean_mw"] > 0):
                op.reason = "mismatch"
                continue
            index = op.step % len(self.designs)
            if self.design_names[index] == "fir_datapath" and not fir_checked:
                fir_checked = True
                design = self.designs[index]
                seed = derive_seed(self.name, self.seed, op.step)
                if self._estimate(design, self.cycles, seed, "compiled") != op.payload:
                    op.reason = "mismatch"


# ----------------------------------------------------------------------
class SweepServe(Workload):
    """``run_sweep`` through an in-process durable ``JobService``.

    Each round takes a new run seed and makes four passes over the grid:
    cold into a fresh ``ExperimentStore``, a resume from that store, and
    two store-less passes answered from the service's result cache.
    """

    name = "sweep-serve"
    design_names = ("paper_example", "design1", "design2", "alu_control_dominated")
    grid = {
        "designs": ["fig1", "design1", "design2", "alu"],
        "stimuli": [None, "idle", "bursty"],
        "pass_lists": [["isolation"], ["isolation", "clock_gating"]],
    }
    passes_per_round = ("cold", "resume", "hit", "hit")
    cycles = 500
    min_rounds = 1
    #: Cold points of the first round recomputed inline by the check.
    recomputed = 3

    def __init__(self, seed: int, scale: float, tmp_dir: str) -> None:
        super().__init__(seed, scale, tmp_dir)
        self.tmp_dir = tmp_dir
        self.steps_per_round = len(self.passes_per_round)
        self.service = JobService(
            queue_size=64,
            job_workers=1,
            default_run=api.RunConfig(workers=1),
            state_dir=os.path.join(tmp_dir, "serve"),
        )
        self.store_factory = ExperimentStore
        self._stores: Dict[int, ExperimentStore] = {}
        self._points: Dict[str, object] = {}

    def spec(self, round_index: int) -> SweepSpec:
        run = {
            "cycles": self.cycles,
            "engine": "compiled",
            "workers": 1,
            "seed": derive_seed(self.name, self.seed, "round", round_index),
        }
        return SweepSpec.from_dict(
            {**self.grid, "name": f"e2e-{round_index}", "run": run}
        )

    def warm_up(self) -> None:
        warm = dict(self.grid, stimuli=[None], name="e2e-warm-up")
        warm["run"] = {"cycles": WARMUP_CYCLES, "engine": "compiled", "workers": 1}
        run_sweep(SweepSpec.from_dict(warm), service=self.service)

    def label(self, step: int) -> str:
        return self.passes_per_round[step % self.steps_per_round]

    def step(self, step: int) -> List[Op]:
        round_index, position = divmod(step, self.steps_per_round)
        kind = self.passes_per_round[position]
        spec = self.spec(round_index)
        if kind == "cold":
            self._stores[round_index] = self.store_factory(
                os.path.join(self.tmp_dir, f"store-{round_index}")
            )
        store = self._stores[round_index] if kind in ("cold", "resume") else None
        result = run_sweep(spec, store=store, service=self.service)
        expected = SKIPPED if kind == "resume" else COMPUTED
        ops = []
        for outcome in result.outcomes:
            point = outcome.point
            self._points[point.key] = point
            reason = None
            if outcome.status == FAILED:
                reason = f"raised {outcome.error}"
            elif outcome.status != expected:
                reason = "mismatch"
            ops.append(
                Op(
                    step,
                    f"{point.design_name}/{point.stimulus_name}/{'+'.join(point.passes)}",
                    "computed" if kind == "cold" else kind,
                    outcome.duration_s,
                    payload=outcome.payload,
                    reason=reason,
                    key=point.key,
                )
            )
        return ops

    def check(self, ops: List[Op]) -> None:
        """Resumes and hits equal their cold payload; a few cold points
        recompute inline to the same payload; hits come from the cache."""
        cold = {op.key: op.digest for op in ops if op.kind == "computed"}
        cached = {job.cache_key for job in self.service.jobs(limit=10**9) if job.cached}
        first_round = [
            op for op in ops if op.kind == "computed" and op.step < self.steps_per_round
        ]
        stride = max(1, len(first_round) // self.recomputed)
        for op in first_round[::stride][: self.recomputed]:
            if op.reason is not None:
                continue
            fresh = run_job_payload(self._points[op.key].wire_payload())
            if payload_digest(fresh) != op.digest:
                op.reason = "mismatch"
        for op in ops:
            if op.reason is not None:
                continue
            if op.kind != "computed" and op.digest != cold.get(op.key):
                op.reason = "mismatch"
            elif op.kind == "hit" and op.key not in cached:
                op.reason = "uncached"
            elif op.payload["slack_ns"]["after"] < SLACK_THRESHOLD:
                op.reason = SLACK

    def close(self) -> None:
        self.service.shutdown(drain=True, timeout=60.0)


REGISTRY = {
    cls.name: cls for cls in (IsolatePaper, ComposeSoc, RewriteFir, EstimateCi, SweepServe)
}
