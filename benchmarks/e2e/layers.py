"""Per-layer metrics of a traced run, measured from outside the program.

Three sources, none of which adds a span inside ``src/``:

* probes: timed calls into each layer's public functions on the
  workload's own designs, each inside a ``bench.layer.<metric>`` span;
  a value is the median of a few calls, averaged over the designs;
* the spans and result payloads of the traced ops;
* on sweep-serve, timed wrappers around the ``JobService`` and
  ``ExperimentStore`` methods the sweep calls.

A metric whose layer the workload's ops never reach reads 0.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from repro import obs
from repro.core.activation import derive_activation_functions
from repro.core.candidates import find_candidates
from repro.core.cost import CostWeights
from repro.core.savings import SavingsModel
from repro.netlist import textio
from repro.power.estimator import PowerEstimator, estimate_power_ci
from repro.power.library import default_library
from repro.rewrite import ValueTrace, find_rewrites, score_rewrite
from repro.runconfig import RunConfig
from repro.sim import ToggleMonitor, compile_design, make_simulator
from repro.timing import analyze_timing
from repro.verify.equivalence import assert_observable_equivalence

from workloads import derive_seed

REPEATS = 3
WARMUP = 16
BATCH_LANES = 64
BATCH_CYCLES = 256
CHECKED_CYCLES = 128


def _timed(metric: str, fn, repeats: int = REPEATS) -> float:
    """Median seconds of ``repeats`` calls, each in a ``bench.layer`` span."""
    times = []
    for _ in range(repeats):
        with obs.span(f"bench.layer.{metric}", "bench"):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
    return statistics.median(times)


def _probe_design(workload, design) -> Dict[str, float]:
    library = default_library()
    cycles = workload.cycles
    kcycles = cycles / 1000.0
    seed = derive_seed(workload.name, workload.seed, "probe", design.name)

    def run(monitors):
        make_simulator(design, "compiled").run(
            workload.stimulus(design, seed), cycles, monitors=monitors, warmup=WARMUP
        )

    model = SavingsModel(design, find_candidates(design), library)
    kernel_s = _timed("sim.kernel_kcycles_per_s", lambda: run([]))
    toggle_s = _timed("sim.toggle_ms_per_kcycle", lambda: run([ToggleMonitor()]))
    probe_s = _timed(
        "sim.probe_ms_per_kcycle", lambda: run([ToggleMonitor(), model.probes])
    )
    batch_run = RunConfig(cycles=BATCH_CYCLES, seed=seed, engine="bitslice", workers=1)
    batch_s = _timed(
        "sim.batch_lane_kcycles_per_s",
        lambda: estimate_power_ci(
            design, batch_size=BATCH_LANES, run=batch_run, library=library
        ),
        repeats=1,
    )
    twin = design.copy()
    checked_s = _timed(
        "verify.checked_kcycles_per_s",
        lambda: assert_observable_equivalence(
            design,
            twin,
            workload.stimulus(design, seed),
            CHECKED_CYCLES,
            engine="checked",
        ),
        repeats=1,
    )
    metrics = {
        "netlist.parse_ms": 1e3
        * _timed("netlist.parse_ms", lambda: textio.loads(textio.dumps(design))),
        "sim.compile_ms": 1e3 * _timed("sim.compile_ms", lambda: compile_design(design)),
        "sim.kernel_kcycles_per_s": kcycles / kernel_s,
        "sim.toggle_ms_per_kcycle": 1e3 * (toggle_s - kernel_s) / kcycles,
        "sim.probe_ms_per_kcycle": 1e3 * (probe_s - toggle_s) / kcycles,
        "sim.probes": float(len(model.probes.probabilities())),
        "sim.batch_lane_kcycles_per_s": BATCH_LANES * BATCH_CYCLES / 1e3 / batch_s,
        "core.activation_ms": 1e3
        * _timed(
            "core.activation_ms",
            lambda: find_candidates(design, derive_activation_functions(design)),
        ),
        "timing.sta_ms": 1e3
        * _timed("timing.sta_ms", lambda: analyze_timing(design, library)),
        "rewrite.find_ms": 1e3 * _timed("rewrite.find_ms", lambda: find_rewrites(design)),
        "rewrite.score_ms_per_plan": 0.0,
        "verify.checked_kcycles_per_s": CHECKED_CYCLES / 1e3 / checked_s,
    }
    plans = find_rewrites(design)
    if plans:
        monitor = ToggleMonitor()
        trace = ValueTrace(net for plan in plans for net in plan.sources)
        run([monitor, trace])
        total_mw = PowerEstimator(library).breakdown(design, monitor).total_power_mw
        area = library.total_area(design)
        weights = CostWeights()
        score_s = _timed(
            "rewrite.score_ms_per_plan",
            lambda: [
                score_rewrite(plan, trace, monitor, total_mw, area, weights, library)
                for plan in plans
            ],
        )
        metrics["rewrite.score_ms_per_plan"] = 1e3 * score_s / len(plans)
    return metrics


def probe(workload) -> Dict[str, float]:
    """Probe metrics, averaged over the workload's designs."""
    per_design = [_probe_design(workload, design) for design in workload.designs]
    return {
        name: statistics.fmean(m[name] for m in per_design) for name in per_design[0]
    }


def op_metrics(ops, spans) -> Dict[str, float]:
    """Metrics of the optimize layers from the traced ops' spans and payloads."""
    optimized = [
        op
        for op in ops
        if op.kind == "computed" and op.payload is not None and "iterations" in op.payload
    ]
    rollup = {entry["name"]: entry for entry in obs.aggregate_spans(spans)}

    def total(name):
        return rollup.get(name, {}).get("total_s", 0.0)

    def count(name):
        return rollup.get(name, {}).get("count", 0)

    def self_s(name):
        return rollup.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    iterations = [it for op in optimized for it in op.payload["iterations"]]
    scored = sum(len(s) for it in iterations for s in it["scores"].values())
    applied = [t for op in optimized for t in op.payload["applied"]]
    rewrites_scored = sum(len(it["scores"].get("rewrite", ())) for it in iterations)
    rewrites_applied = sum(1 for t in applied if t["pass"] == "rewrite")
    n = len(optimized)
    return {
        "power.estimates_per_op": ratio(count("power.estimate"), n),
        "power.estimate_s_per_op": ratio(total("power.estimate"), n),
        "opt.iterations_per_op": ratio(len(iterations), n),
        "opt.transforms_per_op": ratio(len(applied), n),
        "opt.candidates_scored_per_op": ratio(scored, n),
        "opt.applied_per_scored": ratio(len(applied), scored),
        "opt.score_ms_per_op": 1e3 * ratio(total("score.batch"), n),
        "opt.loop_self_share": ratio(
            self_s("optimize") + self_s("optimize.iteration"), total("optimize")
        ),
        "rewrite.plans_per_op": ratio(rewrites_scored, n),
        "rewrite.applied_per_scored": ratio(rewrites_applied, rewrites_scored),
        "rewrite.apply_ms": 1e3 * ratio(total("rewrite.apply"), count("rewrite.apply")),
    }


class CallLog:
    """Timed wrappers around the serve and store calls of a sweep workload.

    Each wrapped call runs inside a ``bench.layer.<metric>`` span and is
    logged as ``(wall start, wall end, result)``; wall clock, because the
    service stamps jobs with ``time.time()``.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, List[tuple]] = {
            "serve.submit_ms": [],
            "serve.wait": [],
            "sweep.store_put_ms": [],
            "sweep.store_get_ms": [],
        }

    def wrap(self, obj, method: str, metric: str):
        inner = getattr(obj, method)
        log = self.calls[metric]

        def timed(*args, **kwargs):
            with obs.span(f"bench.layer.{metric}", "bench"):
                started = time.time()
                result = inner(*args, **kwargs)
                log.append((started, time.time(), result))
            return result

        setattr(obj, method, timed)
        return obj

    def instrument(self, workload) -> None:
        """Wrap the sweep workload's service and every store it creates."""
        service = getattr(workload, "service", None)
        if service is None:
            return
        self.wrap(service, "submit", "serve.submit_ms")
        self.wrap(service, "wait", "serve.wait")
        make_store = workload.store_factory

        def store_factory(path):
            store = make_store(path)
            self.wrap(store, "put", "sweep.store_put_ms")
            return self.wrap(store, "get", "sweep.store_get_ms")

        workload.store_factory = store_factory

    def metrics(self) -> Dict[str, float]:
        def median_ms(values):
            values = list(values)
            return 1e3 * statistics.median(values) if values else 0.0

        submits = self.calls["serve.submit_ms"]
        returned = {job.id: end for _, end, job in self.calls["serve.wait"]}
        called = {job.id: start for start, _, job in submits}
        fresh = [job for _, _, job in submits if not job.cached and job.finished_at]
        return {
            "serve.submit_ms": median_ms(end - start for start, end, _ in submits),
            "serve.queue_wait_ms": median_ms(j.started_at - j.submitted_at for j in fresh),
            "serve.service_ms": median_ms(j.finished_at - j.started_at for j in fresh),
            "serve.post_finish_wait_ms": median_ms(
                (returned[j.id] - called[j.id]) - (j.finished_at - j.submitted_at)
                for j in fresh
                if j.id in returned
            ),
            "serve.cache_hit_ratio": (
                sum(1 for _, _, job in submits if job.cached) / len(submits)
                if submits
                else 0.0
            ),
            "sweep.store_put_ms": median_ms(
                end - start for start, end, _ in self.calls["sweep.store_put_ms"]
            ),
            "sweep.store_get_ms": median_ms(
                end - start for start, end, _ in self.calls["sweep.store_get_ms"]
            ),
        }


def service_spans(workload, since_ns: int) -> list:
    """Job spans the sweep workload's service recorded after ``since_ns``."""
    service = getattr(workload, "service", None)
    if service is None:
        return []
    return [s for s in service.recorder.tracer.roots if s.start_ns >= since_ns]
