"""One workload in one fresh process: set up, time, check, report.

Started by ``run.py``, which passes the monotonic time at which it
spawned this process so that set-up time covers interpreter start and
imports. Prints one JSON object as the last line of standard output.
Steps run until ``--seconds`` have passed and the quality window is
complete; the run ends on a round boundary. With ``--trace 1`` the
timed phase is split: half untraced, then the same steps again under an
``obs.Recorder`` on fresh workload state, followed by the layer probes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

from common import OUT_DIR, ROOT

SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-prefix", default="")
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def run_phase(workload, seconds: float):
    """Run steps for ``seconds``, finishing the quality window and the round.

    Returns the ops, the phase's wall time and the peak RSS in MB at the
    end of the quality window: a fixed amount of work, whereas the whole
    phase's work depends on the machine's speed.
    """
    from repro import obs

    ops, step = [], 0
    window_steps = workload.min_rounds * workload.steps_per_round
    started = time.perf_counter()
    while True:
        with obs.span(
            "bench.op", "bench", workload=workload.name, op=step, design=workload.label(step)
        ):
            ops.extend(workload.step(step))
        step += 1
        if step == window_steps:
            window_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if (
            step >= window_steps
            and step % workload.steps_per_round == 0
            and time.perf_counter() - started >= seconds
        ):
            return ops, time.perf_counter() - started, window_rss_mb


def window(workload, ops):
    steps = workload.min_rounds * workload.steps_per_round
    return [op for op in ops if op.step < steps]


def result_digest(ops) -> str:
    lines = "\n".join(f"{op.step}:{op.design}:{op.kind}:{op.digest}" for op in ops)
    return hashlib.sha256(lines.encode()).hexdigest()


def samples(ops) -> dict:
    """Per-op samples, one list per field (compact on disk)."""
    return {
        "step": [op.step for op in ops],
        "design": [op.design for op in ops],
        "kind": [op.kind for op in ops],
        "latency_s": [op.latency_s for op in ops],
        "reason": [op.reason for op in ops],
        "digest": [op.digest[:16] for op in ops],
    }


def latencies(ops):
    return [op.latency_s for op in ops if op.kind == "computed" and not op.hard_failure]


def end_to_end(workload, ops, elapsed: float) -> dict:
    """Every metric the untraced phase defines, as ``name -> (value, n)``."""
    computed = latencies(ops)
    quality = window(workload, ops)
    metrics = {
        "ops_per_s": (len(ops) / elapsed, len(ops)),
        "failed_share": (
            sum(op.reason is not None for op in quality) / len(quality),
            len(quality),
        ),
    }
    if computed:
        metrics["op_p50_s"] = (statistics.median(computed), len(computed))
    if len(computed) >= 100:
        metrics["op_p90_s"] = (statistics.quantiles(computed, n=10)[-1], len(computed))
    hits = [1e3 * op.latency_s for op in ops if op.kind == "hit" and not op.hard_failure]
    if hits:
        metrics["hit_p50_ms"] = (statistics.median(hits), len(hits))
    optimized = [op for op in quality if op.kind == "computed"]
    if any(op.payload and "power_mw" in op.payload for op in optimized):
        values = [
            0.0 if op.reason else 100.0 * op.payload["power_mw"]["reduction"]
            for op in optimized
        ]
        metrics["power_reduction_pct"] = (statistics.fmean(values), len(values))
    return metrics


def traced_phase(make, seconds: float, trace_prefix: str):
    """The same steps under a recorder, then the layer probes."""
    from repro import obs
    from repro.sim import bitslice_cache, program_cache

    import layers

    # Start from the state the untraced phase started from: only the
    # warm-up's programs compiled, so the overhead compares like with like.
    program_cache().clear()
    bitslice_cache().clear()
    workload = make()
    try:
        workload.warm_up()
        calls = layers.CallLog()
        calls.instrument(workload)
        recorder = obs.Recorder()
        since_ns = time.perf_counter_ns()
        with obs.use(recorder):
            ops, _, _ = run_phase(workload, seconds)
            phase_spans = list(recorder.tracer.roots) + layers.service_spans(
                workload, since_ns
            )
            probes = layers.probe(workload)
        workload.check(ops)
    finally:
        workload.close()
    spans = list(recorder.tracer.roots) + layers.service_spans(workload, since_ns)
    obs.write_chrome_trace(
        f"{trace_prefix}.trace.json", spans, metrics=recorder.metrics.to_dict()
    )
    per_layer = {**probes, **layers.op_metrics(ops, phase_spans), **calls.metrics()}
    return ops, per_layer, obs.aggregate_spans(spans)


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so the temporary directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    cls = workloads.REGISTRY[args.workload]

    def make():
        return cls(args.seed, args.scale, tempfile.mkdtemp(dir=tmp))

    try:
        workload = make()
        try:
            workload.warm_up()
            setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            seconds = args.seconds / 2 if args.trace else args.seconds
            ops, elapsed, peak_rss_mb = run_phase(workload, seconds)
            workload.check(ops)
        finally:
            workload.close()
        metrics = end_to_end(workload, ops, elapsed)
        metrics["peak_rss_mb"] = (peak_rss_mb, 1)
        result = {
            "workload": args.workload,
            "setup_s": setup_s,
            "elapsed_s": elapsed,
            "metrics": {k: {"value": v, "n": n} for k, (v, n) in metrics.items()},
            "result_digest": result_digest(window(workload, ops)),
            "ops": samples(ops),
        }
        all_ops = list(ops)
        deterministic = True
        if args.trace:
            traced_ops, per_layer, rollup = traced_phase(
                make, seconds, args.trace_prefix
            )
            traced_p50 = statistics.median(latencies(traced_ops))
            per_layer["obs.trace_overhead_pct"] = 100.0 * (
                traced_p50 / metrics["op_p50_s"][0] - 1.0
            )
            result["per_layer"] = per_layer
            result["span_rollup"] = rollup
            result["traced_digest"] = result_digest(window(workload, traced_ops))
            deterministic = result["traced_digest"] == result["result_digest"]
            if not deterministic:
                print("error: the traced phase gave another result_digest", file=sys.stderr)
            all_ops += traced_ops
        failed = sum(op.hard_failure for op in all_ops)
        result.update(
            attempted=len(all_ops),
            failed=failed,
            correct=failed == 0 and deterministic,
            failures=[
                {"step": op.step, "design": op.design, "kind": op.kind, "reason": op.reason}
                for op in all_ops
                if op.reason is not None
            ],
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
