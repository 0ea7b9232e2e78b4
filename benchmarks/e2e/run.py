"""The end-to-end benchmark: every workload, every metric, checked outputs.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 1                       # all workloads
    python3 benchmarks/e2e/run.py --workload rewrite-fir --seed 1
    python3 benchmarks/e2e/run.py --workload compose-soc --seed 1 --trace 1

Each workload runs in a fresh ``worker.py`` process; the set-up time is
the median over several fresh processes. The command prints one line per
workload and metric, ``<workload> <metric> <value> <unit> (n=...)``, one
line per failed op, and writes a JSON file of per-op samples, the
environment and each workload's ``result_digest`` (default: under
``benchmarks/e2e/out/``). With ``--workload`` the last line of output is
a JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the ``end_to_end`` metrics of ``BENCHMARK.json``, or its ``per_layer``
metrics with ``--trace 1``. ``--trace 1`` also writes a Perfetto trace
per workload next to the JSON file. The exit code is 1 when an output
check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import HERE, OUT_DIR, ROOT, load_benchmark, metric_table

#: Fresh processes whose set-up time is measured per run (median reported).
SETUP_SAMPLES = 3
#: Wall-clock budget of one workload, all of its processes included.
WORKLOAD_BUDGET_S = 170.0
#: Failed ops printed per workload before the rest are summarised.
SHOWN_FAILURES = 20
#: Worker environment. A fixed hash seed makes set iteration order, and
#: with it the last digit of some float sums in the scores, the same in
#: every process, so equal seeds give equal ``result_digest``s.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


class BenchmarkError(Exception):
    """A worker process failed or printed no result."""


def parse_args(argv, bench):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="multiplies every simulated cycle count"
    )
    parser.add_argument("--out", help="JSON results file")
    return parser.parse_args(argv)


def spawn(args, workload: str, deadline: float, setup_only: bool, trace_prefix: str):
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", str(args.scale),
        "--trace", str(args.trace),
        "--trace-prefix", trace_prefix,
        "--spawn-ns", str(time.monotonic_ns()),
    ]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=WORKER_ENV,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: worker exceeded its time budget") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload: str, trace_prefix: str) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(spawn(args, workload, deadline, True, trace_prefix)["setup_s"])
    result = spawn(args, workload, deadline, False, trace_prefix)
    samples.append(result["setup_s"])
    result["setup_samples"] = samples
    result["metrics"]["setup_s"] = {"value": statistics.median(samples), "n": len(samples)}
    return result


def git_sha() -> str:
    """HEAD's SHA read from ``.git`` directly (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def report(workload: str, result: dict, table: dict, per_layer_units: dict) -> None:
    for name, metric in result["metrics"].items():
        unit = table[name]["unit"]
        print(f"{workload} {name} {metric['value']:.6g} {unit} (n={metric['n']})")
    for name, value in result.get("per_layer", {}).items():
        print(f"{workload} {name} {value:.6g} {per_layer_units[name]}")
    print(f"{workload} result_digest {result['result_digest']}")
    failures = result["failures"]
    for failure in failures[:SHOWN_FAILURES]:
        print(
            f"{workload} failed op {failure['step']} {failure['design']} "
            f"({failure['kind']}): {failure['reason']}"
        )
    if len(failures) > SHOWN_FAILURES:
        print(f"{workload} ... and {len(failures) - SHOWN_FAILURES} more failed ops")


def contract_line(result: dict, bench: dict, trace: int) -> str:
    """The summary line: exactly the metrics ``BENCHMARK.json`` lists."""
    if trace:
        metrics = {
            m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
            for m in bench["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = load_benchmark()
    args = parse_args(argv, bench)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    label = args.workload or "all"
    out = Path(args.out) if args.out else OUT_DIR / (
        f"run-{label}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    table = metric_table()
    per_layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    document = {
        "env": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "workloads": {},
    }
    try:
        for name in names:
            prefix = str(out.with_suffix("")) + f".{name}"
            result = run_workload(args, name, prefix)
            document["workloads"][name] = result
            report(name, result, table, per_layer_units)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.write_text(json.dumps(document, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if args.workload:
        print(contract_line(document["workloads"][args.workload], bench, args.trace))
    return 0 if all(r["correct"] for r in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
