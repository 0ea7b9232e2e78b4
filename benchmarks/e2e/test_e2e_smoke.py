"""Smoke test of the end-to-end benchmark at a reduced scale.

Runs every workload once untraced and once traced with the same seed,
then checks that every metric of ``BENCHMARK.json`` is printed with its
unit, that only rewrite-fir has failing ops (its slack violations), that
both runs agree on every ``result_digest`` and that ``compare.py``
accepts a run set compared with itself.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SMOKE = ["--seed", "1", "--seconds", "0.5", "--scale", "0.1"]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )


def printed_units(stdout: str) -> dict:
    """``(workload, metric) -> unit`` from the ``run.py`` metric lines."""
    units = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[1] != "failed":
            units[(fields[0], fields[1])] = fields[3]
    return units


def test_every_workload_smoke(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"

    first = run("benchmarks/e2e/run.py", *SMOKE, "--out", str(plain))
    assert first.returncode == 0, first.stderr
    second = run("benchmarks/e2e/run.py", *SMOKE, "--trace", "1", "--out", str(traced))
    assert second.returncode == 0, second.stderr

    for stdout, metrics in (
        (first.stdout, bench["end_to_end"]),
        (second.stdout, bench["per_layer"]),
    ):
        units = printed_units(stdout)
        for name in names:
            for metric in metrics:
                assert units.get((name, metric["name"])) == metric["unit"], (
                    name,
                    metric["name"],
                )
    assert list(Path(tmp_path).glob("traced.*.trace.json"))

    plain_doc = json.loads(plain.read_text())
    traced_doc = json.loads(traced.read_text())
    for name in names:
        result = plain_doc["workloads"][name]
        assert result["correct"], result["failures"]
        if name != "rewrite-fir":
            assert result["metrics"]["failed_share"]["value"] == 0, result["failures"]
        assert result["result_digest"] == traced_doc["workloads"][name]["result_digest"]

    same = run("benchmarks/e2e/compare.py", str(plain), "--", str(plain))
    assert same.returncode == 0, same.stdout + same.stderr
    assert " worse " not in same.stdout
