"""Paths, statistics and metric definitions shared by the benchmark scripts.

Imports nothing from ``repro``: ``run.py`` and ``compare.py`` use it
without loading the package under test.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: Metrics printed, stored and compared beside ``BENCHMARK.json``'s
#: ``end_to_end`` list. They are left out of that list because they are
#: not defined, or not non-zero, on every workload: ``op_p90_s`` needs at
#: least 100 computed ops, ``hit_p50_ms`` exists on sweep-serve only,
#: ``power_reduction_pct`` is undefined on estimate-ci and
#: ``failed_share`` is 0 wherever no op fails. ``absolute`` bounds are in
#: the metric's own unit; the others are shares of the parent's median.
REPORT_ONLY: Dict[str, dict] = {
    "op_p90_s": {"unit": "s", "better": "lower", "bound": 0.15},
    "hit_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.15},
    "power_reduction_pct": {
        "unit": "%",
        "better": "higher",
        "bound": 0.01,
        "absolute": True,
    },
    "failed_share": {
        "unit": "fraction",
        "better": "lower",
        "bound": 0.0,
        "absolute": True,
    },
}


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_table() -> Dict[str, dict]:
    """Every end-to-end and report-only metric: unit, direction, bound."""
    table = {m["name"]: dict(m) for m in load_benchmark()["end_to_end"]}
    table.update(REPORT_ONLY)
    return table
