"""Compare two sets of benchmark runs, workload by workload.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Side A is the parent (or first) set, side B the change. Each file is a
results file written by ``run.py``. For every workload and metric the
table shows each side's median and quartiles and a label:

* ``worse``: B's median is worse than A's by more than the metric's
  bound (``BENCHMARK.json`` for end-to-end metrics, ``common.REPORT_ONLY``
  for the others);
* ``unresolved``: either side's quartile spread is wider than the bound,
  unless every B run reads better than every A run;
* ``better``: B's median is better by more than A's own quartile spread
  and B wins at least nine tenths of the run pairs (ties count for
  neither side);
* ``unchanged``: anything else.

Runs pair up by seed when both sides hold the same distinct seeds, else
in the order given when both sides hold as many runs; unpaired sets are
never labelled better. Same-seed pairs also compare each workload's
``result_digest``. The exit code is 1 when any row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Sequence

from common import metric_table

WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def load(paths: List[str]) -> List[dict]:
    docs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def _scale(spec: dict, median: float) -> float:
    """Divisor turning a difference into the bound's unit."""
    return 1.0 if spec.get("absolute") or median == 0 else abs(median)


def classify(spec: dict, a: List[float], b: List[float], pairs) -> Dict[str, object]:
    """One row: medians, quartiles, change and label of one metric."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if spec["better"] == "lower" else -1.0
    scale = _scale(spec, qa[1])
    worse_by = sign * (qb[1] - qa[1]) / scale
    spread_a = (qa[2] - qa[0]) / scale
    spread_b = (qb[2] - qb[0]) / _scale(spec, qb[1])
    if sign > 0:
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    wins = None
    if pairs is not None:
        wins = sum(1 for x, y in pairs if sign * (y - x) < 0), len(pairs)
    if max(spread_a, spread_b) > spec["bound"] and not all_better:
        label = "unresolved"
    elif worse_by > spec["bound"]:
        label = "worse"
    elif -worse_by > spread_a and wins is not None and wins[0] >= WIN_SHARE * wins[1]:
        label = "better"
    else:
        label = "unchanged"
    return {"a": qa, "b": qb, "worse_by": worse_by, "label": label, "wins": wins}


def pair_runs(a_docs: List[dict], b_docs: List[dict]):
    """``(a, b)`` run pairs: by seed when each side has the same distinct
    seeds, else in the order given when the sides are equally long, else
    ``None``."""
    a_seeds = sorted(doc["seed"] for doc in a_docs)
    if a_seeds == sorted(doc["seed"] for doc in b_docs) and len(set(a_seeds)) == len(
        a_seeds
    ):
        b_by_seed = {doc["seed"]: doc for doc in b_docs}
        return [(doc, b_by_seed[doc["seed"]]) for doc in a_docs]
    if len(a_docs) == len(b_docs):
        return list(zip(a_docs, b_docs))
    return None


def compare(a_docs: List[dict], b_docs: List[dict]) -> int:
    table = metric_table()
    pairs_of_runs = pair_runs(a_docs, b_docs)
    workloads = [
        name
        for name in a_docs[0]["workloads"]
        if all(name in doc["workloads"] for doc in a_docs + b_docs)
    ]
    print(
        f"A: {len(a_docs)} run(s), B: {len(b_docs)} run(s)"
        f"{', paired' if pairs_of_runs else ''}"
    )
    print(
        f"{'workload':<14} {'metric':<20} {'unit':<8} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'change':>9} {'label':<10} wins"
    )
    worse = 0
    for workload in workloads:
        for name, spec in table.items():
            def values(docs):
                return [
                    doc["workloads"][workload]["metrics"][name]["value"]
                    for doc in docs
                    if name in doc["workloads"][workload]["metrics"]
                ]

            a, b = values(a_docs), values(b_docs)
            if len(a) != len(a_docs) or len(b) != len(b_docs):
                continue
            pairs = None
            if pairs_of_runs:
                pairs = [
                    (
                        x["workloads"][workload]["metrics"][name]["value"],
                        y["workloads"][workload]["metrics"][name]["value"],
                    )
                    for x, y in pairs_of_runs
                ]
            row = classify(spec, a, b, pairs)
            worse += row["label"] == "worse"
            qa, qb = row["a"], row["b"]
            side_a = f"{qa[1]:.6g} [{qa[0]:.4g}, {qa[2]:.4g}]"
            side_b = f"{qb[1]:.6g} [{qb[0]:.4g}, {qb[2]:.4g}]"
            # Positive change = B better, in the bound's unit.
            change = -row["worse_by"]
            change = f"{change:+.4g}" if spec.get("absolute") else f"{change:+.2%}"
            wins = f"{row['wins'][0]}/{row['wins'][1]}" if row["wins"] else "-"
            print(
                f"{workload:<14} {name:<20} {spec['unit']:<8} {side_a:>30} "
                f"{side_b:>30} {change:>9} {row['label']:<10} {wins}"
            )
        if pairs_of_runs:
            same_seed = [(x, y) for x, y in pairs_of_runs if x["seed"] == y["seed"]]
            same = sum(
                x["workloads"][workload]["result_digest"]
                == y["workloads"][workload]["result_digest"]
                for x, y in same_seed
            )
            print(
                f"{workload:<14} result_digest identical in {same}/{len(same_seed)} "
                f"same-seed pairs"
            )
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("error: give at least one results file on each side", file=sys.stderr)
        return 2
    return compare(load(a_paths), load(b_paths))


if __name__ == "__main__":
    sys.exit(main())
