"""Sweep-engine performance: cold grids vs store-resumed re-runs.

The experiment store's value proposition is quantified here as
points/minute: a cold sweep pays one full ``optimize`` per grid cell,
a resumed sweep answers every persisted cell from disk (verified-blob
read, no simulation), and a *mixed* re-run through a live serve
endpoint pays compute only for the cells missing from the store. The
guard asserts resume is at least ``MIN_SPEEDUP``x faster than cold —
if persisted points were ever silently recomputed, this collapses to
~1x and fails.
"""

from __future__ import annotations

import os
import shutil
import threading
import time

from repro.serve import JobService, make_server
from repro.sweep import ExperimentStore, SweepSpec, run_sweep

SPEC = {
    "name": "perf",
    "designs": ["fig1", "design1"],
    "stimuli": [None, "idle", "bursty"],
    "pass_lists": [["isolation"], ["rewrite", "isolation"]],
    "run": {"cycles": 300, "engine": "compiled"},
}
MIN_SPEEDUP = 20.0


def points_per_minute(count: int, seconds: float) -> float:
    return count * 60.0 / max(seconds, 1e-9)


def timed_sweep(spec, store, **kwargs):
    start = time.perf_counter()
    result = run_sweep(spec, store, **kwargs)
    return result, time.perf_counter() - start


def test_store_resume_beats_cold_sweep(record, tmp_path):
    spec = SweepSpec.from_dict(SPEC)
    store = ExperimentStore(str(tmp_path / "store"))

    cold, cold_s = timed_sweep(spec, store)
    assert cold.computed == spec.size and cold.failed == 0

    resumed, resumed_s = timed_sweep(spec, store)
    assert resumed.skipped == spec.size and resumed.computed == 0
    speedup = cold_s / max(resumed_s, 1e-9)

    # Mixed re-run through a live HTTP server: drop half the store so
    # half the grid is answered from disk and half is real serve jobs.
    for key in sorted(store.keys())[:: 2]:
        os.unlink(store.path(key))
    missing = spec.size - len(store)
    srv = make_server(port=0, service=JobService(queue_size=16, job_workers=2))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        mixed, mixed_s = timed_sweep(spec, store, client=srv.url)
        assert mixed.skipped == spec.size - missing
        assert mixed.computed == missing and mixed.complete
    finally:
        srv.service.shutdown(drain=False)
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
    shutil.rmtree(str(tmp_path / "store"), ignore_errors=True)

    lines = [
        "Sweep throughput: cold grid vs experiment-store resume",
        f"  grid: {spec.size} points (2 designs x 3 stimuli x 2 pass lists, "
        f"{SPEC['run']['cycles']} cycles, compiled engine)",
        "",
        f"  {'mode':<28} {'points':>7} {'seconds':>9} {'points/min':>11}",
        f"  {'cold (inline)':<28} {cold.computed:>7} {cold_s:>9.2f} "
        f"{points_per_minute(cold.computed, cold_s):>11.0f}",
        f"  {'resumed (all from store)':<28} {resumed.skipped:>7} "
        f"{resumed_s:>9.2f} "
        f"{points_per_minute(resumed.skipped, resumed_s):>11.0f}",
        f"  {'mixed (half store, serve)':<28} {spec.size:>7} {mixed_s:>9.2f} "
        f"{points_per_minute(spec.size, mixed_s):>11.0f}",
        "",
        f"  resume speedup over cold: {speedup:.0f}x (floor {MIN_SPEEDUP:.0f}x)",
    ]
    record("perf_sweep", "\n".join(lines))
    assert speedup >= MIN_SPEEDUP, (
        f"store resume only {speedup:.1f}x faster than cold — persisted "
        f"points are being recomputed"
    )
