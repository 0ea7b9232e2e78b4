"""Attribution of the bitslice->compiled batch degradation warning.

When ``BatchSimulator(engine="bitslice")`` cannot lower a design, it
degrades to the compiled engine with a ``RuntimeWarning``. That warning
must name the *user's* call site, not a line inside ``repro`` — the same
convention ``resolve_run_config`` follows for its deprecation warnings
(see ``tests/test_runconfig.py``). These tests pin ``filename`` on the
warning record for both the direct constructor path (``stacklevel=2``)
and the ``run_shards`` wrapper path (``stacklevel=3``). The recorded
reason must also reach the sharded estimate's ``fallback_reason``.
"""

from __future__ import annotations

import pytest

import repro.sim.bitslice as bitslice_mod
from repro.errors import CompilationError
from repro.designs import design1
from repro.parallel.shard import ShardSpec, run_shards
from repro.power.estimator import estimate_power_ci
from repro.runconfig import RunConfig
from repro.sim.batch import BatchSimulator


class _AlwaysFails:
    """Stand-in kernel whose construction always fails to lower."""

    def __init__(self, design, *args, **kwargs):
        raise CompilationError("synthetic lowering failure", unit="settle_0")


@pytest.fixture
def broken_bitslice(monkeypatch):
    monkeypatch.setattr(bitslice_mod, "BitsliceBatchKernel", _AlwaysFails)


def test_direct_constructor_warning_names_this_file(broken_bitslice):
    with pytest.warns(RuntimeWarning, match="falling back") as record:
        sim = BatchSimulator(design1(), batch_size=4, engine="bitslice")
    assert sim.engine == "compiled"
    assert sim.fallback_reason is not None
    assert "synthetic lowering failure" in sim.fallback_reason
    assert len(record) == 1
    assert record[0].filename == __file__


def test_run_shard_warning_names_this_file(broken_bitslice):
    """run_shards builds the simulator on the caller's behalf; the warning
    must skip the wrapper frame and land here."""
    with pytest.warns(RuntimeWarning, match="falling back") as record:
        (stats,) = run_shards(
            design1(),
            [ShardSpec(index=0, lanes=4, seed=7)],
            cycles=10,
            engine="bitslice",
        )
    assert stats.cycles == 10
    assert "synthetic lowering failure" in stats.fallback_reason
    assert len(record) == 1
    assert record[0].filename == __file__


def test_sharded_estimate_reports_engine_fallback(broken_bitslice):
    """A degraded batch engine shows in the interval, not only as a warning."""
    with pytest.warns(RuntimeWarning, match="falling back"):
        interval = estimate_power_ci(
            design1(), 16, RunConfig(cycles=50, engine="bitslice")
        )
    assert interval.shards == 2
    assert "synthetic lowering failure" in interval.fallback_reason
    assert interval.to_dict()["fallback_reason"] == interval.fallback_reason
