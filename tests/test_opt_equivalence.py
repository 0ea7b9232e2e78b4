"""Algorithm 1 through ``repro.opt`` is pinned to recorded golden values.

``isolate_design`` is ``optimize(passes=["isolation"])``. The values in
``tests/data/opt_isolation_golden.json`` were recorded with the
implementation from before ``repro.core.algorithm`` was folded into
``repro.opt``, on every shipped design: 200 cycles, the compiled engine,
stimulus seed 1, serially and — for the denser designs — with a 2-worker
scoring pool. Decisions and the transformed netlist must match exactly.
Power, area, slack, ``h`` and ``net_mw`` must match to a relative 1e-9:
Python 3.12's compensated float ``sum()`` may move the last digits
relative to 3.11, so no whole-payload digest is pinned.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.designs as designs
from repro.opt import IsolationConfig, isolate_design
from repro.sim.compile import design_fingerprint
from repro.sim.stimulus import random_stimulus

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "opt_isolation_golden.json").read_text()
)

#: Every shipped design generator.
MAKERS = [
    "paper_example",
    "design1",
    "design2",
    "fir_datapath",
    "alu_control_dominated",
    "shared_bus_datapath",
    "lookahead_pipeline",
    "correlated_chain",
    "cordic_pipeline",
    "soc_datapath",
    "random_datapath",
]

#: Denser designs were also recorded under a 2-worker scoring pool, since
#: removed; at workers=2 they pin that the worker count changes nothing.
POOLED_MAKERS = ["design1", "fir_datapath", "soc_datapath"]


def close(values, expected):
    return values == pytest.approx(expected, rel=1e-9)


def check_against_golden(maker: str, workers: int) -> None:
    golden = GOLDEN[f"{maker}@{workers}"]
    design = getattr(designs, maker)()
    # The golden data was recorded with a 32-cycle warmup.
    config = IsolationConfig(
        cycles=200, warmup=32, engine="compiled", workers=workers
    )
    result = isolate_design(
        design, lambda: random_stimulus(design, seed=1), config
    )

    assert design_fingerprint(result.design) == golden["fingerprint"]
    assert [
        [t.pass_name, t.target, t.detail["style"]] for t in result.transforms
    ] == golden["applied"]
    assert close(
        [result.baseline.power_mw, result.final.power_mw], golden["power_mw"]
    )
    assert close([result.baseline.area, result.final.area], golden["area_um2"])
    assert close(
        [result.baseline.worst_slack, result.final.worst_slack],
        golden["slack_ns"],
    )

    iterations = result.to_dict()["iterations"]
    assert len(iterations) == len(golden["iterations"])
    for got, want in zip(iterations, golden["iterations"]):
        assert got["applied"] == want["applied"]
        assert got["rejected"] == want["rejected"]
        assert sorted(got["scores"]) == sorted(want["scores"])
        for name, expected in want["scores"].items():
            scores = got["scores"][name]
            assert [[s["candidate"], s["style"]] for s in scores] == [
                row[:2] for row in expected
            ]
            assert close(
                [v for s in scores for v in (s["h"], s["net_mw"])],
                [v for row in expected for v in row[2:]],
            )


@pytest.mark.parametrize("maker", MAKERS)
def test_isolation_pass_is_bit_identical(maker):
    check_against_golden(maker, workers=1)


@pytest.mark.parametrize("maker", POOLED_MAKERS)
def test_isolation_pass_is_bit_identical_pooled(maker):
    check_against_golden(maker, workers=2)
