"""Headline rewriting experiment: rewrite→isolate vs isolate alone.

The rewriting pass restructures arithmetic (strength reduction,
toggle-aware reassociation, mux hoisting) before operand isolation
selects its banks, so the composed flow should reach strictly lower
final power wherever rewrite targets exist — and must never end up
worse, because unprofitable rewrites are filtered by the same cost
model isolation uses. This benchmark runs both flows over every shipped
design and records the paper-style table EXPERIMENTS.md quotes.
"""

import pytest

import repro.designs as designs
from repro.opt import IsolationConfig
from repro.opt import optimize
from repro.sim import random_stimulus

CYCLES = 400

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

#: Designs whose constant-coefficient multipliers make rewriting fire.
EXPECT_WINS = ("fir_datapath", "soc_datapath")


def run_sweep():
    rows = []
    for maker in MAKERS:
        design = getattr(designs, maker)()
        config = IsolationConfig(cycles=CYCLES, engine="compiled")

        def stimulus(design=design):
            return random_stimulus(design, seed=1)

        iso = optimize(design, stimulus, passes=("isolation",), config=config)
        both = optimize(
            design, stimulus, passes=("rewrite", "isolation"), config=config
        )
        rows.append(
            (
                maker,
                iso.baseline.power_mw,
                iso.final.power_mw,
                both.final.power_mw,
                len(both.targets_of("rewrite")),
                len(both.isolated_names),
            )
        )
    return rows


@pytest.mark.benchmark(group="optimize")
def test_rewrite_then_isolate_vs_isolate_alone(benchmark, record):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    lines = ["rewrite→isolate vs isolate alone (final estimated mW)"]
    lines.append(
        f"{'design':<22} {'base mW':>9} {'iso mW':>9} {'rw+iso mW':>10} "
        f"{'Δ mW':>8} {'rewrites':>8} {'isolated':>8}"
    )
    final = {}
    for maker, base, iso_mw, both_mw, n_rw, n_iso in rows:
        final[maker] = (iso_mw, both_mw, n_rw)
        lines.append(
            f"{maker:<22} {base:>9.4f} {iso_mw:>9.4f} {both_mw:>10.4f} "
            f"{iso_mw - both_mw:>8.4f} {n_rw:>8} {n_iso:>8}"
        )
    wins = [m for m, (iso_mw, both_mw, _) in final.items() if both_mw < iso_mw]
    lines.append(
        f"strict wins: {len(wins)}/{len(MAKERS)} ({', '.join(wins)})"
    )
    record("perf_rewrite", "\n".join(lines))

    # The composed flow never loses: rejected rewrites cost nothing.
    for maker, (iso_mw, both_mw, _) in final.items():
        assert both_mw <= iso_mw + 1e-9, maker
    # ...and strictly wins where constant multipliers exist.
    assert len(wins) >= 2
    for maker in EXPECT_WINS:
        iso_mw, both_mw, n_rw = final[maker]
        assert n_rw > 0, maker
        assert both_mw < iso_mw, maker
