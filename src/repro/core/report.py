"""Result tables in the format of the paper's Tables 1 and 2.

:func:`compare_styles` runs the optimizer (:func:`repro.opt.optimize`,
isolation alone by default) once per isolation style on the same
design/stimulus and collects a :class:`StyleComparison`: power, area and
worst slack for the non-isolated design and each isolated variant, with
the percentage deltas the paper reports. The per-style runs are
independent, so with ``workers > 1`` they run on a process pool.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.netlist.design import Design
from repro.power.library import TechnologyLibrary, default_library
from repro.runconfig import RunConfig

if TYPE_CHECKING:  # repro.opt imports repro.core: no module-level import back
    from repro.opt import IsolationConfig, OptimizeResult
    from repro.opt.framework import StimulusSource

#: Row order of the paper's tables.
STYLE_ROWS = ("non-isolated", "AND-isolated", "OR-isolated", "LAT-isolated")
_ROW_OF_STYLE = {"and": "AND-isolated", "or": "OR-isolated", "latch": "LAT-isolated"}


@dataclass
class StyleRow:
    """One row: absolute metrics plus deltas vs the non-isolated design.

    ``pass_savings`` (pass name -> estimated net mW) is populated only
    by comparisons given an explicit pass list
    (``compare_styles(..., passes=[...])``).
    """

    label: str
    power_mw: float
    area: float
    slack: float
    power_reduction: Optional[float] = None
    area_increase: Optional[float] = None
    slack_reduction: Optional[float] = None
    pass_savings: Optional[Dict[str, float]] = None


@dataclass
class StyleComparison:
    """A full Table-1/Table-2 style comparison.

    ``fallback_reason`` is set when the per-style process pool failed and
    the runs degraded to the serial loop (same rows, recorded why).
    """

    design_name: str
    rows: List[StyleRow] = field(default_factory=list)
    #: The optimizer result behind each isolated row, keyed by style.
    results: Dict[str, "OptimizeResult"] = field(default_factory=dict)
    fallback_reason: Optional[str] = None

    def row(self, label: str) -> StyleRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def _optimize_style(payload: dict) -> "OptimizeResult":
    """Pool task: one full optimizer run for one style."""
    from repro.opt import optimize

    return optimize(**payload)


def compare_styles(
    design: Design,
    stimulus: "StimulusSource",
    config: Optional["IsolationConfig"] = None,
    library: Optional[TechnologyLibrary] = None,
    styles: Optional[List[str]] = None,
    run: Optional[RunConfig] = None,
    *,
    passes: Optional[Sequence[str]] = None,
) -> StyleComparison:
    """Run the optimizer once per style and tabulate paper-style rows.

    Run control (``cycles``, ``warmup``, ``engine``, ``workers``) lives
    on ``config``; ``run=RunConfig(...)`` overrides it. Every style row
    is one :func:`repro.opt.optimize` run with ``passes`` (default
    ``["isolation"]``, the paper's Algorithm 1). Given explicitly — e.g.
    ``passes=["isolation", "clock_gating"]`` — rows also carry per-pass
    estimated savings in :attr:`StyleRow.pass_savings`. With
    ``workers > 1`` the style runs go to a process pool, one task each;
    rows are bit-exact with the serial loop for deterministic stimulus
    sources, and a failing pool degrades to that loop with
    :attr:`StyleComparison.fallback_reason` set.
    """
    from repro.opt.framework import IsolationConfig, _stimulus_of
    from repro.parallel.pool import WorkerPool

    base_config = config or IsolationConfig()
    if run is not None:
        base_config = base_config.with_run(run)
    library = library or default_library()
    styles = styles or ["and", "or", "latch"]

    # A pool task gets a materialised stimulus (a factory may not
    # pickle), which optimize deep-copies once and draws from.
    payloads = [
        {
            "design": design,
            "stimulus": _stimulus_of(stimulus),
            "passes": list(passes or ("isolation",)),
            "config": dataclasses.replace(base_config, style=style),
            "library": library,
        }
        for style in styles
    ]
    with WorkerPool(base_config.workers) as pool:
        results = pool.map(_optimize_style, payloads)
    for result in results:
        result.original = design  # re-bind identity lost in pickling

    comparison = StyleComparison(
        design_name=design.name, fallback_reason=pool.fallback_reason
    )
    for style, result in zip(styles, results):
        comparison.results[style] = result
        if not comparison.rows:
            comparison.rows.append(
                StyleRow(
                    label="non-isolated",
                    power_mw=result.baseline.power_mw,
                    area=result.baseline.area,
                    slack=result.baseline.worst_slack,
                )
            )
        comparison.rows.append(
            StyleRow(
                label=_ROW_OF_STYLE[style],
                power_mw=result.final.power_mw,
                area=result.final.area,
                slack=result.final.worst_slack,
                power_reduction=result.power_reduction,
                area_increase=result.area_increase,
                slack_reduction=result.slack_reduction,
                pass_savings=(
                    result.per_pass_net_mw() if passes is not None else None
                ),
            )
        )
    return comparison


def format_comparison_table(comparison: StyleComparison) -> str:
    """Render a :class:`StyleComparison` like the paper's tables.

    Multi-pass comparisons get one extra column per pass with the
    estimated net savings (mW) that pass contributed to the row.
    """
    pass_names: List[str] = []
    for row in comparison.rows:
        for name in row.pass_savings or {}:
            if name not in pass_names:
                pass_names.append(name)
    pass_header = "".join(f" {name + '[mW]':>16}" for name in pass_names)
    lines = [
        f"Design {comparison.design_name!r}: power / area / slack by isolation style",
        f"{'':<14} {'Power[mW]':>10} {'%red':>8} {'Area[um2]':>12} {'%inc':>8} "
        f"{'Slack[ns]':>10} {'%red':>8}" + pass_header,
    ]
    for row in comparison.rows:
        power_pct = f"{row.power_reduction:+.1%}" if row.power_reduction is not None else "n/a"
        area_pct = f"{row.area_increase:+.1%}" if row.area_increase is not None else "n/a"
        slack_pct = (
            f"{row.slack_reduction:+.1%}" if row.slack_reduction is not None else "n/a"
        )
        pass_cells = ""
        for name in pass_names:
            if row.pass_savings is None:
                pass_cells += f" {'n/a':>16}"
            else:
                pass_cells += f" {row.pass_savings.get(name, 0.0):>+16.4f}"
        lines.append(
            f"{row.label:<14} {row.power_mw:>10.4f} {power_pct:>8} "
            f"{row.area:>12.0f} {area_pct:>8} {row.slack:>10.3f} {slack_pct:>8}"
            + pass_cells
        )
    if comparison.fallback_reason:
        lines.append(
            f"note: style runs degraded to serial ({comparison.fallback_reason})"
        )
    return "\n".join(lines)
