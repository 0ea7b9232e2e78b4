"""Result tables in the format of the paper's Tables 1 and 2.

:func:`compare_styles` runs the full Algorithm-1 flow once per isolation
style on the same design/stimulus and collects a
:class:`StyleComparison`: power, area and worst slack for the
non-isolated design and each isolated variant, with the percentage
deltas the paper reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.algorithm import (
    IsolationConfig,
    IsolationResult,
    StimulusSource,
    _stimulus_of,
    isolate_design,
)
from repro.netlist.design import Design
from repro.power.library import TechnologyLibrary, default_library
from repro.runconfig import RunConfig, resolve_run_config

#: Row order of the paper's tables.
STYLE_ROWS = ("non-isolated", "AND-isolated", "OR-isolated", "LAT-isolated")
_STYLE_OF_ROW = {"AND-isolated": "and", "OR-isolated": "or", "LAT-isolated": "latch"}


@dataclass
class StyleRow:
    """One row: absolute metrics plus deltas vs the non-isolated design.

    ``pass_savings`` (pass name -> estimated net mW) is populated only
    by multi-pass comparisons (``compare_styles(..., passes=[...])``).
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
    """A full Table-1/Table-2 style comparison."""

    design_name: str
    rows: List[StyleRow] = field(default_factory=list)
    results: Dict[str, IsolationResult] = field(default_factory=dict)
    #: Full optimizer results, keyed by style — populated only when the
    #: comparison ran with an explicit pass list.
    pass_results: Dict[str, "object"] = field(default_factory=dict)

    def row(self, label: str) -> StyleRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def compare_styles(
    design: Design,
    stimulus: StimulusSource,
    config: Optional[IsolationConfig] = None,
    library: Optional[TechnologyLibrary] = None,
    styles: Optional[List[str]] = None,
    run: Optional[RunConfig] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    engine: Optional[str] = None,
    passes: Optional[List[str]] = None,
) -> StyleComparison:
    """Run isolation once per style and tabulate paper-style rows.

    Run control (``cycles``, ``warmup``, ``engine``, ``workers``) lives
    on ``config``; ``run=RunConfig(...)`` and ``engine=`` override it,
    and bare ``cycles=``/``warmup=`` are deprecated aliases.

    With ``passes=["isolation", "clock_gating"]`` each style row runs
    the full :func:`repro.opt.optimize` pass pipeline instead of
    isolation alone; rows then carry per-pass estimated savings in
    :attr:`StyleRow.pass_savings` and the comparison keeps the full
    :class:`~repro.opt.OptimizeResult` per style in ``pass_results``.
    """
    base_config = config or IsolationConfig()
    if run is not None or engine is not None or cycles is not None or warmup is not None:
        cfg = resolve_run_config(
            run,
            defaults=base_config.run_config(),
            stacklevel=3,
            engine=engine,
            cycles=cycles,
            warmup=warmup,
        )
        base_config = base_config.with_run(cfg)
    library = library or default_library()
    styles = styles or ["and", "or", "latch"]

    # With workers > 1 the per-style Algorithm-1 runs are independent, so
    # they go to the process pool (repro.parallel.isolate_styles); each
    # pooled run scores serially to avoid nested pools. Results are
    # bit-exact with the serial loop for deterministic stimulus sources.
    from repro.parallel.pool import WorkerPool
    from repro.parallel.scoring import isolate_styles

    style_configs = [
        dataclasses.replace(base_config, style=style) for style in styles
    ]
    optimize_results = None
    if passes is not None:
        # Multi-pass comparison: the per-candidate scoring inside each
        # optimize run is what the pool accelerates; styles run serially.
        from repro.opt import optimize

        optimize_results = [
            optimize(
                design,
                lambda: _stimulus_of(stimulus),
                passes=passes,
                config=style_config,
                library=library,
            )
            for style_config in style_configs
        ]
        results = [opt.to_isolation_result() for opt in optimize_results]
    else:
        with WorkerPool(base_config.workers) as pool:
            results = isolate_styles(
                design, lambda: _stimulus_of(stimulus), style_configs, library, pool=pool
            )

    comparison = StyleComparison(design_name=design.name)
    baseline_row: Optional[StyleRow] = None
    for index, (style, result) in enumerate(zip(styles, results)):
        comparison.results[style] = result
        if optimize_results is not None:
            comparison.pass_results[style] = optimize_results[index]
        if baseline_row is None:
            baseline_row = StyleRow(
                label="non-isolated",
                power_mw=result.baseline.power_mw,
                area=result.baseline.area,
                slack=result.baseline.worst_slack,
            )
            comparison.rows.append(baseline_row)
        label = {
            "and": "AND-isolated",
            "or": "OR-isolated",
            "latch": "LAT-isolated",
        }[style]
        comparison.rows.append(
            StyleRow(
                label=label,
                power_mw=result.final.power_mw,
                area=result.final.area,
                slack=result.final.worst_slack,
                power_reduction=result.power_reduction,
                area_increase=result.area_increase,
                slack_reduction=result.slack_reduction,
                pass_savings=(
                    optimize_results[index].per_pass_net_mw()
                    if optimize_results is not None
                    else None
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
    return "\n".join(lines)
