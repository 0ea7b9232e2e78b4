"""Levelized static timing analysis.

Zero-skew single-clock model: every register launches at time 0 and
captures at ``clock_period``. Arrival times propagate forward through the
combinational cells in topological order (cell delay + fanout load
delay); required times propagate backward from register/PO sinks. Slack
of a net is ``required - arrival``; the design's worst slack is the
minimum over all nets with timing sinks.

Transparent latches are treated as combinational delay elements (their
worst case is the transparent phase), which is conservative and exactly
what we need for evaluating LAT isolation overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import TimingError
from repro.netlist.cells import Cell
from repro.netlist.design import Design
from repro.netlist.nets import Net
from repro.netlist.ports import PrimaryOutput
from repro.netlist.traversal import combinational_order
from repro.power.library import TechnologyLibrary, default_library


@dataclass
class TimingReport:
    """Result of one STA run."""

    clock_period: float
    arrival: Dict[Net, float] = field(default_factory=dict)
    required: Dict[Net, float] = field(default_factory=dict)
    worst_slack: float = math.inf
    critical_path: List[str] = field(default_factory=list)

    def slack(self, net: Net) -> float:
        """Slack of ``net`` (inf if no timing sink is reachable)."""
        return self.required.get(net, math.inf) - self.arrival.get(net, 0.0)

    @property
    def worst_arrival(self) -> float:
        return max(self.arrival.values(), default=0.0)

    @property
    def meets_timing(self) -> bool:
        return self.worst_slack >= 0.0


def analyze_timing(
    design: Design,
    library: Optional[TechnologyLibrary] = None,
    clock_period: Optional[float] = None,
) -> TimingReport:
    """Run STA over ``design``.

    With ``clock_period=None`` the period is set to the longest path
    (zero worst slack), which gives later runs of the *same* design
    family a common reference — benchmark flows analyse the original
    design first and reuse its period for the isolated variants.
    """
    with obs.span("timing.sta", "stage", design=design.name):
        return _analyze_timing(design, library or default_library(), clock_period)


def _analyze_timing(
    design: Design, library: TechnologyLibrary, clock_period: Optional[float]
) -> TimingReport:
    order = combinational_order(design)

    arrival: Dict[Net, float] = {}
    for net in design.nets:
        driver = net.driver
        if driver is None or driver.cell.is_sequential or driver.cell.kind in ("pi", "const"):
            arrival[net] = 0.0

    for cell in order:
        in_arrival = max(
            (arrival[pin.net] for pin in cell.input_pins), default=0.0
        )
        for pin in cell.output_pins:
            arrival[pin.net] = (
                in_arrival + library.delay(cell) + library.load_delay(pin.net)
            )

    # Collect sink nets (register inputs, PO nets).
    sink_nets: List[Net] = []
    for cell in design.cells:
        if cell.is_sequential:
            sink_nets.extend(pin.net for pin in cell.input_pins)
        elif isinstance(cell, PrimaryOutput):
            sink_nets.append(cell.net("A"))

    if clock_period is None:
        clock_period = max((arrival.get(net, 0.0) for net in sink_nets), default=0.0)
    if clock_period < 0:
        raise TimingError(f"clock period must be non-negative, got {clock_period}")

    required: Dict[Net, float] = {}
    for net in sink_nets:
        required[net] = min(required.get(net, math.inf), clock_period)
    for cell in reversed(order):
        out_required = min(
            (
                required.get(pin.net, math.inf) - library.load_delay(pin.net)
                for pin in cell.output_pins
            ),
            default=math.inf,
        )
        if math.isinf(out_required):
            continue
        in_required = out_required - library.delay(cell)
        for pin in cell.input_pins:
            required[pin.net] = min(required.get(pin.net, math.inf), in_required)

    report = TimingReport(
        clock_period=clock_period, arrival=arrival, required=required
    )
    worst_net: Optional[Net] = None
    worst = math.inf
    for net in required:
        slack = required[net] - arrival.get(net, 0.0)
        if slack < worst:
            worst = slack
            worst_net = net
    report.worst_slack = worst if worst_net is not None else clock_period
    if worst_net is not None:
        report.critical_path = _trace_critical_path(worst_net, arrival)
    return report


def _trace_critical_path(net: Net, arrival: Dict[Net, float]) -> List[str]:
    """Walk backward along maximal-arrival inputs from ``net``."""
    path = [net.name]
    current = net
    for _ in range(10_000):  # cycle guard; combinational logic is a DAG
        driver = current.driver
        if driver is None or driver.cell.is_sequential or driver.cell.kind in (
            "pi",
            "const",
        ):
            break
        pins = driver.cell.input_pins
        if not pins:
            break
        current = max(pins, key=lambda pin: arrival.get(pin.net, 0.0)).net
        path.append(current.name)
    path.reverse()
    return path
