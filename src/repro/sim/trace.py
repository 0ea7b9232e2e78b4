"""Value traces: per-cycle waveform capture for selected nets.

Traces are primarily a debugging and verification aid — the sequential
equivalence checker replays two designs and compares traces at
observation points. A :class:`NetTrace` can also be exported as CSV for
inspection in external tools.
"""

from __future__ import annotations

import io
from typing import Dict, Iterable, List, Mapping

from repro.netlist.design import Design
from repro.netlist.nets import Net
from repro.sim.monitor import Monitor


class NetTrace(Monitor):
    """Records the settled value of selected nets every cycle.

    A net listed more than once is recorded once, in first-seen order.
    """

    def __init__(self, nets: Iterable[Net]) -> None:
        self.nets: List[Net] = list(dict.fromkeys(nets))
        self.cycles: List[int] = []
        self.samples: Dict[Net, List[int]] = {net: [] for net in self.nets}

    def begin(self, design: Design) -> None:
        self.cycles = []
        self.samples = {net: [] for net in self.nets}

    def observe(self, cycle: int, values: Mapping[Net, int]) -> None:
        self.cycles.append(cycle)
        for net in self.nets:
            self.samples[net].append(values[net])

    # ------------------------------------------------------------------
    def values_of(self, net: Net) -> List[int]:
        return self.samples[net]

    def __len__(self) -> int:
        return len(self.cycles)

    def to_csv(self) -> str:
        """Render the trace as CSV (cycle column + one column per net)."""
        out = io.StringIO()
        header = ["cycle"] + [net.name for net in self.nets]
        out.write(",".join(header) + "\n")
        for row, cycle in enumerate(self.cycles):
            cells = [str(cycle)] + [str(self.samples[net][row]) for net in self.nets]
            out.write(",".join(cells) + "\n")
        return out.getvalue()
