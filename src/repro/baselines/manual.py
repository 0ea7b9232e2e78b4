"""Correale-style manual operand isolation (paper reference [3]).

The PowerPC 4xx methodology isolated *"modules feeding multiplexors,
where the multiplexor select signal is used as the activation signal"* —
applied by hand and with purely local scope. This baseline automates
exactly that local rule and nothing more:

* a module qualifies only if its output feeds **only multiplexor data
  inputs** (the local pattern a designer can spot);
* its activation signal is the OR of the feeding conditions of those
  muxes (select steers toward the module) — *not* the full downstream
  observability, so e.g. a mux that feeds a disabled register still
  counts as "using" the result;
* every qualifying module is isolated (no cost model).

Compared with the paper's algorithm this loses candidates whose outputs
feed registers/logic directly, and it misses the downstream-enable terms
of the activation function — both visible in the benchmark comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.boolean.expr import Expr, or_
from repro.boolean.simplify import simplify
from repro.core.activation import select_condition
from repro.core.isolate import IsolationInstance, isolate_candidate
from repro.errors import IsolationError
from repro.netlist.design import Design
from repro.netlist.logic import Mux


@dataclass
class ManualIsolation:
    """Transformed design plus the applied instances."""

    design: Design
    instances: List[IsolationInstance] = field(default_factory=list)

    @property
    def isolated_names(self) -> List[str]:
        return [inst.candidate.name for inst in self.instances]


def manual_mux_isolation(design: Design, style: str = "and") -> ManualIsolation:
    """Apply the local mux-select isolation rule to a copy of ``design``."""
    working = design.copy(f"{design.name}_manual")
    result = ManualIsolation(design=working)
    for module in sorted(working.datapath_modules, key=lambda c: c.name):
        out_net = module.net("Y")
        conditions: List[Expr] = []
        qualifies = bool(out_net.readers)
        for pin in out_net.readers:
            if isinstance(pin.cell, Mux) and pin.port.startswith("D"):
                index = int(pin.port[1:])
                conditions.append(select_condition(pin.cell, index))
            else:
                qualifies = False
                break
        if not qualifies or not conditions:
            continue
        activation = simplify(or_(*conditions))
        if activation.is_true:
            continue
        try:
            instance = isolate_candidate(working, module, activation, style=style)
        except IsolationError:
            continue
        result.instances.append(instance)
    return result
