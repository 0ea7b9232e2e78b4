"""RTL clock gating — the complementary technique.

Clock gating replaces a register's feedback-mux load enable with an
integrated clock gate (ICG): when the enable is low the register's clock
pin does not toggle, saving the *clock* energy of the flops. It does
**not** stop the datapath in front of the register from computing — the
redundant operation the paper targets still burns its power. Operand
isolation and clock gating therefore address disjoint components and
compose; ``repro.opt`` selects across both families jointly and the
benchmark harness quantifies each alone and together.

Model: registers already carrying an architectural enable are flagged
``clock_gated``; the power estimator then charges their standing clock
energy only in enabled cycles (using the measured enable probability)
plus a small ICG cell overhead (standing + per-enable-toggle), and the
library adds the ICG's area. Behaviour is unchanged — an enabled
register holds its value either way — so no equivalence question arises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import obs
from repro.errors import ReproError
from repro.netlist.design import Design


@dataclass
class ClockGatingResult:
    """Outcome of the clock-gating transform."""

    design: Design
    gated_registers: List[str] = field(default_factory=list)
    skipped_free_running: List[str] = field(default_factory=list)


def clock_gate_registers(
    design: Design,
    registers: Optional[Sequence[str]] = None,
    in_place: bool = False,
) -> ClockGatingResult:
    """Clock-gate load-enabled registers of ``design``.

    By default every load-enabled register of a *copy* named
    ``<design>_cg`` is gated; pass ``registers=[names]`` to gate a
    subset (asking for an unknown or free-running register raises), and
    ``in_place=True`` to transform ``design`` itself — this is how the
    ``clock_gating`` optimizer pass applies one accepted candidate at a
    time.

    Free-running registers (no enable) have no gating condition and are
    left untouched — deriving one would need the activation analysis,
    i.e. exactly the paper's machinery (see
    :class:`repro.opt.gating.ClockGatingPass`).
    """
    working = design if in_place else design.copy(f"{design.name}_cg")
    wanted = set(registers) if registers is not None else None
    result = ClockGatingResult(design=working)
    with obs.span(
        "clock.gate",
        "transform",
        design=working.name,
        requested=len(wanted) if wanted is not None else "all",
    ) as span:
        found = set()
        for register in working.registers:
            if wanted is not None and register.name not in wanted:
                continue
            found.add(register.name)
            if register.has_enable:
                register.clock_gated = True
                result.gated_registers.append(register.name)
                obs.counter("registers.gated").inc()
            elif wanted is not None:
                raise ReproError(
                    f"register {register.name!r} is free-running; "
                    "no load enable to gate"
                )
            else:
                result.skipped_free_running.append(register.name)
        if wanted is not None and found != wanted:
            missing = sorted(wanted - found)
            raise ReproError(f"no such register(s): {', '.join(missing)}")
        span.set(
            gated=len(result.gated_registers),
            skipped=len(result.skipped_free_running),
        )
    return result
