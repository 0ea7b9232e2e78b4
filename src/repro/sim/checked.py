"""Differential engine cross-checking: ``engine="checked"``.

The compiled backend (:mod:`repro.sim.compile`) is ~10x faster than the
reference interpreter but is generated code — a miscompiled block would
silently corrupt toggle rates and, through them, every
activation-probability and savings number Algorithm 1 computes.
:class:`CheckedSimulator` removes that trust assumption: it runs the
compiled engine and the reference engine in lockstep on the same
stimulus and periodically compares *all* net values and register/latch
state. Any divergence raises a diagnostic-rich
:class:`~repro.errors.EquivalenceError` naming the first differing
cycle, nets and values — never a silent wrong answer. (The bit-sliced
kernel is a batch engine; it is checked against the reference through
broadcast batches, not here.)

Cost: roughly the sum of both engines (the reference engine dominates),
so ``"checked"`` is the right mode for qualification runs, CI and fault
campaigns rather than for the hot path. The comparison cadence is
``check_interval``; because registers carry state forward, a corrupted
value that matters virtually always persists into the next checkpoint.
A final comparison always runs at the end of :meth:`run`, so short runs
are fully covered too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro import obs
from repro.errors import EquivalenceError
from repro.netlist.design import Design
from repro.netlist.nets import Net
from repro.sim.compile import CompiledSimulator
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.monitor import Monitor
from repro.sim.stimulus import Stimulus

#: Default number of cycles between cross-engine state comparisons.
DEFAULT_CHECK_INTERVAL = 64


@dataclass(frozen=True)
class EngineDivergence:
    """One compiled-vs-reference disagreement found by a comparison."""

    cycle: int
    kind: str  # "net" | "state"
    name: str
    reference: int
    compiled: int

    def __str__(self) -> str:
        return (
            f"cycle {self.cycle}: {self.kind} {self.name!r} "
            f"reference={self.reference:#x} compiled={self.compiled:#x}"
        )


class CheckedSimulator:
    """Lockstep compiled+reference simulator with periodic cross-checks.

    Mirrors the :class:`~repro.sim.engine.Simulator` interface
    (``step`` / ``commit`` / ``run`` / ``reset``); monitors observe the
    compiled engine's values (the two engines are continuously proven
    equal, so either view is valid).

    Parameters
    ----------
    check_interval:
        Cycles between full state comparisons during :meth:`run`. A
        final comparison always happens after the last cycle.
    compiled / reference:
        Pre-built engines, mainly for tests that seed a deliberate
        compiled-engine bug and assert it is caught.
    """

    #: Set by make_simulator when a requested backend degraded; the
    #: checked engine itself never degrades.
    fallback_reason: Optional[str] = None

    def __init__(
        self,
        design: Design,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        compiled=None,
        reference: Optional[Simulator] = None,
    ) -> None:
        if check_interval < 1:
            raise EquivalenceError(
                f"check_interval must be >= 1, got {check_interval}"
            )
        self.design = design
        self.check_interval = check_interval
        self.compiled = (
            compiled if compiled is not None else CompiledSimulator(design)
        )
        self.reference = reference if reference is not None else Simulator(design)
        self.checks_performed = 0
        self.cycle = 0

    # ------------------------------------------------------------------
    @property
    def values(self) -> Mapping[Net, int]:
        """The compiled engine's settled net values (checked view)."""
        return self.compiled.values

    def reset(self) -> None:
        self.compiled.reset()
        self.reference.reset()
        self.checks_performed = 0
        self.cycle = 0

    def step(self, pi_values: Mapping[str, int]) -> Mapping[Net, int]:
        """Step both engines one cycle; returns the compiled values."""
        settled = self.compiled.step(pi_values)
        self.reference.step(pi_values)
        return settled

    def commit(self) -> None:
        self.compiled.commit()
        self.reference.commit()
        self.cycle = self.compiled.cycle

    def state_items(self) -> List[tuple]:
        """(cell name, state value) pairs (compiled engine's view)."""
        return self.compiled.state_items()

    def state_value(self, name: str) -> int:
        """Committed state of the named register/latch (compiled view)."""
        return self.compiled.state_value(name)

    # ------------------------------------------------------------------
    def divergences(self, limit: int = 8) -> List[EngineDivergence]:
        """Compare full net + state vectors; returns the differences."""
        found: List[EngineDivergence] = []
        compiled_values = self.compiled.values
        reference_values = self.reference.values
        for net in sorted(self.design.nets, key=lambda n: n.name):
            ref = reference_values[net]
            got = compiled_values[net]
            if ref != got:
                found.append(
                    EngineDivergence(self.cycle, "net", net.name, ref, got)
                )
                if len(found) >= limit:
                    return found
        reference_state = dict(self.reference.state_items())
        for name, got in sorted(self.compiled.state_items()):
            ref = reference_state[name]
            if ref != got:
                found.append(
                    EngineDivergence(self.cycle, "state", name, ref, got)
                )
                if len(found) >= limit:
                    break
        return found

    def check(self) -> None:
        """One full comparison; raises :class:`EquivalenceError` on any
        divergence, with the first few differing nets/cells, the cycle
        and the program identity in the message."""
        self.checks_performed += 1
        found = self.divergences()
        if not found:
            return
        listing = "\n  ".join(str(d) for d in found)
        raise EquivalenceError(
            "compiled and reference engines diverged on design "
            f"{self.design.name!r} at cycle {self.cycle} "
            f"(check #{self.checks_performed}, "
            f"program {self.compiled.program.design_hash[:12]}…):\n  {listing}\n"
            "The compiled program is untrustworthy; rerun with "
            "engine='python' and report the design."
        )

    # ------------------------------------------------------------------
    def run(
        self,
        stimulus: Stimulus,
        cycles: int,
        monitors: Optional[Sequence[Monitor]] = None,
        warmup: int = 0,
    ) -> SimulationResult:
        """Run both engines ``cycles`` cycles with periodic cross-checks.

        Monitor semantics match :meth:`Simulator.run` exactly (warmup
        cycles are stepped but unobserved); monitors see the compiled
        engine's values.
        """
        with obs.span(
            "sim.run",
            "sim",
            engine="checked",
            design=self.design.name,
            cycles=cycles,
            warmup=warmup,
        ):
            monitors = list(monitors or [])
            for mon in monitors:
                mon.begin(self.design)
            for i in range(warmup + cycles):
                settled = self.step(stimulus.values(self.cycle))
                if i >= warmup:
                    for mon in monitors:
                        mon.observe(self.cycle, settled)
                self.commit()
                if (i + 1) % self.check_interval == 0:
                    self.check()
            if (warmup + cycles) % self.check_interval != 0:
                self.check()
            for mon in monitors:
                mon.finish()
            return SimulationResult(cycles=cycles, monitors=monitors)
