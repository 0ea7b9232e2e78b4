"""The two-phase cycle-based simulation engine.

Each call to :meth:`Simulator.step` simulates one clock cycle:

1. **drive** — primary-input nets take the stimulus values; register
   outputs hold their committed state; constants hold their value;
2. **settle** — combinational cells (including transparent latches and
   latch banks, which read their held state) evaluate in topological
   order;
3. **observe** — monitors see the settled net values;
4. **commit** — registers and latches capture their next state.

Values are plain unsigned integers clipped to net widths. The simulator
is glitch-free by construction (one evaluation per cell per cycle), which
matches the zero-delay RT-level power estimation the paper relies on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro import obs
from repro.errors import CompilationError, SimulationError
from repro.netlist.cells import Cell
from repro.netlist.design import Design
from repro.netlist.nets import Net
from repro.netlist.ports import Constant, PrimaryInput
from repro.netlist.seq import Register
from repro.netlist.traversal import combinational_order
from repro.sim.monitor import Monitor
from repro.sim.stimulus import Stimulus


@dataclass
class SimulationResult:
    """What a finished simulation run returns."""

    cycles: int
    monitors: List[Monitor] = field(default_factory=list)

    def monitor(self, cls: type) -> Monitor:
        """First attached monitor of the given class."""
        for mon in self.monitors:
            if isinstance(mon, cls):
                return mon
        raise SimulationError(f"no monitor of type {cls.__name__} attached")


class Simulator:
    """Simulates one :class:`Design`; reusable across runs via :meth:`reset`."""

    #: Set by :func:`make_simulator` when this instance stands in for a
    #: requested backend that could not be built (graceful degradation).
    fallback_reason: Optional[str] = None

    def __init__(self, design: Design) -> None:
        self.design = design
        self._order: List[Cell] = combinational_order(design)
        self._pi_cells: List[PrimaryInput] = design.primary_inputs
        self._registers: List[Register] = design.registers
        self._stateful_comb: List[Cell] = [
            c for c in self._order if getattr(c, "has_state", False)
        ]
        self.values: Dict[Net, int] = {}
        self.state: Dict[Cell, int] = {}
        self.cycle = 0
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to the power-on state (registers/latches at reset values)."""
        self.cycle = 0
        self.values = {net: 0 for net in self.design.nets}
        self.state = {}
        for reg in self._registers:
            self.state[reg] = reg.net("Q").clip(reg.reset_value)
            self.values[reg.net("Q")] = self.state[reg]
        for cell in self._stateful_comb:
            out_port = cell.output_ports[0]
            self.state[cell] = cell.net(out_port).clip(
                getattr(cell, "reset_value", 0)
            )
        for const in self.design.constants:
            net = const.net("Y")
            self.values[net] = net.clip(const.value)

    # ------------------------------------------------------------------
    def step(self, pi_values: Mapping[str, int]) -> Dict[Net, int]:
        """Simulate one clock cycle; returns the settled net values."""
        # Phase 1: drive boundary values.
        for pi in self._pi_cells:
            net = pi.net("Y")
            try:
                self.values[net] = net.clip(pi_values[pi.name])
            except KeyError:
                raise SimulationError(
                    f"stimulus provides no value for primary input {pi.name!r} "
                    f"at cycle {self.cycle}"
                ) from None
        # Phase 2: settle combinational logic.
        for cell in self._order:
            inputs = {port: self.values[net] for port, net in cell.connections()
                      if cell.port_spec(port).direction.value == "in"}
            if getattr(cell, "has_state", False):
                out_port = cell.output_ports[0]
                self.values[cell.net(out_port)] = cell.output_value(
                    self.state[cell], inputs
                )
            else:
                for port, value in cell.evaluate(inputs).items():
                    self.values[cell.net(port)] = value
        # The commit phase is separate (see :meth:`commit`) so callers and
        # monitors can observe the settled values first.
        return self.values

    def commit(self) -> None:
        """Clock edge: registers and latches capture their next state."""
        next_states: Dict[Cell, int] = {}
        for reg in self._registers:
            inputs = {
                port: self.values[net]
                for port, net in reg.connections()
                if port != "Q"
            }
            next_states[reg] = reg.next_state(self.state[reg], inputs)
        for cell in self._stateful_comb:
            inputs = {
                port: self.values[net]
                for port, net in cell.connections()
                if cell.port_spec(port).direction.value == "in"
            }
            next_states[cell] = cell.next_state(self.state[cell], inputs)
        self.state.update(next_states)
        for reg in self._registers:
            self.values[reg.net("Q")] = self.state[reg]
        self.cycle += 1

    # ------------------------------------------------------------------
    def run(
        self,
        stimulus: Stimulus,
        cycles: int,
        monitors: Optional[Sequence[Monitor]] = None,
        warmup: int = 0,
    ) -> SimulationResult:
        """Run ``cycles`` cycles, feeding ``stimulus`` and updating monitors.

        ``warmup`` cycles are simulated first without monitor observation
        (useful to flush reset transients out of the statistics).
        """
        with obs.span(
            "sim.run",
            "sim",
            engine="python",
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
            for mon in monitors:
                mon.finish()
            return SimulationResult(cycles=cycles, monitors=monitors)

    # ------------------------------------------------------------------
    def state_items(self) -> List[tuple]:
        """(cell name, state value) pairs for cross-engine comparison."""
        return [(cell.name, value) for cell, value in self.state.items()]

    def state_value(self, name: str) -> int:
        """Committed state of the named register/latch."""
        return self.state[self.design.cell(name)]


def _degraded(design: Design, engine: str, exc: CompilationError) -> Simulator:
    """Reference simulator standing in for an unbuildable backend."""
    warnings.warn(
        f"engine {engine!r} unavailable for design {design.name!r} "
        f"({exc}); falling back to the python reference engine",
        RuntimeWarning,
        stacklevel=3,
    )
    simulator = Simulator(design)
    simulator.fallback_reason = str(exc)
    return simulator


def make_simulator(design: Design, engine: str = "python"):
    """Build a simulator for ``design`` using the requested backend.

    ``engine="python"`` returns the reference :class:`Simulator`;
    ``engine="compiled"`` returns a bit-exact
    :class:`~repro.sim.compile.CompiledSimulator` (programs come from
    the global program cache, so repeated construction is cheap);
    ``engine="bitslice"`` returns the compiled simulator too — the
    bit-sliced kernel is a batch engine
    (:class:`~repro.sim.batch.BatchSimulator`), and on one stream the
    compiled kernel gives bit-identical results faster;
    ``engine="checked"`` returns a
    :class:`~repro.sim.checked.CheckedSimulator` running the compiled
    engine and the reference in lockstep with periodic
    cross-comparison.

    Graceful degradation: when lowering to the compiled backend fails
    with a :class:`~repro.errors.CompilationError`, ``"compiled"``,
    ``"bitslice"`` and ``"checked"`` fall back to the reference engine
    — a ``RuntimeWarning`` is emitted and the returned simulator carries
    ``fallback_reason`` so callers (e.g. :func:`repro.opt.optimize`)
    can record the degradation in their stage timings. Design-level
    errors (validation failures and other typed
    :class:`~repro.errors.ReproError`\\ s) propagate unchanged: they
    would fail on any backend.
    """
    if engine == "python":
        return Simulator(design)
    if engine in ("compiled", "bitslice"):
        # Imported lazily: repro.sim.compile imports this module.
        from repro.sim.compile import CompiledSimulator

        try:
            return CompiledSimulator(design)
        except CompilationError as exc:
            return _degraded(design, "compiled", exc)
    if engine == "checked":
        from repro.sim.checked import CheckedSimulator

        try:
            return CheckedSimulator(design)
        except CompilationError as exc:
            return _degraded(design, engine, exc)
    from repro.runconfig import ENGINES

    raise SimulationError(f"unknown engine {engine!r}; choose one of {ENGINES}")


def simulate(
    design: Design,
    stimulus: Stimulus,
    cycles: int,
    monitors: Optional[Sequence[Monitor]] = None,
    warmup: int = 0,
    engine: str = "python",
) -> SimulationResult:
    """Convenience: build a fresh simulator and run it."""
    return make_simulator(design, engine).run(
        stimulus, cycles, monitors=monitors, warmup=warmup
    )
