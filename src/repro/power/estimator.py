"""Simulation-driven power estimation (the DesignPower analogue).

:func:`estimate_power` simulates a design under a stimulus, measures
per-net toggle rates and converts them into per-cell power using the
technology library:

``E_cell = Σ_inputs e_in(cell, pin)·Tr(pin) + e_out(cell)·Tr(out) + e_static``

all in pJ/cycle, reported in mW at the library clock. The breakdown
distinguishes the cells added by operand isolation (banks and activation
logic, tagged by the transform) so the overhead term ``P_i(c)`` of the
paper's cost function can be read off directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import obs
from repro.netlist.cells import Cell, PortDir
from repro.netlist.design import Design
from repro.power.library import TechnologyLibrary, default_library
from repro.runconfig import RunConfig
from repro.sim.engine import Simulator, make_simulator
from repro.sim.monitor import ToggleMonitor
from repro.sim.stimulus import Stimulus


@dataclass
class PowerBreakdown:
    """Per-cell and aggregate power of one estimation run."""

    library: TechnologyLibrary
    energy_per_cell: Dict[Cell, float] = field(default_factory=dict)
    cycles: int = 0

    # ------------------------------------------------------------------
    @property
    def total_energy(self) -> float:
        """Total pJ per cycle."""
        return sum(self.energy_per_cell.values())

    @property
    def total_power_mw(self) -> float:
        """Total power in mW at the library clock frequency."""
        return self.library.power_mw(self.total_energy)

    def cell_power_mw(self, cell: Cell) -> float:
        return self.library.power_mw(self.energy_per_cell.get(cell, 0.0))

    def group_power_mw(self, role: str) -> float:
        """Power of cells tagged with a given ``isolation_role``.

        Roles used by the isolation transform: ``"bank"`` for isolation
        banks, ``"activation"`` for activation logic. Untagged cells have
        role ``"design"``.
        """
        energy = sum(
            e
            for cell, e in self.energy_per_cell.items()
            if getattr(cell, "isolation_role", "design") == role
        )
        return self.library.power_mw(energy)

    @property
    def overhead_power_mw(self) -> float:
        """Power of all isolation circuitry (banks + activation logic)."""
        return self.group_power_mw("bank") + self.group_power_mw("activation")

    def module_power_mw(self) -> Dict[str, float]:
        """Power per datapath module, keyed by cell name."""
        return {
            cell.name: self.library.power_mw(energy)
            for cell, energy in self.energy_per_cell.items()
            if cell.is_datapath_module
        }


class PowerEstimator:
    """Converts measured toggle rates into a :class:`PowerBreakdown`.

    ``glitch_model`` optionally compensates for the zero-delay cycle
    simulation's blindness to glitches: the dynamic energy of each
    combinational cell is scaled by ``1 + glitch_alpha · (depth - 1)``,
    with depth its topological logic level. Deeper logic sees more
    spurious transitions in a real circuit; the ablation benchmark
    checks the paper's conclusions are insensitive to this choice.
    """

    def __init__(
        self,
        library: Optional[TechnologyLibrary] = None,
        glitch_model: bool = False,
        glitch_alpha: float = 0.2,
    ) -> None:
        self.library = library or default_library()
        self.glitch_model = glitch_model
        self.glitch_alpha = glitch_alpha

    def cell_energy(
        self, cell: Cell, monitor: ToggleMonitor, depth: int = 1
    ) -> float:
        """pJ/cycle of one cell given measured activity."""
        library = self.library
        static = library.static_energy(cell)
        data_energy = library.input_toggle_energy(cell)
        control_energy = library.control_toggle_energy(cell)
        dynamic = 0.0
        for pin in cell.input_pins:
            rate = monitor.toggle_rate(pin.net)
            per_bit = control_energy if pin.is_control else data_energy
            dynamic += per_bit * rate
        for pin in cell.output_pins:
            dynamic += library.output_toggle_energy(cell, pin.net) * monitor.toggle_rate(
                pin.net
            )
        if self.glitch_model and not cell.is_sequential:
            dynamic *= 1.0 + self.glitch_alpha * max(0, depth - 1)
        if getattr(cell, "clock_gated", False) and cell.is_connected("EN"):
            # Clock gating: standing clock energy only in enabled cycles,
            # plus the integrated clock gate's own standing/switching cost.
            en_net = cell.net("EN")
            static *= monitor.one_probability(en_net)
            icg = self.library.params_by_kind("icg")
            static += icg.energy_static
            dynamic += icg.energy_in * monitor.toggle_rate(en_net)
        return static + dynamic

    def batch_total_energy(self, design: Design, batch_monitor) -> "object":
        """Per-replication total energy (pJ/cycle) from a batch run.

        ``batch_monitor`` is a :class:`repro.sim.batch.BatchToggleMonitor`;
        the return value is a numpy array with one entry per replication,
        from which honest cross-replication confidence intervals of the
        design's power follow. The glitch and clock-gating refinements
        are intentionally not applied here (use the scalar path for
        those studies).
        """
        import numpy as np

        library = self.library
        total = np.zeros(batch_monitor.batch_size)
        for cell in design.cells:
            static = library.static_energy(cell)
            total += static
            data_energy = library.input_toggle_energy(cell)
            control_energy = library.control_toggle_energy(cell)
            for pin in cell.input_pins:
                per_bit = control_energy if pin.is_control else data_energy
                total += per_bit * batch_monitor.per_lane_rates(pin.net)
            for pin in cell.output_pins:
                total += library.output_toggle_energy(
                    cell, pin.net
                ) * batch_monitor.per_lane_rates(pin.net)
        return total

    def breakdown(self, design: Design, monitor: ToggleMonitor) -> PowerBreakdown:
        """Per-cell power of the whole design from one measured run."""
        depths = {}
        if self.glitch_model:
            from repro.netlist.traversal import logic_depths

            depths = logic_depths(design)
        result = PowerBreakdown(library=self.library, cycles=monitor.cycles)
        for cell in design.cells:
            result.energy_per_cell[cell] = self.cell_energy(
                cell, monitor, depth=depths.get(cell, 1)
            )
        if obs.enabled():
            for cell in design.datapath_modules:
                for pin in cell.output_pins:
                    obs.gauge(
                        "module.toggle_rate", module=cell.name, net=pin.net.name
                    ).set(monitor.toggle_rate(pin.net))
                obs.gauge("module.power_mw", module=cell.name).set(
                    result.cell_power_mw(cell)
                )
        return result


def estimate_power(
    design: Design,
    stimulus: Stimulus,
    *,
    library: Optional[TechnologyLibrary] = None,
    extra_monitors: Optional[list] = None,
    run: Optional[RunConfig] = None,
) -> PowerBreakdown:
    """Simulate ``design`` and return its power breakdown.

    Run control (cycles, warmup, engine) comes from
    ``run=RunConfig(...)``, else the :class:`RunConfig` defaults.
    ``extra_monitors`` ride along on the same simulation run (probes for
    the savings model, traces for verification...), avoiding a second
    pass over the stimulus.
    """
    cfg = run or RunConfig()
    with obs.span(
        "power.estimate",
        "sim",
        design=design.name,
        engine=cfg.engine,
        cycles=cfg.cycles,
    ) as span:
        monitor = ToggleMonitor()
        monitors = [monitor] + list(extra_monitors or [])
        make_simulator(design, cfg.engine).run(
            stimulus, cfg.cycles, monitors=monitors, warmup=cfg.warmup
        )
        breakdown = PowerEstimator(library).breakdown(design, monitor)
        span.set(power_mw=breakdown.total_power_mw)
    return breakdown


@dataclass
class PowerInterval:
    """Cross-replication power estimate with a 95% confidence interval.

    ``half_width_mw`` is ``inf`` for a single replication — an honest
    "no interval available", never a fake zero width (see
    :func:`repro.sim.batch.cross_lane_ci`).
    """

    mean_mw: float
    half_width_mw: float
    per_lane_mw: "object"  # numpy array, one entry per replication
    batch_size: int
    cycles: int
    workers: int
    shards: int
    fallback_reason: Optional[str] = None

    def to_dict(self) -> dict:
        payload = {
            "mean_mw": self.mean_mw,
            "half_width_mw": self.half_width_mw,
            "batch_size": self.batch_size,
            "cycles": self.cycles,
            "workers": self.workers,
            "shards": self.shards,
        }
        if self.fallback_reason is not None:
            payload["fallback_reason"] = self.fallback_reason
        return payload


def estimate_power_ci(
    design: Design,
    batch_size: int = 32,
    run: Optional[RunConfig] = None,
    library: Optional[TechnologyLibrary] = None,
    stimulus_kwargs: Optional[dict] = None,
    n_shards: Optional[int] = None,
) -> PowerInterval:
    """Monte-Carlo power estimate with an honest cross-replication CI.

    Runs ``batch_size`` independent replications through the sharded
    batch engine (:func:`repro.parallel.run_batch_sharded`, parallel
    when ``run.workers > 1``, bit-exact regardless) and converts the
    per-replication energies into a mean power and 95% half-width.
    ``run.engine="bitslice"`` routes every shard through the lane-packed
    kernel (replications map onto bit lanes; see ``docs/bitslice.md``)
    and is the fastest way to compute this interval.
    """
    from repro.parallel.shard import run_batch_sharded
    from repro.sim.batch import cross_lane_ci

    cfg = run or RunConfig()
    library = library or default_library()
    sharded = run_batch_sharded(
        design,
        batch_size,
        cfg.cycles,
        warmup=cfg.warmup,
        seed=cfg.seed,
        workers=cfg.workers,
        n_shards=n_shards,
        engine=cfg.engine,
        stimulus_kwargs=stimulus_kwargs,
    )
    energy = PowerEstimator(library).batch_total_energy(design, sharded.stats)
    lane_power = energy * library.clock_ghz
    mean, half = cross_lane_ci(lane_power)
    return PowerInterval(
        mean_mw=float(mean),
        half_width_mw=float(half),
        per_lane_mw=lane_power,
        batch_size=batch_size,
        cycles=cfg.cycles,
        workers=sharded.report.workers,
        shards=len(sharded.plan),
        fallback_reason=sharded.fallback_reason,
    )
