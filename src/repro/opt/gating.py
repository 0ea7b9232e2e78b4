"""RT-level register clock gating as a :class:`TransformPass`.

The gating condition of a load-enabled register is derived with the
same activation machinery isolation uses
(:func:`repro.core.activation.enable_condition`), measured with an
expression probe riding on the shared estimation run, and scored with
the estimator's own clock-gating model: gating a register saves its
standing clock energy in disabled cycles but pays the integrated clock
gate's standing energy, its switching energy per enable toggle, and its
area. The score is the same ``h(c) = ω_p·rP − ω_a·rA`` merit every
other pass uses, so gating and isolation candidates compete under one
``h_min`` budget.

Free-running registers (no enable) have no gating condition at RT level
and are reported as rejected once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro import obs
from repro.baselines.clock_gating import clock_gate_registers
from repro.core.activation import enable_condition
from repro.opt.framework import (
    AppliedTransform,
    OptIteration,
    PassContext,
    TransformPass,
    register_pass,
)
from repro.sim.probes import ProbeSet


@dataclass
class GatingScore:
    """Scored clock-gating opportunity for one load-enabled register."""

    register: object
    width: int
    condition: str
    enable_probability: float
    saved_mw: float
    overhead_mw: float
    net_mw: float
    area: float
    relative_power: float
    relative_area: float
    h: float

    @property
    def idle_probability(self) -> float:
        """Fraction of cycles the register's clock would be stopped."""
        return 1.0 - self.enable_probability


class ClockGatingPass(TransformPass):
    """Stop the clock of load-enabled registers in their idle cycles."""

    name = "clock_gating"

    def begin(self, ctx: PassContext) -> None:
        super().begin(ctx)
        self._reported_free_running = False

    def enumerate(self, record: OptIteration) -> int:
        working = self.ctx.working
        self._candidates = []
        self._probes = ProbeSet()
        free_running: List[str] = []
        for register in sorted(working.registers, key=lambda r: r.name):
            if getattr(register, "clock_gated", False):
                continue
            if not register.has_enable:
                free_running.append(register.name)
                continue
            condition = enable_condition(register, "EN")
            self._probes.add(f"cg:{register.name}", condition)
            self._candidates.append((register, condition))
        if free_running and not self._reported_free_running:
            # Structural, not score-dependent: report once per run.
            self._reported_free_running = True
            record.rejected.setdefault(self.name, []).extend(free_running)
            for _ in free_running:
                obs.counter("registers.rejected", reason="free_running").inc()
        return len(self._candidates)

    def monitors(self) -> list:
        if not self._candidates:
            return []
        return [self._probes]

    def score(self, total_power_mw: float, monitor) -> List[List[GatingScore]]:
        ctx = self.ctx
        library = ctx.library
        icg = library.params_by_kind("icg")
        total_area = library.total_area(ctx.working)

        # Each register is its own selection group: unlike isolation banks
        # inside one combinational block, gated registers are independent,
        # so every one clearing h_min is applied in the same iteration.
        groups: List[List[GatingScore]] = []
        for register, condition in self._candidates:
            en_net = register.net("EN")
            pr_en = self._probes.probability(f"cg:{register.name}")
            toggle = monitor.toggle_rate(en_net)
            # Mirror of the estimator's clock-gated branch: standing
            # clock energy is charged only in enabled cycles, the ICG
            # costs standing energy plus switching per enable toggle.
            saved_pj = library.static_energy(register) * (1.0 - pr_en)
            overhead_pj = icg.energy_static + icg.energy_in * toggle
            saved_mw = library.power_mw(saved_pj)
            overhead_mw = library.power_mw(overhead_pj)
            net_mw = saved_mw - overhead_mw
            area = icg.area_per_bit
            relative_power = net_mw / total_power_mw if total_power_mw else 0.0
            relative_area = area / total_area if total_area else 0.0
            h = (
                ctx.config.weights.omega_p * relative_power
                - ctx.config.weights.omega_a * relative_area
            )
            groups.append(
                [
                    GatingScore(
                        register=register,
                        width=register.net("Q").width,
                        condition=str(condition),
                        enable_probability=pr_en,
                        saved_mw=saved_mw,
                        overhead_mw=overhead_mw,
                        net_mw=net_mw,
                        area=area,
                        relative_power=relative_power,
                        relative_area=relative_area,
                        h=h,
                    )
                ]
            )
        return groups

    def apply(self, best: GatingScore) -> AppliedTransform:
        # clock_gate_registers emits the "clock.gate" span and the
        # registers.gated counter itself (it is a traced transform now).
        name = best.register.name
        clock_gate_registers(self.ctx.working, registers=[name], in_place=True)
        return AppliedTransform(
            pass_name=self.name,
            target=name,
            detail={
                "condition": best.condition,
                "idle_probability": best.idle_probability,
            },
            estimated_net_mw=best.net_mw,
        )

    def below_threshold(self, best: GatingScore) -> None:
        obs.counter("registers.rejected", reason="below_h_min").inc()

    def serialize_score(self, score: GatingScore) -> dict:
        return {
            "register": score.register.name,
            "condition": score.condition,
            "h": score.h,
            "net_mw": score.net_mw,
            "idle_probability": score.idle_probability,
        }


register_pass(ClockGatingPass.name, ClockGatingPass)
