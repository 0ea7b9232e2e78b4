"""Power-savings estimation (paper Section 4).

Given one measured simulation run of the current design (toggle rates +
expression probes), :class:`SavingsModel` predicts, per candidate:

* **primary savings** ``ΔP_p`` — power no longer burnt inside the
  candidate itself (Section 4.2). Eq. (1) is the even-distribution
  approximation ``Pr(¬f_c) · p_c(Tr)``; the refined model decomposes
  each operand's idle-cycle toggles per source using measured joint
  probabilities and the Eq. (2) scaling ``Tr' = Tr / Pr(AS)`` for
  already-isolated fanin candidates (the Eq. (3) structure, generalised
  to any number of inputs and sources);
* **secondary savings** ``ΔP_s`` — power no longer burnt in fanout
  candidates because the candidate's output goes quiescent during its
  idle cycles, Eq. (5) including the ``z_j`` already-isolated decision
  variable;
* **overhead** ``P_i`` — power of the would-be isolation banks and
  activation logic, style-dependent (latch banks carry standing clock
  power; gate banks burn a transition on every activation edge).

All probabilities of signal products are *measured* by probes — never
assumed independent (Section 4.2: "the probabilities cannot further be
simplified, since we cannot assume statistical independence").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.boolean.expr import Expr, and_, not_
from repro.core.candidates import IsolationCandidate
from repro.errors import IsolationError
from repro.netlist.cells import Cell
from repro.power.library import TechnologyLibrary
from repro.power.macromodel import MacroPowerModel
from repro.sim.monitor import ToggleMonitor
from repro.sim.probes import ProbeSet


@dataclass
class SavingsEstimate:
    """Predicted effect of isolating one candidate (all in mW)."""

    candidate: IsolationCandidate
    style: str
    primary_mw: float
    secondary_mw: float
    overhead_mw: float
    idle_probability: float

    @property
    def net_mw(self) -> float:
        """ΔP_p + ΔP_s − P_i: the numerator of the paper's rP(c)."""
        return self.primary_mw + self.secondary_mw - self.overhead_mw


class SavingsModel:
    """Savings predictor for one design + candidate set.

    Usage: construct, attach :attr:`probes` (and a full
    :class:`ToggleMonitor`) to a simulation run, call
    :meth:`calibrate`, then query :meth:`estimate` per candidate.
    """

    def __init__(
        self,
        design,
        candidates: List[IsolationCandidate],
        library: TechnologyLibrary,
    ) -> None:
        self.design = design
        self.candidates = candidates
        self.library = library
        self.probes = ProbeSet()
        self._by_cell: Dict[Cell, IsolationCandidate] = {
            c.cell: c for c in candidates
        }
        self._macro: Dict[Cell, MacroPowerModel] = {}
        self._monitor: Optional[ToggleMonitor] = None
        self._register_probes()

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------
    def _register_probes(self) -> None:
        for c in self.candidates:
            f_c = c.activation
            self._add_probe(f"act:{c.name}", f_c)
            idle = not_(f_c)
            for port, links in c.fanin.items():
                for link in links:
                    base = and_(idle, link.condition)
                    source = self._by_cell.get(link.source)
                    f_k = source.activation if source else None
                    if f_k is not None:
                        self._add_probe(
                            f"pri:{c.name}:{port}:{link.source.name}:on",
                            and_(base, f_k),
                        )
                    self._add_probe(
                        f"pri:{c.name}:{port}:{link.source.name}:any", base
                    )
                for i, env in enumerate(c.environment.get(port, [])):
                    self._add_probe(
                        f"env:{c.name}:{port}:{i}", and_(idle, env.condition)
                    )
            for link in c.fanout:
                sink = self._by_cell.get(link.sink)
                if sink is None:
                    continue
                base = and_(idle, link.condition)
                self._add_probe(
                    f"sec:{c.name}:{link.sink.name}:{link.port}:on",
                    and_(base, sink.activation),
                )
                self._add_probe(
                    f"sec:{c.name}:{link.sink.name}:{link.port}:off",
                    and_(base, not_(sink.activation)),
                )

    def _add_probe(self, name: str, expr: Expr) -> None:
        if name not in self.probes:
            self.probes.add(name, expr)

    # ------------------------------------------------------------------
    def calibrate(self, monitor: ToggleMonitor) -> None:
        """Bind measured activity; fit macro models from it."""
        self._monitor = monitor
        self._macro = {
            c.cell: MacroPowerModel.from_measurement(c.cell, self.library, monitor)
            for c in self.candidates
        }

    def _require_calibration(self) -> ToggleMonitor:
        if self._monitor is None:
            raise IsolationError(
                "SavingsModel.calibrate(monitor) must run after simulation "
                "and before estimates are queried"
            )
        return self._monitor

    def macro_model(self, cell: Cell) -> MacroPowerModel:
        return self._macro[cell]

    # ------------------------------------------------------------------
    # Measured quantities
    # ------------------------------------------------------------------
    def activation_probability(self, c: IsolationCandidate) -> float:
        """Measured Pr(f_c = 1)."""
        return self.probes.probability(f"act:{c.name}")

    def scaled_output_rate(self, c: IsolationCandidate, net=None) -> float:
        """Eq. (2): the candidate's output toggle rate during active cycles.

        ``Tr'_C = Tr_C / Pr(AS)`` — the measured average rate concentrated
        into the non-redundant cycles. ``net`` selects which output of a
        multi-output module (default: its primary output ``Y``).
        """
        monitor = self._require_calibration()
        rate = monitor.toggle_rate(net if net is not None else c.cell.net("Y"))
        pr_active = self.activation_probability(c)
        if pr_active <= 0.0:
            return 0.0
        return rate / pr_active

    # ------------------------------------------------------------------
    # Primary savings
    # ------------------------------------------------------------------
    def primary_savings_simple(self, c: IsolationCandidate) -> float:
        """Eq. (1): ``Pr(¬f_c) · p_c(measured input rates)`` in mW."""
        monitor = self._require_calibration()
        rates = {
            port: monitor.toggle_rate(c.cell.net(port))
            for port in c.cell.data_input_ports
        }
        idle = 1.0 - self.activation_probability(c)
        return idle * self._macro[c.cell].power_mw(rates)

    def _idle_port_rate(self, c: IsolationCandidate, port: str) -> float:
        """Expected toggles/cycle at ``port`` attributable to idle cycles.

        Decomposed per source with measured joint probabilities; isolated
        fanin candidates contribute their Eq. (2)-scaled rate only while
        simultaneously active (their banks block everything else).
        """
        monitor = self._require_calibration()
        total = 0.0
        for link in c.fanin.get(port, []):
            source = self._by_cell.get(link.source)
            if source is not None and source.isolated:
                pr_on = self.probes.probability(
                    f"pri:{c.name}:{port}:{link.source.name}:on"
                )
                total += pr_on * self.scaled_output_rate(source, link.net)
                # Gate-isolated sources also force a transition on entry
                # to each of their idle periods; those land in ¬f_k
                # cycles, a share of which are also ¬f_c ∧ g cycles.
                if source.isolation_style in ("and", "or"):
                    as_rate_k = self.probes[f"act:{source.name}"].toggle_rate
                    pr_k_idle = 1.0 - self.activation_probability(source)
                    if pr_k_idle > 1e-9:
                        pr_any = self.probes.probability(
                            f"pri:{c.name}:{port}:{link.source.name}:any"
                        )
                        share = max(0.0, pr_any - pr_on) / pr_k_idle
                        forced = (as_rate_k / 2.0) * link.net.width / 2.0
                        total += forced * share
            else:
                pr_any = self.probes.probability(
                    f"pri:{c.name}:{port}:{link.source.name}:any"
                )
                total += pr_any * monitor.toggle_rate(link.net)
        for i, env in enumerate(c.environment.get(port, [])):
            pr = self.probes.probability(f"env:{c.name}:{port}:{i}")
            total += pr * monitor.toggle_rate(env.net)
        return total

    def primary_savings(self, c: IsolationCandidate) -> float:
        """Refined primary savings (the Eq. (3) structure) in mW."""
        rates = {
            port: self._idle_port_rate(c, port)
            for port in c.cell.data_input_ports
        }
        # The macro model is linear in the (already probability-weighted)
        # idle-cycle rates, so no further Pr(¬f) factor is applied.
        return self._macro[c.cell].power_mw(rates)

    # ------------------------------------------------------------------
    # Secondary savings
    # ------------------------------------------------------------------
    def secondary_savings(self, c: IsolationCandidate) -> float:
        """Eq. (5) summed over all fanout links, in mW."""
        monitor = self._require_calibration()
        total = 0.0
        for link in c.fanout:
            sink = self._by_cell.get(link.sink)
            if sink is None:
                continue
            out_rate = monitor.toggle_rate(link.source_net)
            scaled_rate = self.scaled_output_rate(c, link.source_net)
            macro = self._macro[link.sink]
            other_rates = {
                port: monitor.toggle_rate(link.sink.net(port))
                for port in link.sink.data_input_ports
            }
            quiet = dict(other_rates)
            quiet[link.port] = 0.0
            pr_on = self.probes.probability(
                f"sec:{c.name}:{link.sink.name}:{link.port}:on"
            )
            pr_off = self.probes.probability(
                f"sec:{c.name}:{link.sink.name}:{link.port}:off"
            )
            loud_on = dict(other_rates)
            loud_on[link.port] = scaled_rate
            total += pr_on * (macro.power_mw(loud_on) - macro.power_mw(quiet))
            if not sink.isolated:  # the (1 - z_j) factor
                loud_off = dict(other_rates)
                loud_off[link.port] = out_rate
                total += pr_off * (macro.power_mw(loud_off) - macro.power_mw(quiet))
        return total

    # ------------------------------------------------------------------
    # Overhead
    # ------------------------------------------------------------------
    def overhead(self, c: IsolationCandidate, style: str) -> float:
        """Predicted power of banks + activation logic for ``style``, mW."""
        monitor = self._require_calibration()
        library = self.library
        as_rate = self.probes[f"act:{c.name}"].toggle_rate
        pr_active = self.activation_probability(c)

        # Activation logic: ~literal_count gates switching with their
        # support signals, driving the AS net at its measured rate.
        from repro.netlist.bitref import parse_bitref

        support_rate = 0.0
        # Sorted: support() is a frozenset, and summing in hash order
        # would make the last digit depend on PYTHONHASHSEED.
        for name in sorted(c.activation.support()):
            net, _bit = parse_bitref(self.design, name)
            support_rate += min(1.0, monitor.toggle_rate(net))
        gate_energy = library.params_by_kind("and2").energy_in
        act_energy = gate_energy * (
            c.activation.literal_count() * 0.5 * support_rate + as_rate
        )

        # Isolation banks, per gated operand port.
        bank_kind = {"and": "andbank", "or": "orbank", "latch": "latbank"}[style]
        params = library.params_by_kind(bank_kind)
        module_in_energy = library.input_toggle_energy(c.cell)
        bank_energy = 0.0
        for port in c.cell.data_input_ports:
            net = c.cell.net(port)
            in_rate = monitor.toggle_rate(net)
            bank_energy += params.energy_in * in_rate
            # The bank enable fans out to one gating element per bit.
            bank_energy += params.energy_in * net.width * as_rate
            if style == "latch":
                bank_energy += params.energy_static * net.width
                out_rate = pr_active * in_rate
            else:
                # Gate banks force a level on entry to every idle period:
                # about half the operand bits flip on that edge, and the
                # forced transition propagates INTO the module at the
                # module's own (large) per-toggle energy — the paper's
                # "extra transitions in the first cycle of inactivity".
                # (The exit edge lands on an active cycle and replaces the
                # normal operand change there, so it costs nothing extra.)
                # Idle periods per cycle = as_rate / 2.
                forced_rate = (as_rate / 2.0) * net.width / 2.0
                out_rate = pr_active * in_rate + forced_rate
                bank_energy += module_in_energy * forced_rate
            bank_energy += params.energy_out * out_rate
        return library.power_mw(act_energy + bank_energy)

    # ------------------------------------------------------------------
    def estimate(
        self, c: IsolationCandidate, style: str, refined: bool = True
    ) -> SavingsEstimate:
        """Full savings estimate for isolating ``c`` with ``style``."""
        primary = self.primary_savings(c) if refined else self.primary_savings_simple(c)
        return SavingsEstimate(
            candidate=c,
            style=style,
            primary_mw=primary,
            secondary_mw=self.secondary_savings(c),
            overhead_mw=self.overhead(c, style),
            idle_probability=1.0 - self.activation_probability(c),
        )
