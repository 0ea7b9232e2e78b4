"""Tests for the multi-output divider and its pipeline integration."""

import pytest

from repro.boolean.bdd import BddManager
from repro.boolean.expr import and_, not_, or_, var
from repro.core import derive_activation_functions
from repro.core.candidates import find_candidates
from repro.netlist.arith import Divider
from repro.netlist.builder import DesignBuilder
from repro.netlist import textio
from repro.netlist.design import Design
from repro.netlist.verilog import to_verilog
from repro.opt import IsolationConfig, isolate_design
from repro.sim import ControlStream, random_stimulus
from repro.sim.engine import Simulator
from repro.verify import check_observable_equivalence


def divider_design(width=8):
    """Quotient and remainder consumed under different conditions."""
    b = DesignBuilder("divtest")
    x = b.input("X", width)
    y = b.input("Y", width)
    gq = b.input("GQ", 1)
    gr = b.input("GR", 1)
    quotient, remainder = b.divmod_(x, y, name="div0")
    b.output(b.register(quotient, enable=gq, name="r_q"), "Q")
    b.output(b.register(remainder, enable=gr, name="r_r"), "R")
    return b.build()


class TestDividerCell:
    def wired(self, width=8):
        d = Design("t")
        cell = d.add_cell(Divider("div"))
        for port in ("A", "B"):
            d.connect(cell, port, d.add_net(port.lower(), width))
        for port in ("Y", "R"):
            d.connect(cell, port, d.add_net(port.lower() + "o", width))
        return cell

    def test_divmod(self):
        cell = self.wired()
        out = cell.evaluate({"A": 23, "B": 5})
        assert out == {"Y": 4, "R": 3}

    def test_division_by_zero_convention(self):
        cell = self.wired()
        out = cell.evaluate({"A": 23, "B": 0})
        assert out["Y"] == 0xFF
        assert out["R"] == 23

    def test_two_outputs_declared(self):
        cell = Divider("d")
        assert cell.output_ports == ["Y", "R"]
        assert cell.is_datapath_module


class TestMultiOutputActivation:
    def test_activation_is_or_of_output_conditions(self):
        design = divider_design()
        analysis = derive_activation_functions(design)
        f = analysis.of_module(design.cell("div0"))
        assert BddManager().equivalent(f, or_(var("GQ"), var("GR")))

    def test_fanout_links_carry_source_net(self):
        b = DesignBuilder("chain")
        x = b.input("X", 8)
        y = b.input("Y", 8)
        g = b.input("G", 1)
        quotient, remainder = b.divmod_(x, y, name="div0")
        total = b.add(quotient, remainder, name="a0")
        b.output(b.register(total, enable=g, name="r0"), "OUT")
        design = b.build()
        candidates = find_candidates(design)
        div0 = next(c for c in candidates if c.name == "div0")
        nets = {link.source_net.name for link in div0.fanout}
        assert nets == {"div0_q", "div0_r"}

    def test_isolation_preserves_behaviour(self):
        design = divider_design()

        def stim():
            return random_stimulus(
                design,
                seed=9,
                overrides={
                    "GQ": ControlStream(0.2, 0.1),
                    "GR": ControlStream(0.2, 0.1),
                },
            )

        result = isolate_design(design, stim, IsolationConfig(cycles=500))
        assert "div0" in result.isolated_names
        assert result.power_reduction > 0.2
        report = check_observable_equivalence(design, result.design, stim(), 1500)
        assert report.equivalent

    def test_partial_consumption_keeps_module_live(self):
        """GQ high, GR low: the quotient path alone keeps div0 active."""
        design = divider_design()
        working = design.copy()
        analysis = derive_activation_functions(working)
        from repro.core.isolate import isolate_candidate

        isolate_candidate(
            working, working.cell("div0"),
            analysis.of_module(working.cell("div0")), "and",
        )
        sim = Simulator(working)
        settled = sim.step({"X": 23, "Y": 5, "GQ": 1, "GR": 0})
        assert settled[working.net("div0_q")] == 4
        assert settled[working.net("div0_r")] == 3  # computed together


class TestSerialisation:
    def test_textio_round_trip(self):
        design = divider_design()
        assert textio.loads(textio.dumps(design)).stats() == design.stats()

    def test_verilog_emits_both_outputs(self):
        text = to_verilog(divider_design())
        assert "/" in text and "%" in text
        assert "div0_q" in text and "div0_r" in text
