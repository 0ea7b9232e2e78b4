"""Unit tests for Verilog export."""

from repro.netlist.verilog import to_verilog
from repro.opt import IsolationConfig, isolate_design
from repro.sim import random_stimulus


class TestVerilogExport:
    def test_module_skeleton(self, fig1):
        text = to_verilog(fig1)
        assert text.startswith("module paper_fig1 (")
        assert text.rstrip().endswith("endmodule")
        assert "input clk;" in text

    def test_ports_declared(self, fig1):
        text = to_verilog(fig1)
        assert "input [7:0] A;" in text
        assert "output [7:0] OUT0;" in text
        assert "input S0;" in text

    def test_arith_and_mux_assigns(self, fig1):
        text = to_verilog(fig1)
        assert "assign a0 = A + m1;" in text
        assert "? " in text  # mux ternary chains

    def test_register_always_blocks(self, fig1):
        text = to_verilog(fig1)
        assert "always @(posedge clk)" in text
        assert "if (G0)" in text
        assert "r0 <= a0;" in text

    def test_every_net_declared(self, d2):
        text = to_verilog(d2)
        for net in d2.nets:
            assert net.name in text

    def test_isolated_design_exports(self, d1):
        result = isolate_design(
            d1,
            lambda: random_stimulus(d1, seed=1, control_probability=0.2),
            IsolationConfig(cycles=300),
        )
        text = to_verilog(result.design)
        # Banks appear as masked assigns with replication.
        assert "{12{" in text or "& " in text
        assert "endmodule" in text

    def test_latch_style_exports_always_blocks(self, d1):
        result = isolate_design(
            d1,
            lambda: random_stimulus(d1, seed=1, control_probability=0.2),
            IsolationConfig(style="latch", cycles=300),
        )
        text = to_verilog(result.design)
        assert "always @*" in text
