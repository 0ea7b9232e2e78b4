"""Clone-and-splice utilities for structural netlist rewriting.

The datapath rewriter (:mod:`repro.rewrite`) replaces one *cone* of
combinational logic with a functionally equivalent one. Every rewrite
follows the same three-step surgery, and the helpers here own each step:

1. **graft** — build the replacement cells inside the target design
   (:class:`GraftBuilder`, a :class:`~repro.netlist.builder.DesignBuilder`
   analogue that operates on an *existing* design with collision-free
   fresh names and records the cells it creates);
2. **splice** — re-point every reader of the old cone's output net at the
   replacement output (:func:`splice_readers`); primary outputs and
   register D pins move like any other reader pin;
3. **sweep** — the old cone is now read by nobody, so
   :meth:`Design.sweep_dangling` removes it (constants feeding only the
   removed cells go with it; shared fanin keeps its other readers).

:func:`clone_cell` round-trips a cell through the textio type token —
the same mechanism :func:`repro.netlist.compose.merge_designs` uses — so
grafts can duplicate an existing operator without knowing its subclass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import NetlistError
from repro.netlist.arith import Adder, Multiplier, Shifter, Subtractor
from repro.netlist.cells import Cell
from repro.netlist.design import Design
from repro.netlist.logic import Buffer, Mux
from repro.netlist.nets import Net
from repro.netlist.ports import Constant

#: Kind tag -> cell class for the operators grafts may instantiate.
_BINOP_CLASSES = {
    "add": Adder,
    "sub": Subtractor,
    "mul": Multiplier,
}


def splice_readers(design: Design, old_net: Net, new_net: Net) -> int:
    """Move every reader pin of ``old_net`` onto ``new_net``.

    The driver of ``old_net`` is left in place (typically to be removed
    by a following :meth:`Design.sweep_dangling`). Returns the number of
    pins moved. Widths must match: a splice replaces a value, never
    reinterprets one.
    """
    if old_net.width != new_net.width:
        raise NetlistError(
            f"cannot splice {new_net.name!r} ({new_net.width} bits) over "
            f"{old_net.name!r} ({old_net.width} bits): widths differ"
        )
    moved = 0
    for pin in list(old_net.readers):
        design.rewire_input(pin.cell, pin.port, new_net)
        moved += 1
    return moved


def clone_cell(design: Design, cell: Cell, name: Optional[str] = None) -> Cell:
    """Instantiate an unconnected copy of ``cell`` inside ``design``.

    The clone reproduces the cell's full type (including parameters like
    a comparator's op or a mux's arity) via the textio type token; the
    caller wires it up.
    """
    from repro.netlist.textio import cell_type_token, make_cell

    clone = make_cell(
        cell_type_token(cell), name or design.fresh_cell_name(cell.kind)
    )
    design.add_cell(clone)
    return clone


class GraftBuilder:
    """Builds replacement logic inside an existing design.

    Mirrors the :class:`~repro.netlist.builder.DesignBuilder` dataflow
    style (each method creates a cell, wires it, allocates its output
    net and returns that net) but targets a design that already has
    content: every cell and net name is drawn from the design's
    fresh-name counter under a common prefix, so grafts never collide.

    :attr:`cells` records every created cell in creation order, so a
    caller can price or rename exactly the cells one graft added.
    """

    def __init__(self, design: Design, prefix: str = "rw") -> None:
        self.design = design
        self.prefix = prefix
        self.cells: List[Cell] = []

    # ------------------------------------------------------------------
    def _new_cell(self, cell: Cell) -> Cell:
        self.design.add_cell(cell)
        self.cells.append(cell)
        return cell

    def _out_net(self, width: int) -> Net:
        return self.design.add_net(
            self.design.fresh_net_name(self.prefix), width
        )

    def _name(self, kind: str) -> str:
        return self.design.fresh_cell_name(f"{self.prefix}_{kind}")

    # ------------------------------------------------------------------
    def const(self, value: int, width: int) -> Net:
        cell = self._new_cell(Constant(self._name("const"), value))
        net = self._out_net(width)
        self.design.connect(cell, "Y", net)
        return net

    def buf(self, a: Net) -> Net:
        cell = self._new_cell(Buffer(self._name("buf")))
        self.design.connect(cell, "A", a)
        net = self._out_net(a.width)
        self.design.connect(cell, "Y", net)
        return net

    def binop(self, kind: str, a: Net, b: Net, width: int) -> Net:
        """Two-operand arithmetic module of ``kind`` ("add"/"sub"/"mul")."""
        try:
            cls = _BINOP_CLASSES[kind]
        except KeyError:
            raise NetlistError(f"graft has no binop for kind {kind!r}") from None
        cell = self._new_cell(cls(self._name(kind)))
        self.design.connect(cell, "A", a)
        self.design.connect(cell, "B", b)
        net = self._out_net(width)
        self.design.connect(cell, "Y", net)
        return net

    def shift(
        self, a: Net, amount: int, width: int, direction: str = "left"
    ) -> Net:
        """Shift ``a`` by the *constant* ``amount``, output ``width`` bits."""
        amount_net = self.const(amount, max(1, amount.bit_length()))
        cell = self._new_cell(Shifter(self._name("shift"), direction=direction))
        self.design.connect(cell, "A", a)
        self.design.connect(cell, "B", amount_net)
        net = self._out_net(width)
        self.design.connect(cell, "Y", net)
        return net

    def mux(self, select: Net, inputs: Sequence[Net], width: int) -> Net:
        if len(inputs) < 2:
            raise NetlistError("graft mux needs at least two data inputs")
        cell = self._new_cell(Mux(self._name("mux"), n_inputs=len(inputs)))
        for i, net in enumerate(inputs):
            self.design.connect(cell, f"D{i}", net)
        self.design.connect(cell, "S", select)
        net = self._out_net(width)
        self.design.connect(cell, "Y", net)
        return net

    # ------------------------------------------------------------------
    def balanced_tree(self, kind: str, terms: Sequence[Net], width: int) -> Net:
        """Reduce ``terms`` with ``kind`` ops in a balanced binary tree.

        Adjacent terms pair first (``[t0+t1, t2+t3, ...]``), halving the
        list until one net remains — depth ``ceil(log2(n))``.
        """
        level = list(terms)
        if not level:
            raise NetlistError("balanced_tree needs at least one term")
        while len(level) > 1:
            paired = []
            for i in range(0, len(level) - 1, 2):
                paired.append(self.binop(kind, level[i], level[i + 1], width))
            if len(level) % 2:
                paired.append(level[-1])
            level = paired
        return level[0]
