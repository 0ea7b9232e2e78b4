"""The Design container: a named collection of nets and cells.

A :class:`Design` owns all nets and cells, maintains the driver/reader
links between them, hands out fresh unique names (needed by netlist
transforms such as isolation insertion), and supports structural rewiring
and deep copying.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, List, Optional

from repro import obs
from repro.errors import NetlistError
from repro.netlist.cells import Cell, Pin, PortDir
from repro.netlist.nets import Net
from repro.netlist.ports import Constant, PrimaryInput, PrimaryOutput
from repro.netlist.seq import Register


class Design:
    """A complete RT-level design.

    Cells and nets are registered under unique names. Connections are made
    with :meth:`connect`, which updates both the cell's port table and the
    net's driver/reader lists.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._nets: Dict[str, Net] = {}
        self._cells: Dict[str, Cell] = {}
        self._name_counter = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_net(self, name: str, width: int = 1) -> Net:
        """Create and register a new net."""
        if name in self._nets:
            raise NetlistError(f"duplicate net name {name!r}")
        net = Net(name, width)
        self._nets[name] = net
        return net

    def add_cell(self, cell: Cell) -> Cell:
        """Register an (already constructed) cell."""
        if cell.name in self._cells:
            raise NetlistError(f"duplicate cell name {cell.name!r}")
        self._cells[cell.name] = cell
        return cell

    def connect(self, cell: Cell, port: str, net: Net) -> None:
        """Connect ``cell.port`` to ``net`` (must both belong to this design)."""
        if self._cells.get(cell.name) is not cell:
            raise NetlistError(f"cell {cell.name!r} is not part of design {self.name!r}")
        if self._nets.get(net.name) is not net:
            raise NetlistError(f"net {net.name!r} is not part of design {self.name!r}")
        cell.bind(port, net)

    def fresh_net_name(self, prefix: str = "n") -> str:
        """A net name not yet used in this design."""
        while True:
            self._name_counter += 1
            name = f"{prefix}_{self._name_counter}"
            if name not in self._nets:
                return name

    def fresh_cell_name(self, prefix: str = "u") -> str:
        """A cell name not yet used in this design."""
        while True:
            self._name_counter += 1
            name = f"{prefix}_{self._name_counter}"
            if name not in self._cells:
                return name

    # ------------------------------------------------------------------
    # Rewiring (used by isolation insertion)
    # ------------------------------------------------------------------
    def rewire_input(self, cell: Cell, port: str, new_net: Net) -> Net:
        """Reconnect input ``cell.port`` from its current net to ``new_net``.

        Returns the net that was previously connected. The old net keeps
        its other readers; only this pin moves.
        """
        spec = cell.port_spec(port)
        if spec.direction is not PortDir.IN:
            raise NetlistError(f"{cell.name}.{port} is not an input")
        if self._nets.get(new_net.name) is not new_net:
            raise NetlistError(f"net {new_net.name!r} is not part of design {self.name!r}")
        old_net = cell.net(port)
        old_net.readers[:] = [
            pin for pin in old_net.readers if not (pin.cell is cell and pin.port == port)
        ]
        del cell._conn[port]
        cell.bind(port, new_net)
        return old_net

    def disconnect(self, cell: Cell, port: str) -> Net:
        """Detach ``cell.port`` from its net; returns the detached net.

        The inverse of :meth:`connect` for one pin: an output pin leaves
        its net driverless, an input pin stops reading. Used by netlist
        surgery (and by the fault injector, which models exactly this
        kind of structural damage).
        """
        if self._cells.get(cell.name) is not cell:
            raise NetlistError(f"cell {cell.name!r} is not part of design {self.name!r}")
        net = cell.net(port)  # raises NetlistError if unconnected
        if cell.port_spec(port).direction is PortDir.OUT:
            net.driver = None
        else:
            net.readers[:] = [
                pin
                for pin in net.readers
                if not (pin.cell is cell and pin.port == port)
            ]
        del cell._conn[port]
        return net

    def remove_cell(self, cell: Cell) -> None:
        """Unregister ``cell``, detaching all its pins.

        Output nets lose their driver (the caller re-drives or removes
        them); input nets lose this reader. Used by netlist transforms
        that undo or replace structure (e.g. de-isolation).
        """
        if self._cells.get(cell.name) is not cell:
            raise NetlistError(f"cell {cell.name!r} is not part of design {self.name!r}")
        for port, net in list(cell.connections()):
            if cell.port_spec(port).direction is PortDir.OUT:
                net.driver = None
            else:
                net.readers[:] = [
                    pin
                    for pin in net.readers
                    if not (pin.cell is cell and pin.port == port)
                ]
            del cell._conn[port]
        del self._cells[cell.name]

    def remove_net(self, net: Net) -> None:
        """Unregister ``net``; it must be fully disconnected."""
        if self._nets.get(net.name) is not net:
            raise NetlistError(f"net {net.name!r} is not part of design {self.name!r}")
        if net.driver is not None or net.readers:
            raise NetlistError(
                f"net {net.name!r} is still connected "
                f"(driver={net.driver}, readers={len(net.readers)})"
            )
        del self._nets[net.name]

    def sweep_dangling(self) -> int:
        """Remove cells with no read outputs and nets with no connections.

        Iterates to a fixed point (removing one dead cell can orphan its
        fanin). Boundary cells (PIs/POs) and sequential state are never
        swept. Returns the number of cells removed.
        """
        from repro.netlist.ports import PrimaryInput, PrimaryOutput

        removed = 0
        changed = True
        while changed:
            changed = False
            for cell in list(self._cells.values()):
                if isinstance(cell, (PrimaryInput, PrimaryOutput)):
                    continue
                if cell.is_sequential:
                    continue
                outputs = cell.output_pins
                if outputs and all(not pin.net.readers for pin in outputs):
                    dead_nets = [pin.net for pin in outputs]
                    self.remove_cell(cell)
                    for net in dead_nets:
                        self.remove_net(net)
                    removed += 1
                    changed = True
        return removed

    # ------------------------------------------------------------------
    # Lookup / iteration
    # ------------------------------------------------------------------
    def net(self, name: str) -> Net:
        try:
            return self._nets[name]
        except KeyError:
            raise NetlistError(f"no net named {name!r} in design {self.name!r}") from None

    def cell(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise NetlistError(f"no cell named {name!r} in design {self.name!r}") from None

    def has_net(self, name: str) -> bool:
        return name in self._nets

    def has_cell(self, name: str) -> bool:
        return name in self._cells

    @property
    def nets(self) -> List[Net]:
        return list(self._nets.values())

    @property
    def cells(self) -> List[Cell]:
        return list(self._cells.values())

    def iter_cells(self) -> Iterator[Cell]:
        return iter(self._cells.values())

    @property
    def primary_inputs(self) -> List[PrimaryInput]:
        return [c for c in self._cells.values() if isinstance(c, PrimaryInput)]

    @property
    def primary_outputs(self) -> List[PrimaryOutput]:
        return [c for c in self._cells.values() if isinstance(c, PrimaryOutput)]

    @property
    def registers(self) -> List[Register]:
        return [c for c in self._cells.values() if isinstance(c, Register)]

    @property
    def constants(self) -> List[Constant]:
        return [c for c in self._cells.values() if isinstance(c, Constant)]

    @property
    def combinational_cells(self) -> List[Cell]:
        """Cells evaluated during the combinational settle phase.

        Everything except registers and boundary cells; this *includes*
        transparent latches and latch banks (state-holding but evaluated
        in combinational order).
        """
        return [
            c
            for c in self._cells.values()
            if not c.is_sequential
            and not isinstance(c, (PrimaryInput, PrimaryOutput))
        ]

    @property
    def datapath_modules(self) -> List[Cell]:
        """All isolation-candidate arithmetic modules."""
        return [c for c in self._cells.values() if c.is_datapath_module]

    def input_net(self, name: str) -> Net:
        """Net driven by the primary input cell named ``name``."""
        cell = self.cell(name)
        if not isinstance(cell, PrimaryInput):
            raise NetlistError(f"cell {name!r} is not a primary input")
        return cell.net("Y")

    def output_net(self, name: str) -> Net:
        """Net read by the primary output cell named ``name``."""
        cell = self.cell(name)
        if not isinstance(cell, PrimaryOutput):
            raise NetlistError(f"cell {name!r} is not a primary output")
        return cell.net("A")

    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Design":
        """Deep structural copy (used to compare pre/post-isolation)."""
        with obs.span("design.copy", "stage", design=self.name):
            dup = copy.deepcopy(self)
        if name is not None:
            dup.name = name
        return dup

    def stats(self) -> Dict[str, int]:
        """Coarse size statistics (cells, nets, modules, registers, bits)."""
        return {
            "cells": len(self._cells),
            "nets": len(self._nets),
            "modules": len(self.datapath_modules),
            "registers": len(self.registers),
            "inputs": len(self.primary_inputs),
            "outputs": len(self.primary_outputs),
            "net_bits": sum(n.width for n in self._nets.values()),
        }

    def __repr__(self) -> str:
        return (
            f"Design({self.name!r}, cells={len(self._cells)}, "
            f"nets={len(self._nets)})"
        )
