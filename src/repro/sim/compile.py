"""Compiled simulation backend: one-pass lowering to flat kernels.

The reference engine (:mod:`repro.sim.engine`) re-derives everything per
cell per cycle: it rebuilds an input dict from ``cell.connections()``,
consults ``cell.port_spec`` per port and dispatches through
``cell.evaluate``. That interpretation overhead dominates every
benchmark. This module compiles a :class:`~repro.netlist.design.Design`
once into straight-line Python code over a dense value array:

* every net gets an integer index into one flat value list;
* every combinational block (see :mod:`repro.netlist.partition`) is
  lowered to one generated function whose body is literal statements
  like ``v[7] = (v[3] + v[5]) & 255`` in topological order;
* the drive phase (primary inputs) and the commit phase (registers and
  latches) are generated the same way;
* cell kinds the code generator does not know fall back to a pre-bound
  closure around ``cell.evaluate`` — correctness never depends on the
  kind being known.

The generated program is **design-object-agnostic**: it references nets
and cells only by index/name, so one program is shared by all
structurally identical designs (e.g. the per-style copies made by
``compare_styles``). Programs are cached in a structure-keyed
:class:`ProgramCache`; after a netlist transform
(``isolate_candidate`` / ``deisolate_candidate``) only the combinational
blocks whose structure actually changed are recompiled — unchanged
blocks reuse their compiled functions because net indices are assigned
stably across the design's lineage.

:class:`CompiledSimulator` mirrors the :class:`~repro.sim.engine.Simulator`
interface (``step`` / ``commit`` / ``run`` / ``reset``) and is bit-exact
with it. ``run`` copies each observed cycle's value array into a
``(cycles × nets)`` uint64 block and hands every full block of
``_OBS_CHUNK`` cycles to each monitor's
:meth:`~repro.sim.monitor.Monitor.observe_block`, so toggle counts,
probe truth counts and value traces are accumulated as array operations
rather than per cycle in Python.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import CompilationError, ReproError, SimulationError
from repro.netlist.arith import (
    Adder,
    Comparator,
    Divider,
    MacUnit,
    Multiplier,
    Shifter,
    Subtractor,
)
from repro.netlist.banks import AndBank, LatchBank, OrBank
from repro.netlist.cells import Cell, PortDir
from repro.netlist.design import Design
from repro.netlist.logic import (
    AndGate,
    BitSelect,
    Buffer,
    Mux,
    NandGate,
    NorGate,
    NotGate,
    OrGate,
    XnorGate,
    XorGate,
)
from repro.netlist.nets import Net
from repro.netlist.partition import partition_blocks
from repro.netlist.ports import Constant, PrimaryInput, PrimaryOutput
from repro.netlist.seq import Register, TransparentLatch
from repro.netlist.traversal import combinational_order
from repro.sim.engine import SimulationResult
from repro.sim.monitor import Monitor, NetValues
from repro.sim.stimulus import Stimulus


# ----------------------------------------------------------------------
# Structural hashing
# ----------------------------------------------------------------------
def _cell_signature(cell: Cell) -> tuple:
    """Hashable structural fingerprint of one cell (type, params, wiring)."""
    params = tuple(
        sorted(
            (k, v)
            for k, v in vars(cell).items()
            if k not in ("_conn", "_specs", "name")
            and isinstance(v, (bool, int, float, str))
        )
    )
    conns = tuple(
        (port, net.name, net.width) for port, net in cell.connections()
    )
    return (type(cell).__name__, cell.kind, cell.name, params, conns)


def design_structure_hash(design: Design) -> str:
    """Stable hash of the design's structure (cells, params, wiring).

    Two designs with the same hash produce identical compiled programs;
    the hash is the key of :class:`ProgramCache`. Net values, simulation
    state and the design *name* do not enter the hash, so a ``copy()``
    of a design hits the cache.
    """
    digest = hashlib.sha256()
    for net in sorted(design.nets, key=lambda n: n.name):
        digest.update(f"n:{net.name}:{net.width};".encode())
    for cell in sorted(design.cells, key=lambda c: c.name):
        digest.update(repr(_cell_signature(cell)).encode())
    return digest.hexdigest()


def design_fingerprint(design: Design) -> str:
    """Public content-addressed fingerprint of a design's structure.

    Covers every net (name, width), every cell (type, kind, name,
    scalar parameters, per-port wiring) and — because primary
    inputs/outputs and constants are cells — all ports. Two designs
    share a fingerprint iff they are structurally identical: a rebuild
    of the same generator or a ``copy()`` collides, any structural edit
    (adding/removing/renaming a cell or net, rewiring a port, changing
    a width or parameter) changes the digest. Simulation state, net
    values and the design *name* do not enter the fingerprint.

    This is the same digest that keys the compiled-program cache
    (:class:`ProgramCache`) and the :mod:`repro.serve` result cache, so
    one identity is shared by all content-addressed layers. Also
    reachable as :meth:`repro.api.Session.fingerprint`.
    """
    return design_structure_hash(design)


def _group_key(cells: Sequence[Cell]) -> str:
    """Structural hash of one compiled unit (block / drive / commit)."""
    digest = hashlib.sha256()
    for cell in sorted(cells, key=lambda c: c.name):
        digest.update(repr(_cell_signature(cell)).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Compiled units
# ----------------------------------------------------------------------
@dataclass
class CompiledUnit:
    """One generated function plus everything needed to check reusability.

    ``net_binding`` / ``state_binding`` record the exact (name -> index)
    assignments the generated code was specialised for; a unit from a
    previous program is reused only when its key *and* bindings match
    under the new index maps.
    """

    key: str
    source: str
    fn: Callable
    net_binding: Tuple[Tuple[str, int], ...] = ()
    state_binding: Tuple[Tuple[str, int], ...] = ()
    ctx_names: Tuple[str, ...] = ()


_CMP_OPS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


class _Emitter:
    """Generates the per-cell statements of one compiled unit."""

    def __init__(self, net_index: Dict[str, int], state_slot: Dict[str, int]) -> None:
        self._net_index = net_index
        self._state_slot = state_slot
        self.nets_used: Dict[str, int] = {}
        self.states_used: Dict[str, int] = {}
        self.ctx_names: List[str] = []

    # -- index helpers --------------------------------------------------
    def v(self, cell: Cell, port: str) -> str:
        net = cell.net(port)
        idx = self._net_index[net.name]
        self.nets_used[net.name] = idx
        return f"v[{idx}]"

    def st(self, cell: Cell) -> str:
        slot = self._state_slot[cell.name]
        self.states_used[cell.name] = slot
        return f"st[{slot}]"

    def mask(self, cell: Cell, port: str) -> int:
        return cell.net(port).mask

    # -- per-cell lowering ----------------------------------------------
    def emit(self, cell: Cell) -> List[str]:
        """Statements evaluating ``cell`` during the settle phase."""
        m = self.mask
        v = self.v
        if isinstance(cell, (Constant, PrimaryInput, PrimaryOutput)):
            return []  # constants are reset-initialised; PIs driven; POs inert
        if isinstance(cell, Adder):
            return [f"{v(cell,'Y')} = ({v(cell,'A')} + {v(cell,'B')}) & {m(cell,'Y')}"]
        if isinstance(cell, Subtractor):
            return [f"{v(cell,'Y')} = ({v(cell,'A')} - {v(cell,'B')}) & {m(cell,'Y')}"]
        if isinstance(cell, Multiplier):
            return [f"{v(cell,'Y')} = ({v(cell,'A')} * {v(cell,'B')}) & {m(cell,'Y')}"]
        if isinstance(cell, MacUnit):
            return [
                f"{v(cell,'Y')} = ({v(cell,'A')} * {v(cell,'B')} + {v(cell,'C')})"
                f" & {m(cell,'Y')}"
            ]
        if isinstance(cell, Divider):
            a, b = v(cell, "A"), v(cell, "B")
            y, r = v(cell, "Y"), v(cell, "R")
            ym, rm = m(cell, "Y"), m(cell, "R")
            return [
                f"_b = {b}",
                "if _b:",
                f"    _a = {a}",
                f"    {y} = (_a // _b) & {ym}",
                f"    {r} = (_a % _b) & {rm}",
                "else:",
                f"    {y} = {ym}",
                f"    {r} = {a} & {rm}",
            ]
        if isinstance(cell, Comparator):
            op = _CMP_OPS[cell.op]
            return [f"{v(cell,'Y')} = 1 if {v(cell,'A')} {op} {v(cell,'B')} else 0"]
        if isinstance(cell, Shifter):
            op = "<<" if cell.direction == "left" else ">>"
            return [
                f"{v(cell,'Y')} = ({v(cell,'A')} {op} {v(cell,'B')}) & {m(cell,'Y')}"
            ]
        if isinstance(cell, Mux):
            sources = tuple(
                self._net_index[cell.net(f"D{i}").name] for i in range(cell.n_inputs)
            )
            for i in range(cell.n_inputs):
                net = cell.net(f"D{i}")
                self.nets_used[net.name] = self._net_index[net.name]
            return [
                f"{v(cell,'Y')} = v[{sources!r}[{v(cell,'S')} % {cell.n_inputs}]]"
                f" & {m(cell,'Y')}"
            ]
        if isinstance(cell, AndGate):
            return [f"{v(cell,'Y')} = {v(cell,'A')} & {v(cell,'B')}"]
        if isinstance(cell, OrGate):
            return [f"{v(cell,'Y')} = {v(cell,'A')} | {v(cell,'B')}"]
        if isinstance(cell, XorGate):
            return [f"{v(cell,'Y')} = {v(cell,'A')} ^ {v(cell,'B')}"]
        if isinstance(cell, NandGate):
            return [f"{v(cell,'Y')} = ~({v(cell,'A')} & {v(cell,'B')}) & {m(cell,'Y')}"]
        if isinstance(cell, NorGate):
            return [f"{v(cell,'Y')} = ~({v(cell,'A')} | {v(cell,'B')}) & {m(cell,'Y')}"]
        if isinstance(cell, XnorGate):
            return [f"{v(cell,'Y')} = ~({v(cell,'A')} ^ {v(cell,'B')}) & {m(cell,'Y')}"]
        if isinstance(cell, NotGate):
            return [f"{v(cell,'Y')} = ~{v(cell,'A')} & {m(cell,'Y')}"]
        if isinstance(cell, Buffer):
            return [f"{v(cell,'Y')} = {v(cell,'A')} & {m(cell,'Y')}"]
        if isinstance(cell, BitSelect):
            return [f"{v(cell,'Y')} = ({v(cell,'A')} >> {cell.bit}) & 1"]
        if isinstance(cell, AndBank):
            return [
                f"{v(cell,'Y')} = ({v(cell,'D')} & {m(cell,'Y')}) "
                f"if {v(cell,'EN')} else 0"
            ]
        if isinstance(cell, OrBank):
            return [
                f"{v(cell,'Y')} = ({v(cell,'D')} & {m(cell,'Y')}) "
                f"if {v(cell,'EN')} else {m(cell,'Y')}"
            ]
        if isinstance(cell, LatchBank):
            return [
                f"{v(cell,'Y')} = ({v(cell,'D')} & {m(cell,'Y')}) "
                f"if {v(cell,'EN')} else {self.st(cell)}"
            ]
        if isinstance(cell, TransparentLatch):
            return [
                f"{v(cell,'Q')} = ({v(cell,'D')} & {m(cell,'Q')}) "
                f"if {v(cell,'G')} else {self.st(cell)}"
            ]
        # Unknown cell kind: defer to a pre-bound generic closure. The
        # closure is bound per design at simulator construction (ctx),
        # keeping the program itself design-object-agnostic.
        self.ctx_names.append(cell.name)
        for port, net in cell.connections():
            self.nets_used[net.name] = self._net_index[net.name]
        if getattr(cell, "has_state", False):
            self.st(cell)
        return [f"ctx[{cell.name!r}](v, st)"]

    def emit_commit(self, cell: Cell) -> List[str]:
        """Statements computing ``cell``'s next state during commit."""
        v, m = self.v, self.mask
        if isinstance(cell, Register):
            target = self.st(cell)
            if cell.has_enable:
                return [
                    f"{target} = ({v(cell,'D')} & {m(cell,'Q')}) "
                    f"if {v(cell,'EN')} else {target}"
                ]
            return [f"{target} = {v(cell,'D')} & {m(cell,'Q')}"]
        if isinstance(cell, TransparentLatch):
            return [
                f"{self.st(cell)} = ({v(cell,'D')} & {m(cell,'Q')}) "
                f"if {v(cell,'G')} else {self.st(cell)}"
            ]
        if isinstance(cell, LatchBank):
            return [
                f"{self.st(cell)} = ({v(cell,'D')} & {m(cell,'Y')}) "
                f"if {v(cell,'EN')} else {self.st(cell)}"
            ]
        # Unknown stateful cell: generic commit closure.
        name = f"{cell.name}::commit"
        self.ctx_names.append(name)
        for port, net in cell.connections():
            self.nets_used[net.name] = self._net_index[net.name]
        self.st(cell)
        return [f"ctx[{name!r}](v, st)"]


def _compile_unit(name: str, key: str, body: List[str], emitter: _Emitter) -> CompiledUnit:
    """Assemble, ``exec`` and wrap one generated function.

    Any failure of the generated source — a syntax error from a bad
    emitter template, an exec-time error — surfaces as a typed
    :class:`~repro.errors.CompilationError` naming the unit, so
    ``engine="compiled"`` can degrade to the reference engine instead of
    leaking an opaque exception.
    """
    lines = [f"def {name}(v, st, ctx):"]
    if body:
        lines.extend("    " + line for line in body)
    else:
        lines.append("    pass")
    source = "\n".join(lines)
    namespace: Dict[str, object] = {}
    try:
        exec(compile(source, f"<repro.sim.compile:{name}>", "exec"), namespace)
    except Exception as exc:
        raise CompilationError(
            f"generated code for unit {name!r} does not compile: {exc}", unit=name
        ) from exc
    return CompiledUnit(
        key=key,
        source=source,
        fn=namespace[name],
        net_binding=tuple(sorted(emitter.nets_used.items())),
        state_binding=tuple(sorted(emitter.states_used.items())),
        ctx_names=tuple(emitter.ctx_names),
    )


# ----------------------------------------------------------------------
# The compiled program
# ----------------------------------------------------------------------
@dataclass
class CompiledProgram:
    """A design lowered to flat evaluation kernels.

    The program holds no references to :class:`Design`, :class:`Net` or
    :class:`Cell` objects — only names, indices and generated code — so
    it is shared across structurally identical designs and safe to keep
    in a global cache.
    """

    design_hash: str
    net_index: Dict[str, int]
    state_slot: Dict[str, int]
    n_values: int
    n_state: int
    max_width: int
    pi_names: Tuple[str, ...]
    drive: CompiledUnit = None  # type: ignore[assignment]
    blocks: List[CompiledUnit] = field(default_factory=list)
    commit: CompiledUnit = None  # type: ignore[assignment]
    #: (value index, constant value) pairs applied at reset.
    const_init: List[Tuple[int, int]] = field(default_factory=list)
    #: (state slot, Q value index, reset value) per register.
    reg_init: List[Tuple[int, int, int]] = field(default_factory=list)
    #: (state slot, reset value) per in-block latch.
    latch_init: List[Tuple[int, int]] = field(default_factory=list)
    #: Diagnostics of the compile that produced this program.
    blocks_compiled: int = 0
    blocks_reused: int = 0

    def reset_values(self) -> List[int]:
        values = [0] * self.n_values
        for idx, value in self.const_init:
            values[idx] = value
        for _slot, q_idx, value in self.reg_init:
            values[q_idx] = value
        return values

    def reset_state(self) -> List[int]:
        state = [0] * self.n_state
        for slot, _q_idx, value in self.reg_init:
            state[slot] = value
        for slot, value in self.latch_init:
            state[slot] = value
        return state

    def bind_ctx(self, design: Design) -> Dict[str, Callable]:
        """Bind the generic-fallback closures to one concrete design."""
        ctx: Dict[str, Callable] = {}
        names = set(self.commit.ctx_names)
        for unit in [self.drive] + self.blocks:
            names.update(unit.ctx_names)
        for name in names:
            cell_name, _, phase = name.partition("::")
            cell = design.cell(cell_name)
            if phase == "commit":
                ctx[name] = _generic_commit(cell, self.net_index, self.state_slot)
            else:
                ctx[name] = _generic_eval(cell, self.net_index, self.state_slot)
        return ctx


def _generic_eval(
    cell: Cell, net_index: Dict[str, int], state_slot: Dict[str, int]
) -> Callable:
    """Settle-phase closure for cell kinds without dedicated codegen."""
    in_items = [
        (port, net_index[net.name])
        for port, net in cell.connections()
        if cell.port_spec(port).direction is PortDir.IN
    ]
    out_items = {
        port: net_index[net.name]
        for port, net in cell.connections()
        if cell.port_spec(port).direction is PortDir.OUT
    }
    if getattr(cell, "has_state", False):
        out_port = cell.output_ports[0]
        out_idx = out_items[out_port]
        slot = state_slot[cell.name]

        def fn(v, st):
            inputs = {port: v[idx] for port, idx in in_items}
            v[out_idx] = cell.output_value(st[slot], inputs)

        return fn

    def fn(v, st):
        inputs = {port: v[idx] for port, idx in in_items}
        for port, value in cell.evaluate(inputs).items():
            v[out_items[port]] = value

    return fn


def _generic_commit(
    cell: Cell, net_index: Dict[str, int], state_slot: Dict[str, int]
) -> Callable:
    """Commit-phase closure for stateful cells without dedicated codegen."""
    if isinstance(cell, Register):
        in_items = [
            (port, net_index[net.name])
            for port, net in cell.connections()
            if port != "Q"
        ]
    else:
        in_items = [
            (port, net_index[net.name])
            for port, net in cell.connections()
            if cell.port_spec(port).direction is PortDir.IN
        ]
    slot = state_slot[cell.name]

    def fn(v, st):
        inputs = {port: v[idx] for port, idx in in_items}
        st[slot] = cell.next_state(st[slot], inputs)

    return fn


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def compile_design(
    design: Design, previous: Optional[CompiledProgram] = None
) -> CompiledProgram:
    """Lower ``design`` into a :class:`CompiledProgram`.

    With ``previous`` (an earlier program from the same design lineage),
    net indices and state slots are assigned stably — names already seen
    keep their index — and any combinational block, drive or commit unit
    whose structure and bindings are unchanged reuses its compiled
    function instead of being regenerated.
    """
    net_index: Dict[str, int] = {}
    state_slot: Dict[str, int] = {}
    if previous is not None:
        net_index.update(previous.net_index)
        state_slot.update(previous.state_slot)
    next_net = max(net_index.values(), default=-1) + 1
    current_names = set()
    for net in design.nets:
        current_names.add(net.name)
        if net.name not in net_index:
            net_index[net.name] = next_net
            next_net += 1
    net_index = {
        name: idx for name, idx in net_index.items() if name in current_names
    }

    order = combinational_order(design)
    stateful_comb = [c for c in order if getattr(c, "has_state", False)]
    registers = sorted(design.registers, key=lambda c: c.name)
    next_slot = max(state_slot.values(), default=-1) + 1
    stateful_names = set()
    for cell in registers + stateful_comb:
        stateful_names.add(cell.name)
        if cell.name not in state_slot:
            state_slot[cell.name] = next_slot
            next_slot += 1
    state_slot = {
        name: slot for name, slot in state_slot.items() if name in stateful_names
    }

    n_values = max(net_index.values(), default=-1) + 1
    n_state = max(state_slot.values(), default=-1) + 1

    previous_units: Dict[str, CompiledUnit] = {}
    if previous is not None:
        for unit in [previous.drive, previous.commit] + previous.blocks:
            previous_units[unit.key] = unit

    def reuse(key: str) -> Optional[CompiledUnit]:
        unit = previous_units.get(key)
        if unit is None:
            return None
        if any(net_index.get(name) != idx for name, idx in unit.net_binding):
            return None
        if any(state_slot.get(name) != slot for name, slot in unit.state_binding):
            return None
        return unit

    program = CompiledProgram(
        design_hash=design_structure_hash(design),
        net_index=net_index,
        state_slot=state_slot,
        n_values=n_values,
        n_state=n_state,
        max_width=max((net.width for net in design.nets), default=1),
        pi_names=tuple(pi.name for pi in design.primary_inputs),
    )

    # --- drive unit ----------------------------------------------------
    pis = design.primary_inputs
    drive_key = _group_key(pis)
    unit = reuse(drive_key)
    if unit is None:
        emitter = _Emitter(net_index, state_slot)
        body = []
        for pi in pis:
            net = pi.net("Y")
            body.append(
                f"v[{net_index[net.name]}] = pi[{pi.name!r}] & {net.mask}"
            )
            emitter.nets_used[net.name] = net_index[net.name]
        lines = ["def _drive(v, pi):"] + (
            ["    " + line for line in body] or ["    pass"]
        )
        source = "\n".join(lines)
        namespace: Dict[str, object] = {}
        try:
            exec(compile(source, "<repro.sim.compile:_drive>", "exec"), namespace)
        except Exception as exc:
            raise CompilationError(
                f"generated code for unit '_drive' does not compile: {exc}",
                unit="_drive",
            ) from exc
        unit = CompiledUnit(
            key=drive_key,
            source=source,
            fn=namespace["_drive"],
            net_binding=tuple(sorted(emitter.nets_used.items())),
        )
        program.blocks_compiled += 1
    else:
        program.blocks_reused += 1
    program.drive = unit

    # --- combinational blocks ------------------------------------------
    blocks = partition_blocks(design)
    cell_block: Dict[Cell, int] = {}
    for block in blocks:
        for cell in block.cells:
            cell_block[cell] = block.index
    ordered_cells: Dict[int, List[Cell]] = {block.index: [] for block in blocks}
    for cell in order:
        ordered_cells.setdefault(cell_block.get(cell, -1), []).append(cell)
    for block in blocks:
        cells = ordered_cells[block.index]
        key = _group_key(cells)
        unit = reuse(key)
        if unit is None:
            emitter = _Emitter(net_index, state_slot)
            body: List[str] = []
            for cell in cells:
                body.extend(emitter.emit(cell))
            unit = _compile_unit(f"_block_{block.index}", key, body, emitter)
            program.blocks_compiled += 1
        else:
            program.blocks_reused += 1
        program.blocks.append(unit)

    # --- commit unit ---------------------------------------------------
    stateful = registers + stateful_comb
    commit_key = _group_key(stateful)
    unit = reuse(commit_key)
    if unit is None:
        emitter = _Emitter(net_index, state_slot)
        body = []
        for cell in stateful:
            body.extend(emitter.emit_commit(cell))
        for reg in registers:
            q = reg.net("Q")
            body.append(f"v[{net_index[q.name]}] = st[{state_slot[reg.name]}]")
            emitter.nets_used[q.name] = net_index[q.name]
        unit = _compile_unit("_commit", commit_key, body, emitter)
        program.blocks_compiled += 1
    else:
        program.blocks_reused += 1
    program.commit = unit

    # --- reset metadata -------------------------------------------------
    for const in design.constants:
        net = const.net("Y")
        program.const_init.append((net_index[net.name], net.clip(const.value)))
    for reg in registers:
        q = reg.net("Q")
        program.reg_init.append(
            (state_slot[reg.name], net_index[q.name], q.clip(reg.reset_value))
        )
    for cell in stateful_comb:
        out = cell.net(cell.output_ports[0])
        program.latch_init.append(
            (state_slot[cell.name], out.clip(getattr(cell, "reset_value", 0)))
        )
    return program


# ----------------------------------------------------------------------
# The structure-keyed program cache
# ----------------------------------------------------------------------
class ProgramCache:
    """LRU cache of compiled programs, keyed by design structure hash.

    A per-design-name *lineage* pointer remembers the last program
    compiled for each design, so a cache miss after a netlist transform
    compiles incrementally: only the combinational blocks whose
    structure changed are regenerated. ``deisolate_candidate`` restores
    the original structure, so the undo path is a plain cache hit.
    """

    def __init__(self, maxsize: int = 128) -> None:
        self.maxsize = maxsize
        self._programs: "OrderedDict[str, CompiledProgram]" = OrderedDict()
        self._lineage: Dict[str, CompiledProgram] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.units_compiled = 0
        self.units_reused = 0

    def get(self, design: Design) -> CompiledProgram:
        key = design_structure_hash(design)
        with self._lock:
            program = self._programs.get(key)
            if program is not None:
                self.hits += 1
                obs.counter("cache.hits").inc()
                self._programs.move_to_end(key)
                self._lineage[design.name] = program
                return program
            self.misses += 1
            obs.counter("cache.misses").inc()
            previous = self._lineage.get(design.name)
        try:
            with obs.span("sim.compile", "sim", design=design.name):
                program = compile_design(design, previous=previous)
        except ReproError:
            # Typed errors (validation failures, explicit compilation
            # errors) pass through untouched.
            raise
        except Exception as exc:
            # Anything else is a lowering bug; surface it as a typed
            # CompilationError so engine="compiled" can degrade cleanly.
            raise CompilationError(
                f"lowering design {design.name!r} failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        with self._lock:
            self.units_compiled += program.blocks_compiled
            self.units_reused += program.blocks_reused
            obs.counter("cache.units_compiled").inc(program.blocks_compiled)
            obs.counter("cache.units_reused").inc(program.blocks_reused)
            self._programs[key] = program
            self._lineage[design.name] = program
            while len(self._programs) > self.maxsize:
                self._programs.popitem(last=False)
        return program

    def clear(self) -> None:
        with self._lock:
            self._programs.clear()
            self._lineage.clear()
            self.hits = self.misses = 0
            self.units_compiled = self.units_reused = 0

    def stats(self) -> Dict[str, int]:
        return {
            "programs": len(self._programs),
            "hits": self.hits,
            "misses": self.misses,
            "units_compiled": self.units_compiled,
            "units_reused": self.units_reused,
        }

    def __len__(self) -> int:
        return len(self._programs)


_GLOBAL_CACHE = ProgramCache()

#: Cycles per value block handed to ``Monitor.observe_block``.
_OBS_CHUNK = 256


def program_cache() -> ProgramCache:
    """The process-wide compiled-program cache."""
    return _GLOBAL_CACHE


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
class CompiledSimulator:
    """Drop-in, bit-exact, compiled counterpart of :class:`Simulator`.

    Programs come from the global :func:`program_cache` by default, so
    repeated construction over the same (or structurally identical)
    design pays compilation once.
    """

    #: Mirrors Simulator.fallback_reason for interface uniformity; a
    #: successfully constructed compiled simulator never degraded.
    fallback_reason = None

    def __init__(
        self,
        design: Design,
        program: Optional[CompiledProgram] = None,
        cache: Optional[ProgramCache] = None,
    ) -> None:
        self.design = design
        if program is None:
            program = (cache or program_cache()).get(design)
        self.program = program
        self._ctx = program.bind_ctx(design)
        self._values: List[int] = program.reset_values()
        self._state: List[int] = program.reset_state()
        self._view_index = {
            design.net(name): idx for name, idx in program.net_index.items()
        }
        self.values = NetValues(self._values, self._view_index)
        self.cycle = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to the power-on state (registers/latches at reset values)."""
        self.cycle = 0
        self._values[:] = self.program.reset_values()
        self._state[:] = self.program.reset_state()

    # ------------------------------------------------------------------
    def step(self, pi_values: Mapping[str, int]) -> Mapping[Net, int]:
        """Simulate one clock cycle; returns the settled net values."""
        v = self._values
        try:
            self.program.drive.fn(v, pi_values)
        except KeyError as exc:
            raise SimulationError(
                f"stimulus provides no value for primary input {exc.args[0]!r} "
                f"at cycle {self.cycle}"
            ) from None
        st, ctx = self._state, self._ctx
        for block in self.program.blocks:
            block.fn(v, st, ctx)
        return self.values

    def commit(self) -> None:
        """Clock edge: registers and latches capture their next state."""
        self.program.commit.fn(self._values, self._state, self._ctx)
        self.cycle += 1

    # ------------------------------------------------------------------
    def state_items(self) -> List[Tuple[str, int]]:
        """(cell name, state value) pairs for cross-engine comparison."""
        st = self._state
        return [
            (name, st[slot]) for name, slot in self.program.state_slot.items()
        ]

    def state_value(self, name: str) -> int:
        """Committed state of the named register/latch."""
        return self._state[self.program.state_slot[name]]

    # ------------------------------------------------------------------
    def run(
        self,
        stimulus: Stimulus,
        cycles: int,
        monitors: Optional[Sequence[Monitor]] = None,
        warmup: int = 0,
    ) -> SimulationResult:
        """Run ``cycles`` cycles, feeding ``stimulus`` and updating monitors.

        Observed cycles reach the monitors as value blocks of up to
        ``_OBS_CHUNK`` cycles through
        :meth:`~repro.sim.monitor.Monitor.observe_block`, each delivery
        in a ``sim.observe`` span. On a design with a net wider than 63
        bits, which a uint64 block cannot hold, monitors observe once
        per cycle instead.
        """
        with obs.span(
            "sim.run",
            "sim",
            engine="compiled",
            design=self.design.name,
            cycles=cycles,
            warmup=warmup,
        ):
            return self._run(stimulus, cycles, monitors, warmup)

    def _run(
        self,
        stimulus: Stimulus,
        cycles: int,
        monitors: Optional[Sequence[Monitor]] = None,
        warmup: int = 0,
    ) -> SimulationResult:
        monitors = list(monitors or [])
        for monitor in monitors:
            monitor.begin(self.design)
        blocked = bool(monitors) and self.program.max_width <= 63
        if blocked:
            block = np.empty((_OBS_CHUNK, self.program.n_values), dtype=np.uint64)
        fill = first_cycle = 0

        def deliver():
            rows = block[:fill]
            with obs.span("sim.observe", "sim", cycles=fill, monitors=len(monitors)):
                for monitor in monitors:
                    monitor.observe_block(first_cycle, rows, self._view_index)

        for i in range(warmup + cycles):
            self.step(stimulus.values(self.cycle))
            if i >= warmup:
                if not blocked:
                    for monitor in monitors:
                        monitor.observe(self.cycle, self.values)
                else:
                    if fill == 0:
                        first_cycle = self.cycle
                    block[fill] = self._values
                    fill += 1
                    if fill == _OBS_CHUNK:
                        deliver()
                        fill = 0
            self.commit()
        if fill:
            deliver()
        for monitor in monitors:
            monitor.finish()
        return SimulationResult(cycles=cycles, monitors=monitors)
