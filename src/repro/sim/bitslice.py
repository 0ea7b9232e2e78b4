"""Bit-sliced multi-lane simulation kernel: ``engine="bitslice"``.

The compiled backend (:mod:`repro.sim.compile`) still evaluates one
stimulus vector per Python instruction, so a 64-replication
:class:`~repro.sim.batch.BatchSimulator` run costs 64 scalar steps of
interpreter overhead per cycle. This module transposes the data layout:
every net of width W becomes W *bit-planes*, each plane a Python int
holding one bit of the net for **every lane of a word at once** (bit
``j`` of plane ``b`` is lane ``j``'s value of net bit ``b``). A
two-input gate is then 1–3 int ops *total* across all lanes; adders
lower to the classic bit-sliced ripple-carry recurrence (5 ops per
output bit); toggle counting is XOR deltas between consecutive planes,
counted per lane with numpy.

Layout invariant: every plane is a subset of the lane mask ``LM``
(``(1 << lanes) - 1`` for the word). NOT is emitted as ``LM ^ x`` —
never ``~x`` — so phantom lanes in a ragged final word stay identically
zero and can never contribute toggles.

Lowering supports the full shipped cell library (gates, banks, muxes,
adders/subtractors, comparators, shifters, multipliers/MACs, dividers,
registers, latches). Unknown cell kinds and nets wider than
:data:`MAX_SLICE_WIDTH` raise :class:`~repro.errors.CompilationError`;
:class:`~repro.sim.batch.BatchSimulator` then degrades to the compiled
batch engine with a recorded ``fallback_reason``.

This is a batch engine only. Its one consumer is
:class:`BitsliceBatchKernel`, the lane-packed engine behind
``BatchSimulator(engine="bitslice")``: ``batch_size`` lanes split into
words of :data:`WORD_LANES` lanes each, feeding the existing
:class:`~repro.sim.batch.BatchToggleMonitor` /
:class:`~repro.sim.batch.BatchProbe` statistics unchanged. A scalar
``engine="bitslice"`` run uses the compiled kernel
(:func:`repro.sim.engine.make_simulator`). The lowering is checked
against the python reference through one-lane and few-lane broadcast
batches, net by net and cycle by cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
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
from repro.netlist.cells import Cell
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
from repro.netlist.ports import Constant, PrimaryInput, PrimaryOutput
from repro.netlist.seq import Register, TransparentLatch
from repro.netlist.traversal import combinational_order
from repro.sim.compile import design_structure_hash

#: Widest net the bit-sliced lowering accepts (one plane per bit).
MAX_SLICE_WIDTH = 64

#: Lanes per word. One plane of a word fits one uint64, so input
#: columns are transposed and toggles counted a word at a time in numpy.
WORD_LANES = 64


# ----------------------------------------------------------------------
# Lane packing / unpacking
# ----------------------------------------------------------------------
def pack_lanes(values: np.ndarray, width: int) -> List[int]:
    """Transpose per-lane values into ``width`` bit-plane bigints.

    ``values`` is a length-N integer array; the result is a list of
    ``width`` Python ints where bit ``j`` of plane ``b`` equals bit
    ``b`` of ``values[j]``. Bits of ``values`` at or above ``width``
    are dropped (net clipping), so every plane is a subset of the lane
    mask ``(1 << N) - 1``.
    """
    arr = np.ascontiguousarray(values, dtype=np.uint64)
    n = arr.shape[0]
    if n == 0 or width == 0:
        return [0] * width
    # Force little-endian so byte 0 holds bits 0..7 on any platform.
    raw = arr.astype("<u8").view(np.uint8).reshape(n, 8)
    bits = np.unpackbits(raw, axis=1, bitorder="little")[:, :width]
    packed = np.packbits(bits, axis=0, bitorder="little")  # (ceil(n/8), width)
    return [
        int.from_bytes(packed[:, b].tobytes(), "little") for b in range(width)
    ]


def unpack_lanes(planes: Sequence[int], n: int) -> np.ndarray:
    """Inverse of :func:`pack_lanes`: planes back to a uint64 lane array."""
    width = len(planes)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0 or width == 0:
        return out
    if width > 64:
        raise SimulationError(
            f"cannot unpack {width} planes into uint64 lanes"
        )
    nbytes = (n + 7) // 8
    buf = np.zeros((nbytes, width), dtype=np.uint8)
    for b, plane in enumerate(planes):
        if plane:
            buf[:, b] = np.frombuffer(
                plane.to_bytes(nbytes, "little"), dtype=np.uint8
            )
    bits = np.unpackbits(buf, axis=0, bitorder="little")[:n]  # (n, width)
    weights = np.uint64(1) << np.arange(width, dtype=np.uint64)
    return (bits.astype(np.uint64) * weights).sum(axis=1).astype(np.uint64)


# ----------------------------------------------------------------------
# Expression folding over plane strings
# ----------------------------------------------------------------------
# The emitters build expressions from the atoms "0" (all lanes zero),
# "LM" (all lanes one) and plane references; these helpers fold the
# constants away at code-generation time, which is what makes
# zero-extended operands and constant selects free.
def _not(x: str) -> str:
    if x == "0":
        return "LM"
    if x == "LM":
        return "0"
    return f"(LM ^ {x})"


def _and(x: str, y: str) -> str:
    if x == "0" or y == "0":
        return "0"
    if x == "LM":
        return y
    if y == "LM":
        return x
    return f"({x} & {y})"


def _or(x: str, y: str) -> str:
    if x == "LM" or y == "LM":
        return "LM"
    if x == "0":
        return y
    if y == "0":
        return x
    return f"({x} | {y})"


def _xor(x: str, y: str) -> str:
    if x == "0":
        return y
    if y == "0":
        return x
    if x == "LM":
        return _not(y)
    if y == "LM":
        return _not(x)
    return f"({x} ^ {y})"


def _is_atom(expr: str) -> bool:
    return " " not in expr


class _SliceEmitter:
    """Accumulates the statements of one generated plane function."""

    def __init__(
        self,
        plane_offset: Dict[str, int],
        state_offset: Dict[str, Tuple[int, int]],
    ) -> None:
        self._offset = plane_offset
        self._state = state_offset
        self.lines: List[str] = []
        self._ntemp = 0

    # -- plane references ----------------------------------------------
    def bit(self, cell: Cell, port: str, b: int) -> str:
        """Plane of bit ``b`` of the net on ``port`` ("0" beyond width)."""
        net = cell.net(port)
        if b >= net.width:
            return "0"
        return f"v[{self._offset[net.name] + b}]"

    def out_index(self, cell: Cell, port: str, b: int) -> int:
        return self._offset[cell.net(port).name] + b

    def state_ref(self, cell: Cell, b: int) -> str:
        off, _width = self._state[cell.name]
        return f"s[{off + b}]"

    # -- statement emission ---------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append(line)

    def store(self, cell: Cell, port: str, b: int, expr: str) -> None:
        self.emit(f"v[{self.out_index(cell, port, b)}] = {expr}")

    def assign(self, expr: str) -> str:
        """Bind ``expr`` to a temp (no-op for atoms) and return the name."""
        if _is_atom(expr):
            return expr
        name = f"_t{self._ntemp}"
        self._ntemp += 1
        self.lines.append(f"{name} = {expr}")
        return name


# ----------------------------------------------------------------------
# Per-cell lowerings
# ----------------------------------------------------------------------
def _ripple_sum(
    em: _SliceEmitter, abits: List[str], bbits: List[str], carry_in: str
) -> List[str]:
    """Bit-sliced ripple adder: returns the sum planes of a + b + cin."""
    width = len(abits)
    out: List[str] = []
    c = carry_in
    for b in range(width):
        a, bb = abits[b], bbits[b]
        t = em.assign(_xor(a, bb))
        out.append(em.assign(_xor(t, c)))
        if b < width - 1:
            c = em.assign(_or(_and(a, bb), _and(c, t)))
    return out


def _borrow(em: _SliceEmitter, abits: List[str], bbits: List[str]) -> str:
    """Lanes where the integer A is strictly below B (final borrow)."""
    bor = "0"
    for a, b in zip(abits, bbits):
        lo = _and(_not(a), b)
        keep = _and(_not(_xor(a, b)), bor)
        bor = em.assign(_or(lo, keep))
    return bor


def _emit_adder(em: _SliceEmitter, cell: Cell, subtract: bool) -> None:
    yw = cell.net("Y").width
    abits = [em.bit(cell, "A", b) for b in range(yw)]
    bbits = [
        _not(em.bit(cell, "B", b)) if subtract else em.bit(cell, "B", b)
        for b in range(yw)
    ]
    planes = _ripple_sum(em, abits, bbits, "LM" if subtract else "0")
    for b, expr in enumerate(planes):
        em.store(cell, "Y", b, expr)


def _emit_comparator(em: _SliceEmitter, cell: Comparator) -> None:
    width = max(cell.net("A").width, cell.net("B").width)
    abits = [em.bit(cell, "A", b) for b in range(width)]
    bbits = [em.bit(cell, "B", b) for b in range(width)]
    op = cell.op
    if op in ("eq", "ne"):
        acc = "LM"
        for a, b in zip(abits, bbits):
            acc = em.assign(_and(acc, _not(_xor(a, b))))
        result = acc if op == "eq" else _not(acc)
    elif op in ("lt", "ge"):
        lt = _borrow(em, abits, bbits)
        result = lt if op == "lt" else _not(lt)
    else:  # gt / le
        gt = _borrow(em, bbits, abits)
        result = gt if op == "gt" else _not(gt)
    em.store(cell, "Y", 0, result)


def _emit_mul(em: _SliceEmitter, cell: Cell, acc: List[str]) -> None:
    """Shift-add multiplier (and MAC when ``acc`` starts from C planes)."""
    yw = cell.net("Y").width
    aw = cell.net("A").width
    bw = cell.net("B").width
    for i in range(min(bw, yw)):
        bi = em.bit(cell, "B", i)
        if bi == "0":
            continue
        carry = "0"
        for b in range(i, yw):
            pb = em.assign(_and(bi, em.bit(cell, "A", b - i)))
            if pb == "0" and carry == "0":
                break  # partial product exhausted, no carry left
            old = acc[b]
            t = em.assign(_xor(old, pb))
            new_carry = "0"
            if b < yw - 1:
                new_carry = em.assign(_or(_and(old, pb), _and(carry, t)))
            acc[b] = em.assign(_xor(t, carry))
            carry = new_carry
    for b in range(yw):
        em.store(cell, "Y", b, acc[b])


def _emit_shifter(em: _SliceEmitter, cell: Shifter) -> None:
    left = cell.direction == "left"
    aw = cell.net("A").width
    bw = cell.net("B").width
    yw = cell.net("Y").width
    # Any shift amount >= cap drives the (clipped) result to zero; those
    # select bits collapse into one zero-out mask instead of mux stages.
    cap = yw if left else aw
    length = yw if left else aw
    r = [em.bit(cell, "A", b) for b in range(length)]
    zero_out = "0"
    for k in range(bw):
        if (1 << k) >= cap:
            zero_out = em.assign(_or(zero_out, em.bit(cell, "B", k)))
            continue
        sel = em.bit(cell, "B", k)
        nsel = em.assign(_not(sel))
        shift = 1 << k
        staged: List[str] = []
        for b in range(length):
            src = b - shift if left else b + shift
            moved = r[src] if 0 <= src < length else "0"
            staged.append(em.assign(_or(_and(sel, moved), _and(nsel, r[b]))))
        r = staged
    nz = _not(zero_out)
    if zero_out != "0":
        nz = em.assign(nz)
    for b in range(yw):
        val = r[b] if b < length else "0"
        em.store(cell, "Y", b, _and(val, nz))


def _emit_mux(em: _SliceEmitter, cell: Mux) -> None:
    n = cell.n_inputs
    sw = cell.net("S").width
    sel = [em.bit(cell, "S", b) for b in range(sw)]
    if (1 << sw) > n:
        # S may reach [n, 2^sw); fold the reference engine's ``S % n``.
        # Since 2^sw < 2n, the modulo is a single conditional subtract.
        nconst = [(n >> b) & 1 for b in range(sw)]
        bor = "0"
        for b in range(sw):
            a = sel[b]
            if nconst[b]:
                bor = em.assign(_or(_not(a), _and(a, bor)))
            else:
                bor = em.assign(_and(_not(a), bor))
        ge = em.assign(_not(bor))  # lanes with S >= n
        nge = em.assign(_not(ge))
        sub = _ripple_sum(
            em, sel, [_not("LM" if nc else "0") for nc in nconst], "LM"
        )
        sel = [
            em.assign(_or(_and(ge, sub[b]), _and(nge, sel[b])))
            for b in range(sw)
        ]
    hot: List[str] = []
    for i in range(n):
        m = "LM"
        for b in range(sw):
            m = _and(m, sel[b] if (i >> b) & 1 else _not(sel[b]))
        hot.append(em.assign(m))
    for b in range(cell.net("Y").width):
        expr = "0"
        for i in range(n):
            expr = _or(expr, _and(hot[i], em.bit(cell, f"D{i}", b)))
        em.store(cell, "Y", b, expr)


def _make_divider(
    aoff: int, aw: int, boff: int, bw: int,
    yoff: int, yw: int, roff: int, rw: int,
) -> Callable:
    """Runtime restoring-division helper over bit planes.

    Data-dependent quotient logic does not unroll into straight-line
    masked ops the way the other cells do, so the divider stays a
    closure the generated step function calls via ``hlp[k]``. Division
    by zero matches the reference cell: Y saturates to all-ones, R
    passes A through (both clipped).
    """

    def divide(v: List[int], lm: int) -> None:
        a = [v[aoff + i] for i in range(aw)]
        b = [v[boff + i] for i in range(bw)]
        nz = 0
        for plane in b:
            nz |= plane
        bz = lm ^ nz  # lanes dividing by zero
        rem: List[int] = []
        quot = [0] * aw
        for i in range(aw - 1, -1, -1):
            rem = [a[i]] + rem
            if len(rem) > bw + 1:
                rem = rem[: bw + 1]  # provably-zero planes above 2B-1
            # rem >= B ? (no final borrow in rem - B). The borrow chain
            # must span every plane of B, not just the planes rem has
            # accumulated so far: early steps hold a short remainder,
            # and comparing against a truncated B reads "rem >= B" true
            # whenever B's high bits are set (e.g. 1 >= 13 via 13 & 1).
            bor = 0
            for k in range(max(len(rem), bw)):
                rk = rem[k] if k < len(rem) else 0
                bk = b[k] if k < bw else 0
                bor = ((lm ^ rk) & bk) | ((lm ^ (rk ^ bk)) & bor)
            ge = lm ^ bor
            nge = lm ^ ge
            # restoring subtract on the ge lanes only
            c = lm
            for k, rk in enumerate(rem):
                nbk = lm ^ (b[k] if k < bw else 0)
                t = rk ^ nbk
                diff = t ^ c
                c = (rk & nbk) | (c & t)
                rem[k] = (ge & diff) | (nge & rk)
            quot[i] = ge
        for k in range(yw):
            qk = quot[k] if k < aw else 0
            v[yoff + k] = bz | (qk & nz)
        for k in range(rw):
            rk = rem[k] if k < len(rem) else 0
            ak = a[k] if k < aw else 0
            v[roff + k] = (ak & bz) | (rk & nz)

    return divide


def _emit_cell(
    em: _SliceEmitter,
    cell: Cell,
    plane_offset: Dict[str, int],
    helpers: List[Callable],
) -> None:
    """Settle-phase lowering of one cell into ``em``."""
    if isinstance(cell, (Constant, PrimaryInput, PrimaryOutput, Register)):
        return  # constants/registers are reset- or commit-driven; POs inert
    if isinstance(cell, Adder):
        _emit_adder(em, cell, subtract=False)
        return
    if isinstance(cell, Subtractor):
        _emit_adder(em, cell, subtract=True)
        return
    if isinstance(cell, Multiplier):
        _emit_mul(em, cell, ["0"] * cell.net("Y").width)
        return
    if isinstance(cell, MacUnit):
        acc = [em.bit(cell, "C", b) for b in range(cell.net("Y").width)]
        _emit_mul(em, cell, acc)
        return
    if isinstance(cell, Divider):
        a, b = cell.net("A"), cell.net("B")
        y, r = cell.net("Y"), cell.net("R")
        helpers.append(
            _make_divider(
                plane_offset[a.name], a.width, plane_offset[b.name], b.width,
                plane_offset[y.name], y.width, plane_offset[r.name], r.width,
            )
        )
        em.emit(f"hlp[{len(helpers) - 1}](v, LM)")
        return
    if isinstance(cell, Comparator):
        _emit_comparator(em, cell)
        return
    if isinstance(cell, Shifter):
        _emit_shifter(em, cell)
        return
    if isinstance(cell, Mux):
        _emit_mux(em, cell)
        return
    if isinstance(cell, BitSelect):
        em.store(cell, "Y", 0, em.bit(cell, "A", cell.bit))
        return
    yw = cell.net("Y").width if "Y" in dict(cell.connections()) else 0
    if isinstance(cell, (AndGate, OrGate, XorGate, NandGate, NorGate, XnorGate)):
        fold = {
            AndGate: _and, NandGate: _and,
            OrGate: _or, NorGate: _or,
            XorGate: _xor, XnorGate: _xor,
        }[type(cell)]
        invert = isinstance(cell, (NandGate, NorGate, XnorGate))
        for b in range(yw):
            expr = fold(em.bit(cell, "A", b), em.bit(cell, "B", b))
            em.store(cell, "Y", b, _not(expr) if invert else expr)
        return
    if isinstance(cell, NotGate):
        for b in range(yw):
            em.store(cell, "Y", b, _not(em.bit(cell, "A", b)))
        return
    if isinstance(cell, Buffer):
        for b in range(yw):
            em.store(cell, "Y", b, em.bit(cell, "A", b))
        return
    if isinstance(cell, AndBank):
        en = em.bit(cell, "EN", 0)
        for b in range(yw):
            em.store(cell, "Y", b, _and(em.bit(cell, "D", b), en))
        return
    if isinstance(cell, OrBank):
        nen = em.assign(_not(em.bit(cell, "EN", 0)))
        for b in range(yw):
            em.store(cell, "Y", b, _or(em.bit(cell, "D", b), nen))
        return
    if isinstance(cell, (LatchBank, TransparentLatch)):
        out_port = cell.output_ports[0]
        en_port = "G" if isinstance(cell, TransparentLatch) else "EN"
        width = cell.net(out_port).width
        en = em.bit(cell, en_port, 0)
        nen = em.assign(_not(en))
        for b in range(width):
            expr = _or(
                _and(en, em.bit(cell, "D", b)),
                _and(nen, em.state_ref(cell, b)),
            )
            em.store(cell, out_port, b, expr)
        return
    raise CompilationError(
        f"bitslice engine has no lowering for cell kind {cell.kind!r} "
        f"(cell {cell.name!r})",
        unit=cell.name,
    )


def _emit_commit(em: _SliceEmitter, cell: Cell) -> None:
    """Commit-phase lowering (state captures) of one stateful cell."""
    if isinstance(cell, Register):
        width = cell.net("Q").width
        if cell.has_enable:
            en = em.bit(cell, "EN", 0)
            nen = em.assign(_not(en))
            for b in range(width):
                expr = _or(
                    _and(en, em.bit(cell, "D", b)),
                    _and(nen, em.state_ref(cell, b)),
                )
                em.emit(f"{em.state_ref(cell, b)} = {expr}")
        else:
            for b in range(width):
                em.emit(f"{em.state_ref(cell, b)} = {em.bit(cell, 'D', b)}")
        return
    # TransparentLatch / LatchBank (and nothing else reaches here: any
    # other stateful kind already failed settle-phase lowering).
    en_port = "G" if isinstance(cell, TransparentLatch) else "EN"
    width = cell.net(cell.output_ports[0]).width
    en = em.bit(cell, en_port, 0)
    nen = em.assign(_not(en))
    for b in range(width):
        expr = _or(
            _and(en, em.bit(cell, "D", b)),
            _and(nen, em.state_ref(cell, b)),
        )
        em.emit(f"{em.state_ref(cell, b)} = {expr}")


# ----------------------------------------------------------------------
# The compiled plane program
# ----------------------------------------------------------------------
@dataclass
class BitsliceProgram:
    """A design lowered to straight-line bit-plane kernels.

    Like :class:`~repro.sim.compile.CompiledProgram`, the program holds
    only names, offsets and generated code — no design objects — so one
    program serves all structurally identical designs and lives safely
    in the global :class:`BitsliceCache`.
    """

    design_hash: str
    plane_offset: Dict[str, int]
    net_width: Dict[str, int]
    state_offset: Dict[str, Tuple[int, int]]
    n_planes: int
    n_state: int
    #: (pi name, first plane offset, width) per primary input.
    pi_info: Tuple[Tuple[str, int, int], ...]
    step: Callable  # _bs_step(v, s, pi, LM, hlp)
    commit: Callable  # _bs_commit(v, s, LM)
    helpers: Tuple[Callable, ...]
    #: (first plane offset, width, value) per constant cell.
    const_init: Tuple[Tuple[int, int, int], ...]
    #: (state offset, Q plane offset, width, reset value) per register.
    reg_init: Tuple[Tuple[int, int, int, int], ...]
    #: (state offset, width, reset value) per in-block latch.
    latch_init: Tuple[Tuple[int, int, int], ...]
    step_source: str
    commit_source: str

    def _spread(self, planes: List[int], off: int, width: int, value: int,
                lm: int) -> None:
        for b in range(width):
            planes[off + b] = lm if (value >> b) & 1 else 0

    def reset_planes(self, lm: int) -> List[int]:
        v = [0] * self.n_planes
        for off, width, value in self.const_init:
            self._spread(v, off, width, value, lm)
        for _soff, qoff, width, value in self.reg_init:
            self._spread(v, qoff, width, value, lm)
        return v

    def reset_state(self, lm: int) -> List[int]:
        s = [0] * self.n_state
        for soff, _qoff, width, value in self.reg_init:
            self._spread(s, soff, width, value, lm)
        for soff, width, value in self.latch_init:
            self._spread(s, soff, width, value, lm)
        return s


def _assemble(name: str, params: str, lines: List[str]) -> Tuple[Callable, str]:
    body = ["    " + line for line in lines] or ["    pass"]
    source = "\n".join([f"def {name}{params}:"] + body)
    namespace: Dict[str, object] = {}
    try:
        exec(compile(source, f"<repro.sim.bitslice:{name}>", "exec"), namespace)
    except Exception as exc:
        raise CompilationError(
            f"generated bitslice code for unit {name!r} does not compile: {exc}",
            unit=name,
        ) from exc
    return namespace[name], source


def compile_bitslice(design: Design) -> BitsliceProgram:
    """Lower ``design`` into a :class:`BitsliceProgram`.

    Raises :class:`~repro.errors.CompilationError` for nets wider than
    :data:`MAX_SLICE_WIDTH` or cell kinds without a plane lowering;
    callers degrade to ``engine="compiled"``.
    """
    for net in design.nets:
        if net.width > MAX_SLICE_WIDTH:
            raise CompilationError(
                f"net {net.name!r} is {net.width} bits; the bitslice engine "
                f"supports widths <= {MAX_SLICE_WIDTH}"
            )
    plane_offset: Dict[str, int] = {}
    net_width: Dict[str, int] = {}
    off = 0
    for net in sorted(design.nets, key=lambda n: n.name):
        plane_offset[net.name] = off
        net_width[net.name] = net.width
        off += net.width
    n_planes = off

    order = combinational_order(design)
    stateful_comb = [c for c in order if getattr(c, "has_state", False)]
    registers = sorted(design.registers, key=lambda c: c.name)
    state_offset: Dict[str, Tuple[int, int]] = {}
    soff = 0
    for cell in registers + stateful_comb:
        out = cell.net("Q") if isinstance(cell, Register) else cell.net(
            cell.output_ports[0]
        )
        state_offset[cell.name] = (soff, out.width)
        soff += out.width
    n_state = soff

    try:
        # --- step: drive + settle --------------------------------------
        em = _SliceEmitter(plane_offset, state_offset)
        pi_info = []
        for pi in design.primary_inputs:
            net = pi.net("Y")
            base = plane_offset[net.name]
            pi_info.append((pi.name, base, net.width))
            em.emit(f"_p = pi[{pi.name!r}]")
            for b in range(net.width):
                em.emit(f"v[{base + b}] = _p[{b}]")
        helpers: List[Callable] = []
        for cell in order:
            _emit_cell(em, cell, plane_offset, helpers)
        step_fn, step_src = _assemble("_bs_step", "(v, s, pi, LM, hlp)", em.lines)

        # --- commit: state captures + register Q copies ----------------
        cem = _SliceEmitter(plane_offset, state_offset)
        for cell in registers + stateful_comb:
            _emit_commit(cem, cell)
        for reg in registers:
            q = reg.net("Q")
            base, reg_soff = plane_offset[q.name], state_offset[reg.name][0]
            for b in range(q.width):
                cem.emit(f"v[{base + b}] = s[{reg_soff + b}]")
        commit_fn, commit_src = _assemble("_bs_commit", "(v, s, LM)", cem.lines)
    except ReproError:
        raise
    except Exception as exc:
        raise CompilationError(
            f"bitslice lowering of design {design.name!r} failed: "
            f"{type(exc).__name__}: {exc}"
        ) from exc

    const_init = []
    for const in design.constants:
        net = const.net("Y")
        const_init.append(
            (plane_offset[net.name], net.width, net.clip(const.value))
        )
    reg_init = []
    for reg in registers:
        q = reg.net("Q")
        reg_init.append(
            (
                state_offset[reg.name][0],
                plane_offset[q.name],
                q.width,
                q.clip(reg.reset_value),
            )
        )
    latch_init = []
    for cell in stateful_comb:
        out = cell.net(cell.output_ports[0])
        latch_init.append(
            (
                state_offset[cell.name][0],
                out.width,
                out.clip(getattr(cell, "reset_value", 0)),
            )
        )
    return BitsliceProgram(
        design_hash=design_structure_hash(design),
        plane_offset=plane_offset,
        net_width=net_width,
        state_offset=state_offset,
        n_planes=n_planes,
        n_state=n_state,
        pi_info=tuple(pi_info),
        step=step_fn,
        commit=commit_fn,
        helpers=tuple(helpers),
        const_init=tuple(const_init),
        reg_init=tuple(reg_init),
        latch_init=tuple(latch_init),
        step_source=step_src,
        commit_source=commit_src,
    )


class BitsliceCache:
    """LRU cache of bitslice programs, keyed by design structure hash."""

    def __init__(self, maxsize: int = 128) -> None:
        self.maxsize = maxsize
        self._programs: "OrderedDict[str, BitsliceProgram]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, design: Design) -> BitsliceProgram:
        key = design_structure_hash(design)
        with self._lock:
            program = self._programs.get(key)
            if program is not None:
                self.hits += 1
                obs.counter("cache.hits").inc()
                self._programs.move_to_end(key)
                return program
            self.misses += 1
            obs.counter("cache.misses").inc()
        with obs.span("sim.bitslice.compile", "sim", design=design.name):
            program = compile_bitslice(design)
        with self._lock:
            self._programs[key] = program
            while len(self._programs) > self.maxsize:
                self._programs.popitem(last=False)
        return program

    def clear(self) -> None:
        with self._lock:
            self._programs.clear()
            self.hits = self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {
            "programs": len(self._programs),
            "hits": self.hits,
            "misses": self.misses,
        }

    def __len__(self) -> int:
        return len(self._programs)


_GLOBAL_CACHE = BitsliceCache()


def bitslice_cache() -> BitsliceCache:
    """The process-wide bitslice-program cache."""
    return _GLOBAL_CACHE


# ----------------------------------------------------------------------
# Probe expressions over planes
# ----------------------------------------------------------------------
def _eval_expr_planes(expr, env: Mapping[str, int], lm: int) -> int:
    """Evaluate a Boolean expression lane-parallel over bit planes."""
    from repro.boolean.expr import And, Const, Not, Or, Var

    if isinstance(expr, Const):
        return lm if expr.value else 0
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Not):
        return lm ^ _eval_expr_planes(expr.child, env, lm)
    if isinstance(expr, And):
        result = lm
        for arg in expr.args:
            result &= _eval_expr_planes(arg, env, lm)
        return result
    if isinstance(expr, Or):
        result = 0
        for arg in expr.args:
            result |= _eval_expr_planes(arg, env, lm)
        return result
    raise SimulationError(f"cannot bitslice-evaluate {type(expr).__name__}")


def _ripple_increment(counters: List[int], delta: int) -> None:
    """Add the 0/1-per-lane indicator ``delta`` into lane-packed counters."""
    for k in range(len(counters)):
        c = counters[k]
        counters[k] = c ^ delta
        delta &= c
        if not delta:
            return
    counters.append(delta)


# ----------------------------------------------------------------------
# The batch kernel (lane-packed 64-lane words)
# ----------------------------------------------------------------------
class _LazyBatchValues(Mapping):
    """``Mapping[Net, ndarray]`` view that unpacks planes on access."""

    __slots__ = ("_kernel",)

    def __init__(self, kernel: "BitsliceBatchKernel") -> None:
        self._kernel = kernel

    def __getitem__(self, net: Net) -> np.ndarray:
        return self._kernel.unpack_net(net)

    def __iter__(self):
        return iter(self._kernel._net_span)

    def __len__(self) -> int:
        return len(self._kernel._net_span)


class _Word:
    """One lane-packed word: up to :data:`WORD_LANES` lanes of the batch."""

    __slots__ = ("lane0", "lanes", "lm", "v", "s", "pi")

    def __init__(self, lane0: int, lanes: int) -> None:
        self.lane0 = lane0
        self.lanes = lanes
        self.lm = (1 << lanes) - 1
        self.v: List[int] = []
        self.s: List[int] = []
        self.pi: Dict[str, List[int]] = {}


class _FastMonitorState:
    """Per-word toggle accumulators of one attached BatchToggleMonitor.

    ``watch_idx`` selects the watched planes out of ``word.v``; per word,
    ``prev`` holds the previous values of those planes, ``acc`` their
    per-lane toggle counts since attachment and ``base`` the per-net
    counts the monitor already held. ``cycles`` is the monitor's cycle
    count at attachment.
    """

    __slots__ = (
        "monitor", "cycles", "seeded", "watch_idx", "net_slices", "prev",
        "acc", "base",
    )

    def __init__(self, monitor) -> None:
        self.monitor = monitor
        self.cycles = monitor.cycles
        self.seeded = bool(monitor._previous)
        self.watch_idx: Optional[np.ndarray] = None
        self.net_slices: List[Tuple[int, int]] = []
        self.prev: List[np.ndarray] = []
        self.acc: List[np.ndarray] = []
        self.base: List[np.ndarray] = []


class _ProbeState:
    """Per-word true-count accumulators of one attached BatchProbe."""

    __slots__ = ("probe", "cycles", "counters")

    def __init__(self, probe) -> None:
        self.probe = probe
        self.cycles = probe.cycles
        self.counters: List[List[int]] = []


class BitsliceBatchKernel:
    """Lane-packed execution core of ``BatchSimulator(engine="bitslice")``.

    ``batch_size`` replications are split into words of
    :data:`WORD_LANES` lanes; each word owns its own plane arrays and
    lane mask, so a ragged final word (``batch_size % WORD_LANES != 0``)
    masks its phantom lanes to zero everywhere — they can never toggle.
    The enclosing :class:`~repro.sim.batch.BatchSimulator` owns the
    cycle counter, the run loop, input checks and checkpoint objects;
    this class owns only packed state and monitor accumulators.
    """

    def __init__(
        self,
        design: Design,
        batch_size: int,
        program: Optional[BitsliceProgram] = None,
    ) -> None:
        self.design = design
        self.batch_size = batch_size
        if program is None:
            program = bitslice_cache().get(design)
        self.program = program
        self._net_span: Dict[Net, Tuple[int, int]] = {
            design.net(name): (off, program.net_width[name])
            for name, off in program.plane_offset.items()
        }
        self._state_cells: List[Tuple[Cell, int, int]] = [
            (design.cell(name), off, width)
            for name, (off, width) in program.state_offset.items()
        ]
        self.words = [
            _Word(lane0, min(WORD_LANES, batch_size - lane0))
            for lane0 in range(0, batch_size, WORD_LANES)
        ]
        self.values_view = _LazyBatchValues(self)
        # Primary-input columns are transposed in one numpy pass per
        # cycle: one row per input, then per word 64 value-bit planes of
        # WORD_LANES lanes, each one uint64.
        n_pis = len(program.pi_info)
        self._pi_matrix = np.zeros((n_pis, batch_size), dtype="<u8")
        self._pi_word_bufs = [
            np.zeros((n_pis, 64, WORD_LANES // 8), dtype=np.uint8)
            for _ in self.words
        ]
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        for word in self.words:
            word.v = self.program.reset_planes(word.lm)
            word.s = self.program.reset_state(word.lm)
        self._fast: List[_FastMonitorState] = []
        self._probes: List[_ProbeState] = []
        self._generic: List = []
        self.observed = 0

    # ------------------------------------------------------------------
    def step(self, pi_values: Mapping[str, np.ndarray]) -> None:
        """Drive and settle one cycle; every input column has
        ``batch_size`` lanes (the enclosing simulator checks)."""
        self._pack_inputs(pi_values)
        program = self.program
        helpers = program.helpers
        for word in self.words:
            program.step(word.v, word.s, word.pi, word.lm, helpers)

    def _pack_inputs(self, pi_values: Mapping[str, np.ndarray]) -> None:
        """Transpose all PI columns into per-word planes in one pass.

        The columns are stacked into one little-endian uint64 matrix,
        unpacked to bits once, and re-packed along the lane axis per
        word; padding the result out to 8 bytes lets the plane ints
        come straight out of a uint64 view. Value bits at or above each
        input's width are dropped and phantom lanes of a ragged word
        stay zero, as with :func:`pack_lanes`.
        """
        pi_info = self.program.pi_info
        if not pi_info:
            return
        matrix = self._pi_matrix
        for i, (name, _base, _width) in enumerate(pi_info):
            matrix[i] = pi_values[name]
        # Transpose bytes before unpacking (8x less data than the bit
        # matrix) and keep the lane axis last so packbits runs along
        # contiguous memory — packing a non-final axis is ~10x slower.
        byte_planes = np.ascontiguousarray(
            matrix.view(np.uint8)
            .reshape(len(pi_info), self.batch_size, 8)
            .transpose(0, 2, 1)
        )
        bits = np.unpackbits(byte_planes, axis=1, bitorder="little")
        for word, buf in zip(self.words, self._pi_word_bufs):
            packed = np.packbits(
                bits[:, :, word.lane0 : word.lane0 + word.lanes],
                axis=2,
                bitorder="little",
            )  # (n_pis, 64, ceil(lanes/8))
            buf[:, :, : packed.shape[2]] = packed
            planes = buf.view("<u8")[:, :, 0].tolist()
            pi = word.pi
            for i, (name, _base, width) in enumerate(pi_info):
                pi[name] = planes[i][:width]

    def commit(self) -> None:
        program = self.program
        for word in self.words:
            program.commit(word.v, word.s, word.lm)

    # ------------------------------------------------------------------
    # Monitor attachment and observation
    # ------------------------------------------------------------------
    def attach_monitors(self, monitors: Sequence) -> None:
        """Classify monitors and build lane-packed accumulators.

        Monitors must already carry their ``begin()`` state, fresh or
        restored from a checkpoint. The packed counters and
        previous-value planes are seeded from the monitors' own
        statistics, so a resumed run counts exactly as if it had never
        stopped — including across a mid-word checkpoint boundary.
        """
        from repro.sim.batch import BatchProbe, BatchToggleMonitor

        obs.counter("lanes.packed").inc(self.batch_size)
        self._fast = []
        self._probes = []
        self._generic = []
        self.observed = 0
        for monitor in monitors:
            if type(monitor) is BatchToggleMonitor:
                self._fast.append(self._attach_fast(monitor))
            elif type(monitor) is BatchProbe:
                self._probes.append(self._attach_probe(monitor))
            else:
                self._generic.append(monitor)

    def _attach_fast(self, monitor) -> _FastMonitorState:
        """Numpy-array accumulators: ``observe`` costs one uint64 gather,
        XOR and unpackbits per word and cycle."""
        state = _FastMonitorState(monitor)
        indices: List[int] = []
        for net in monitor._watched:
            off, width = self._net_span[net]
            state.net_slices.append((len(indices), len(indices) + width))
            indices.extend(range(off, off + width))
        state.watch_idx = np.array(indices, dtype=np.intp)
        for word in self.words:
            lanes = slice(word.lane0, word.lane0 + word.lanes)
            prev = np.zeros(len(indices), dtype=np.uint64)
            base = np.zeros((len(monitor._watched), word.lanes), dtype=np.uint64)
            for j, net in enumerate(monitor._watched):
                base[j] = monitor.toggles[net][lanes]
                previous = monitor._previous.get(net)
                if previous is not None:
                    start, end = state.net_slices[j]
                    prev[start:end] = pack_lanes(previous[lanes], end - start)
            state.prev.append(prev)
            state.acc.append(
                np.zeros((len(indices), word.lanes), dtype=np.uint64)
            )
            state.base.append(base)
        return state

    def _attach_probe(self, probe) -> _ProbeState:
        state = _ProbeState(probe)
        for word in self.words:
            counts = probe.true_counts[word.lane0 : word.lane0 + word.lanes]
            peak = int(counts.max())
            state.counters.append(
                pack_lanes(counts, peak.bit_length()) if peak else []
            )
        return state

    def observe(self, cycle: int) -> None:
        """Accumulate one settled cycle into all attached monitors."""
        for state in self._fast:
            for word, prev, acc in zip(self.words, state.prev, state.acc):
                vals = np.array(word.v, dtype=np.uint64)[state.watch_idx]
                if state.seeded:
                    bits = np.unpackbits(
                        (vals ^ prev).astype("<u8").view(np.uint8)
                        .reshape(-1, 8),
                        axis=1,
                        bitorder="little",
                    )
                    acc += bits[:, : word.lanes]
                prev[:] = vals
            # The first observation only seeds the previous values
            # (as BatchToggleMonitor: no toggle on cycle one).
            state.seeded = True
        for state in self._probes:
            resolved = state.probe._resolved
            for word, counters in zip(self.words, state.counters):
                v = word.v
                env = {}
                for name, (net, bit) in resolved.items():
                    off, width = self._net_span[net]
                    env[name] = v[off + bit] if bit < width else 0
                result = _eval_expr_planes(state.probe.expr, env, word.lm)
                if result:
                    _ripple_increment(counters, result)
        for monitor in self._generic:
            monitor.observe(cycle, self.values_view)
        self.observed += 1

    def sync_monitors(self) -> None:
        """Publish packed accumulators into the live monitor objects."""
        n = self.batch_size
        for state in self._fast:
            monitor = state.monitor
            for j, net in enumerate(monitor._watched):
                start, end = state.net_slices[j]
                counts = np.zeros(n, dtype=np.uint64)
                for word, acc, base in zip(self.words, state.acc, state.base):
                    counts[word.lane0 : word.lane0 + word.lanes] = base[j] + acc[
                        start:end
                    ].sum(axis=0, dtype=np.uint64)
                monitor.toggles[net] = counts
                if state.seeded:
                    previous = np.zeros(n, dtype=np.uint64)
                    for word, prev in zip(self.words, state.prev):
                        previous[word.lane0 : word.lane0 + word.lanes] = (
                            unpack_lanes(
                                [int(p) for p in prev[start:end]], word.lanes
                            )
                        )
                    monitor._previous[net] = previous
            monitor.cycles = state.cycles + self.observed
        for state in self._probes:
            counts = np.zeros(n, dtype=np.int64)
            for word, counters in zip(self.words, state.counters):
                if counters:
                    counts[word.lane0 : word.lane0 + word.lanes] = (
                        unpack_lanes(counters, word.lanes).astype(np.int64)
                    )
            state.probe.true_counts = counts
            state.probe.cycles = state.cycles + self.observed

    # ------------------------------------------------------------------
    # Checkpoint interop (value/state materialisation)
    # ------------------------------------------------------------------
    def unpack_net(self, net: Net) -> np.ndarray:
        off, width = self._net_span[net]
        out = np.zeros(self.batch_size, dtype=np.uint64)
        for word in self.words:
            out[word.lane0 : word.lane0 + word.lanes] = unpack_lanes(
                word.v[off : off + width], word.lanes
            )
        return out

    def unpack_values(self) -> Dict[Net, np.ndarray]:
        return {net: self.unpack_net(net) for net in self._net_span}

    def unpack_state(self) -> Dict[Cell, np.ndarray]:
        out: Dict[Cell, np.ndarray] = {}
        for cell, off, width in self._state_cells:
            arr = np.zeros(self.batch_size, dtype=np.uint64)
            for word in self.words:
                arr[word.lane0 : word.lane0 + word.lanes] = unpack_lanes(
                    word.s[off : off + width], word.lanes
                )
            out[cell] = arr
        return out

    def load_values(self, values: Mapping[Net, np.ndarray]) -> None:
        for net, arr in values.items():
            off, width = self._net_span[net]
            for word in self.words:
                word.v[off : off + width] = pack_lanes(
                    arr[word.lane0 : word.lane0 + word.lanes], width
                )

    def load_state(self, state: Mapping[Cell, np.ndarray]) -> None:
        span = {cell: (off, width) for cell, off, width in self._state_cells}
        for cell, arr in state.items():
            off, width = span[cell]
            for word in self.words:
                word.s[off : off + width] = pack_lanes(
                    arr[word.lane0 : word.lane0 + word.lanes], width
                )
