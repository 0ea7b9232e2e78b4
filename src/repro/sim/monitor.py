"""Switching-activity monitors.

Monitors see the settled net values of every observed cycle and
accumulate the statistics that drive the paper's power models:

* :class:`ToggleMonitor` — per-net bit-toggle counts; ``toggle_rate`` is
  the paper's ``Tr``: *average number of (bit) toggles per clock cycle*.
* :class:`ConditionalToggleMonitor` — toggle counts split by the truth
  value of a Boolean condition, used to validate the Eq. (2) scaling
  ``Tr' = Tr / Pr(AS)`` against directly measured conditional rates.

An engine delivers the values in one of two forms. The python reference
and checked engines call :meth:`Monitor.observe` once per cycle with a
``Mapping[Net, int]``. The compiled engine buffers up to 256 consecutive
cycles into one ``(cycles × nets)`` uint64 block and hands it to
:meth:`Monitor.observe_block`, whose default replays the rows through
``observe`` — so a monitor that implements only ``observe`` works on
every engine. :class:`ToggleMonitor`,
:class:`~repro.sim.probes.ProbeSet` and
:class:`~repro.rewrite.scoring.ValueTrace` observe blocks natively, as
array operations, carrying their last row across block boundaries.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional

import numpy as np

from repro.boolean.expr import Expr
from repro.netlist.design import Design
from repro.netlist.nets import Net


def popcount(value: int) -> int:
    """Number of set bits (Python 3.9-compatible)."""
    return bin(value).count("1")


def popcount_u64(array: np.ndarray) -> np.ndarray:
    """Element-wise population count of a uint64 array (SWAR)."""
    x = array.copy()
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


class NetValues(Mapping):
    """Read-only ``Mapping[Net, int]`` view over a dense value list.

    ``index`` maps each net to its slot in ``values``; the view reads
    through, so the list may change underneath it between cycles.
    """

    __slots__ = ("_values", "_index")

    def __init__(self, values: List[int], index: Mapping[Net, int]) -> None:
        self._values = values
        self._index = index

    def __getitem__(self, net: Net) -> int:
        return self._values[self._index[net]]

    def __iter__(self) -> Iterator[Net]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


class Monitor:
    """Base class; subclasses override ``observe`` and optionally the rest."""

    def begin(self, design: Design) -> None:
        """Called before the first observed cycle."""

    def observe(self, cycle: int, values: Mapping[Net, int]) -> None:
        """Called once per cycle with the settled net values."""
        raise NotImplementedError

    def observe_block(
        self, first_cycle: int, rows: np.ndarray, columns: Mapping[Net, int]
    ) -> None:
        """Called with consecutive observed cycles as one value block.

        ``rows[i, columns[net]]`` is ``net``'s settled value at cycle
        ``first_cycle + i``. The engine reuses ``rows`` for its next
        block, so copy whatever outlives the call. The default replays
        each row through :meth:`observe`.
        """
        for offset, row in enumerate(rows.tolist()):
            self.observe(first_cycle + offset, NetValues(row, columns))

    def finish(self) -> None:
        """Called after the last observed cycle."""


class ToggleMonitor(Monitor):
    """Counts bit toggles per net between consecutive observed cycles.

    Parameters
    ----------
    nets:
        Restrict to these nets (default: every net in the design). A net
        listed more than once is counted once.
    """

    #: Between ``begin`` and ``finish`` of a blocked run: the engine's
    #: net-to-column map and the last row seen, carried across blocks.
    _columns: Optional[Mapping[Net, int]] = None
    _last_row: Optional[np.ndarray] = None

    def __init__(self, nets: Optional[Iterable[Net]] = None) -> None:
        self._restrict = list(dict.fromkeys(nets)) if nets is not None else None
        self._previous: Dict[Net, int] = {}
        self.toggles: Dict[Net, int] = {}
        self.ones: Dict[Net, int] = {}
        self.cycles = 0

    def begin(self, design: Design) -> None:
        watched = self._restrict if self._restrict is not None else design.nets
        self._watched = list(watched)
        self.toggles = {net: 0 for net in self._watched}
        self.ones = {net: 0 for net in self._watched}
        self._previous = {}
        self.cycles = 0
        self._columns = self._last_row = None

    def observe(self, cycle: int, values: Mapping[Net, int]) -> None:
        for net in self._watched:
            value = values[net]
            prev = self._previous.get(net)
            if prev is not None:
                self.toggles[net] += popcount(prev ^ value)
            self.ones[net] += popcount(value)
            self._previous[net] = value
        self.cycles += 1

    def observe_block(
        self, first_cycle: int, rows: np.ndarray, columns: Mapping[Net, int]
    ) -> None:
        # Whole-block popcounts over every column, folded into the
        # per-net dicts by finish(): numpy per-call overhead would
        # dominate a per-net or per-cycle reduction.
        if self._columns is None:
            self._columns = columns
            self._block_toggles = np.zeros(rows.shape[1], dtype=np.uint64)
            self._block_ones = np.zeros(rows.shape[1], dtype=np.uint64)
        self._block_ones += popcount_u64(rows).sum(axis=0, dtype=np.uint64)
        if self._last_row is not None:
            self._block_toggles += popcount_u64(self._last_row ^ rows[0])
        if len(rows) > 1:
            self._block_toggles += popcount_u64(rows[1:] ^ rows[:-1]).sum(
                axis=0, dtype=np.uint64
            )
        self._last_row = rows[-1].copy()
        self.cycles += len(rows)

    def finish(self) -> None:
        if self._columns is None:
            return
        for net in self._watched:
            column = self._columns[net]
            self.toggles[net] += int(self._block_toggles[column])
            self.ones[net] += int(self._block_ones[column])
        self._columns = self._last_row = None

    # ------------------------------------------------------------------
    def toggle_rate(self, net: Net) -> float:
        """Average bit toggles per cycle on ``net`` (the paper's Tr)."""
        if self.cycles <= 1:
            return 0.0
        return self.toggles[net] / (self.cycles - 1)

    def toggle_rates(self) -> Dict[Net, float]:
        return {net: self.toggle_rate(net) for net in self.toggles}

    def per_bit_toggle_rate(self, net: Net) -> float:
        """Toggle rate normalised by bus width."""
        return self.toggle_rate(net) / net.width

    def one_probability(self, net: Net) -> float:
        """Average fraction of set bits on ``net`` (signal probability).

        For one-bit control nets this is the paper's static probability;
        the clock-gating model uses it to scale standing clock energy.
        """
        if self.cycles == 0:
            return 0.0
        return self.ones[net] / (self.cycles * net.width)

    def toggle_rate_stderr(self, net: Net) -> float:
        """Binomial standard error of :meth:`toggle_rate`.

        Each bit-cycle is treated as an independent Bernoulli toggle
        opportunity; correlated data streams converge slower than this
        suggests, so treat it as a lower bound on the uncertainty.
        """
        if self.cycles <= 1:
            return 0.0
        samples = (self.cycles - 1) * net.width
        p = min(1.0, self.toggle_rate(net) / net.width)
        per_bit_stderr = (p * (1.0 - p) / samples) ** 0.5
        return per_bit_stderr * net.width


class ConditionalToggleMonitor(Monitor):
    """Toggle counts for one net, split by a Boolean condition.

    The condition is an expression over one-bit net names, evaluated on
    the same settled values. A toggle between cycle ``k-1`` and ``k`` is
    attributed according to the condition at cycle ``k`` (the cycle in
    which the new value appears — the convention under which Eq. (2)'s
    scaling is exact for an ideally-isolated module).
    """

    def __init__(self, net: Net, condition: Expr) -> None:
        self.net = net
        self.condition = condition
        self._support = sorted(condition.support())
        self._previous: Optional[int] = None
        self.toggles_true = 0
        self.toggles_false = 0
        self.cycles_true = 0
        self.cycles_false = 0

    def begin(self, design: Design) -> None:
        from repro.netlist.bitref import resolve_variables

        self._resolved = resolve_variables(design, self._support)
        self._previous = None
        self.toggles_true = self.toggles_false = 0
        self.cycles_true = self.cycles_false = 0

    def observe(self, cycle: int, values: Mapping[Net, int]) -> None:
        from repro.netlist.bitref import sample_env

        env = sample_env(self._resolved, values)
        condition = self.condition.evaluate(env)
        value = values[self.net]
        if self._previous is not None:
            delta = popcount(self._previous ^ value)
            if condition:
                self.toggles_true += delta
            else:
                self.toggles_false += delta
        if condition:
            self.cycles_true += 1
        else:
            self.cycles_false += 1
        self._previous = value

    # ------------------------------------------------------------------
    @property
    def rate_when_true(self) -> float:
        return self.toggles_true / self.cycles_true if self.cycles_true else 0.0

    @property
    def rate_when_false(self) -> float:
        return self.toggles_false / self.cycles_false if self.cycles_false else 0.0
