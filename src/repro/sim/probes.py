"""Boolean expression probes: measured signal and joint probabilities.

The savings model needs probabilities of *products* of activation,
multiplexing and register-enable signals — e.g. ``Pr(AS_a1 · AS_a0 ·
g_{a1,A}^{a0})`` in Eq. (3) — and the paper is explicit that these must be
measured because the signals are correlated. An :class:`ExpressionProbe`
evaluates one expression over the settled control-net values each cycle
and reports the fraction of cycles it held.

:class:`ProbeSet` batches many probes into one monitor so a single
simulation run yields every probability the models ask for. On a value
block it evaluates each probe once, over all the block's cycles, with
:func:`evaluate_batch` — the vectorized evaluator the batch engine's
:class:`~repro.sim.batch.BatchProbe` applies across replications.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.boolean.expr import And, Const, Expr, Not, Or, Var
from repro.errors import SimulationError
from repro.netlist.design import Design
from repro.netlist.nets import Net
from repro.sim.monitor import Monitor


def evaluate_batch(expr: Expr, env: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """Evaluate ``expr`` element-wise over length-``n`` boolean arrays.

    ``env`` maps every variable of the expression's support to one bool
    array; element ``i`` of the result is ``expr`` under element ``i``
    of every variable (a cycle of a value block, or a lane of a batch).
    """
    if isinstance(expr, Const):
        return np.full(n, expr.value, dtype=bool)
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Not):
        return ~evaluate_batch(expr.child, env, n)
    if isinstance(expr, And):
        result = np.ones(n, dtype=bool)
        for arg in expr.args:
            result &= evaluate_batch(arg, env, n)
        return result
    if isinstance(expr, Or):
        result = np.zeros(n, dtype=bool)
        for arg in expr.args:
            result |= evaluate_batch(arg, env, n)
        return result
    raise SimulationError(f"cannot batch-evaluate {type(expr).__name__}")


class ExpressionProbe:
    """One named Boolean expression whose truth fraction is measured."""

    def __init__(self, name: str, expr: Expr) -> None:
        self.name = name
        self.expr = expr
        self.true_cycles = 0
        self.cycles = 0
        self.transitions = 0
        self._previous: Optional[bool] = None

    def reset(self) -> None:
        self.true_cycles = 0
        self.cycles = 0
        self.transitions = 0
        self._previous = None

    def sample(self, env: Mapping[str, int]) -> bool:
        value = self.expr.evaluate(env)
        self.true_cycles += int(value)
        if self._previous is not None and value != self._previous:
            self.transitions += 1
        self._previous = value
        self.cycles += 1
        return value

    def sample_block(self, values: np.ndarray) -> None:
        """Account consecutive cycles' values at once (a bool array).

        The first value is compared with the last one of the previous
        block, so block boundaries count transitions like :meth:`sample`.
        """
        first, last = bool(values[0]), bool(values[-1])
        self.true_cycles += int(np.count_nonzero(values))
        self.transitions += int(np.count_nonzero(values[1:] != values[:-1]))
        if self._previous is not None and first != self._previous:
            self.transitions += 1
        self._previous = last
        self.cycles += len(values)

    @property
    def probability(self) -> float:
        """Measured Pr[expr = 1] over the observed cycles."""
        return self.true_cycles / self.cycles if self.cycles else 0.0

    @property
    def toggle_rate(self) -> float:
        """Transitions of the expression's value per cycle."""
        return self.transitions / (self.cycles - 1) if self.cycles > 1 else 0.0

    @property
    def probability_stderr(self) -> float:
        """Binomial standard error of :attr:`probability`.

        Treats cycles as independent samples — optimistic for bursty
        control streams, but a usable convergence indicator: simulate
        until this is small relative to the probabilities the savings
        model consumes.
        """
        if self.cycles == 0:
            return 0.0
        p = self.probability
        return (p * (1.0 - p) / self.cycles) ** 0.5


class ProbeSet(Monitor):
    """A monitor evaluating a dictionary of probes each cycle.

    All probes share one sampled environment containing every one-bit net
    referenced by any probe, so adding probes is cheap. A value block is
    sampled into one bool array per variable and every probe evaluated
    once over it.
    """

    def __init__(self, probes: Optional[Dict[str, Expr]] = None) -> None:
        self._probes: Dict[str, ExpressionProbe] = {}
        if probes:
            for name, expr in probes.items():
                self.add(name, expr)
        self._nets: Dict[str, Net] = {}

    def add(self, name: str, expr: Expr) -> ExpressionProbe:
        if name in self._probes:
            raise SimulationError(f"duplicate probe name {name!r}")
        probe = ExpressionProbe(name, expr)
        self._probes[name] = probe
        return probe

    # ------------------------------------------------------------------
    def begin(self, design: Design) -> None:
        from repro.netlist.bitref import resolve_variables

        support = set()
        for probe in self._probes.values():
            probe.reset()
            support |= probe.expr.support()
        self._resolved = resolve_variables(design, support)

    def observe(self, cycle: int, values: Mapping[Net, int]) -> None:
        from repro.netlist.bitref import sample_env

        env = sample_env(self._resolved, values)
        for probe in self._probes.values():
            probe.sample(env)

    def observe_block(
        self, first_cycle: int, rows: np.ndarray, columns: Mapping[Net, int]
    ) -> None:
        env = {
            name: ((rows[:, columns[net]] >> np.uint64(bit)) & np.uint64(1)).astype(
                bool
            )
            for name, (net, bit) in self._resolved.items()
        }
        for probe in self._probes.values():
            probe.sample_block(evaluate_batch(probe.expr, env, len(rows)))

    # ------------------------------------------------------------------
    def probability(self, name: str) -> float:
        return self._probes[name].probability

    def probabilities(self) -> Dict[str, float]:
        return {name: probe.probability for name, probe in self._probes.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._probes

    def __getitem__(self, name: str) -> ExpressionProbe:
        return self._probes[name]
