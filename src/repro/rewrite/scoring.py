"""Power scoring of candidate rewrites against the shared estimation run.

The rewriter never re-simulates the design to evaluate a candidate.
Instead a :class:`ValueTrace` monitor rides along on the iteration's
single estimation run (the same run that feeds every other pass) and
records the per-cycle values of every candidate's boundary nets. Scoring
a plan then:

1. builds the replacement logic into a throwaway scratch design, with
   stand-in primary inputs for the boundary nets and as many dummy
   readers on the replacement output as the real output has (fanout
   parity for the output-energy term);
2. replays the traced boundary values through the scratch design on the
   compiled engine (a :class:`~repro.sim.stimulus.SequenceStimulus`
   under a :class:`~repro.sim.monitor.ToggleMonitor`), giving the
   *exact* toggle counts every new net would have shown in the measured
   run (the rewrite is value-preserving, so boundary values are
   unchanged by applying it);
3. prices the removed cells against the measured run's monitor and the
   replacement cells against the replay's, with the shared
   :class:`~repro.power.estimator.PowerEstimator`;
4. folds the mW delta and the library-area delta into the same
   ``h(c) = ω_p·rP − ω_a·rA`` merit every pass competes under.

Because the scratch build and the real apply run the *same* plan.build
recipe, the scored structure is the applied structure by construction —
and a rewrite that reproduces the existing structure scores an exact
0.0 mW, which the pass filters out, so rewriting always terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

from repro.netlist.design import Design
from repro.netlist.nets import Net
from repro.netlist.ports import PrimaryInput, PrimaryOutput
from repro.netlist.splice import GraftBuilder
from repro.power.estimator import PowerEstimator
from repro.rewrite.rules import RewritePlan
from repro.sim.engine import make_simulator
from repro.sim.monitor import Monitor, ToggleMonitor
from repro.sim.stimulus import SequenceStimulus

#: Predicted gains at or below this are treated as "no gain": they are
#: either exact no-ops (rebuilding the same structure) or within noise,
#: and applying them would let the greedy loop spin without converging.
MIN_GAIN_MW = 1e-9


class ValueTrace(Monitor):
    """Records per-cycle values of selected nets during an estimation run.

    Observes the same post-warmup window as the power monitor, so toggle
    counts recomputed from the trace agree exactly with
    :class:`~repro.sim.monitor.ToggleMonitor` over the same nets.
    """

    def __init__(self, nets: Iterable[Net]) -> None:
        self._nets: List[Net] = list(dict.fromkeys(nets))
        self.values: Dict[Net, List[int]] = {}

    def begin(self, design: Design) -> None:
        self.values = {net: [] for net in self._nets}

    def observe(self, cycle: int, values: Mapping[Net, int]) -> None:
        for net in self._nets:
            self.values[net].append(values[net])

    @property
    def cycles(self) -> int:
        if not self.values:
            return 0
        return len(next(iter(self.values.values())))


@dataclass
class RewriteScore:
    """Scored candidate rewrite; ``h`` competes under the shared budget."""

    plan: RewritePlan
    before_mw: float
    after_mw: float
    net_mw: float
    area_delta: float
    cells_added: int
    relative_power: float
    relative_area: float
    h: float

    @property
    def target(self) -> str:
        return self.plan.target

    @property
    def rule(self) -> str:
        return self.plan.rule


def score_rewrite(
    plan: RewritePlan,
    trace: ValueTrace,
    monitor,
    total_power_mw: float,
    total_area: float,
    weights,
    library,
    estimator: Optional[PowerEstimator] = None,
) -> RewriteScore:
    """Score one plan from the shared run; see the module docstring."""
    estimator = estimator or PowerEstimator(library)

    # 1. Scratch build: stand-in PIs for boundary nets, fanout parity POs.
    scratch = Design(f"rwscore_{plan.target}")
    stand_in: Dict[Net, Net] = {}
    traced: Dict[str, List[int]] = {}
    for i, net in enumerate(plan.sources):
        if net in stand_in:
            continue
        pi = PrimaryInput(f"src{i}")
        scratch.add_cell(pi)
        stand_in[net] = scratch.add_net(f"src{i}_n", net.width)
        scratch.connect(pi, "Y", stand_in[net])
        traced[pi.name] = trace.values[net]
    graft = GraftBuilder(scratch)
    new_out = plan.build(graft, [stand_in[net] for net in plan.sources])
    for j in range(len(plan.out_net.readers)):
        po = PrimaryOutput(f"ro{j}")
        scratch.add_cell(po)
        scratch.connect(po, "A", new_out)

    # 2./3. Replay the trace; price old and new cones with one estimator.
    stimulus = SequenceStimulus(
        [dict(zip(traced, row)) for row in zip(*traced.values())]
    )
    replay = ToggleMonitor()
    make_simulator(scratch, "compiled").run(
        stimulus, trace.cycles, monitors=[replay]
    )
    before_pj = sum(estimator.cell_energy(cell, monitor) for cell in plan.removed)
    after_pj = sum(estimator.cell_energy(cell, replay) for cell in graft.cells)
    before_mw = library.power_mw(before_pj)
    after_mw = library.power_mw(after_pj)
    net_mw = before_mw - after_mw

    # 4. The shared cost merit (negative area delta raises h: a rewrite
    # that shrinks the design is rewarded, the mirror of the isolation
    # overhead penalty).
    before_area = sum(library.area(cell) for cell in plan.removed)
    after_area = sum(library.area(cell) for cell in graft.cells)
    area_delta = after_area - before_area
    relative_power = net_mw / total_power_mw if total_power_mw else 0.0
    relative_area = area_delta / total_area if total_area else 0.0
    h = weights.omega_p * relative_power - weights.omega_a * relative_area
    return RewriteScore(
        plan=plan,
        before_mw=before_mw,
        after_mw=after_mw,
        net_mw=net_mw,
        area_delta=area_delta,
        cells_added=len(graft.cells),
        relative_power=relative_power,
        relative_area=relative_area,
        h=h,
    )
