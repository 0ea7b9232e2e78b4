"""Structural fault injection: proving the execution layer fails loudly.

A transformation pipeline is only trustworthy if *broken inputs cannot
produce quiet wrong answers*. This module injects realistic structural
damage into a design — the kinds of corruption a buggy netlist transform
or a malformed input file would cause — and asserts that every fault is
caught by one of the defence layers:

* ``validation`` — :func:`repro.netlist.validate.validation_problems`
  reports an error-severity :class:`~repro.diagnostics.Diagnostic`;
* ``typed-error`` — construction/simulation raises a typed
  :class:`~repro.errors.ReproError` subclass (never a bare
  ``IndexError``/``KeyError``);
* ``equivalence`` — observable co-simulation against the unfaulted
  design diverges (:func:`repro.verify.equivalence.check_observable_equivalence`).

A fault no layer flags is either **masked** (co-simulation over every
stimulus tried produced identical observable behaviour — the damage is
benign, and saying so is itself a detection of harmlessness) or
**silent** — observable wrongness with no alarm, the one outcome the
campaign exists to rule out. :func:`run_campaign` over every shipped
design must report zero silent faults; ``tests/test_faults.py`` pins
that invariant.

Fault kinds (``FAULT_KINDS``):

``disconnect-pin``
    Detach one cell pin (input or output) — models a dropped connection.
``corrupt-width``
    Widen a net that a connected port constrains — models width
    bookkeeping bugs.
``comb-loop``
    Rewire a combinational input to the cell's own output net — models
    an ill-formed rewiring transform.
``stuck-at-0`` / ``stuck-at-1``
    Rewire every reader of a one-bit control net to a constant — the
    classic control-fault model.
``activation-flip``
    Flip one literal of a derived activation function before isolation —
    models a bug in the activation derivation itself (flow-level fault).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.boolean.expr import Expr, Not, Var, TRUE
from repro.boolean.simplify import simplify
from repro.diagnostics import Diagnostic
from repro.errors import FaultInjectionError, ReproError
from repro.netlist.cells import Cell, PortDir
from repro.netlist.design import Design
from repro.netlist.ports import Constant, PrimaryInput, PrimaryOutput
from repro.netlist.validate import validation_problems
from repro.sim.stimulus import random_stimulus
from repro.verify.equivalence import check_observable_equivalence

#: Every structural/flow fault kind the injector knows.
FAULT_KINDS = (
    "disconnect-pin",
    "corrupt-width",
    "comb-loop",
    "stuck-at-0",
    "stuck-at-1",
    "activation-flip",
)

#: How a fault was caught.
DETECTORS = ("validation", "typed-error", "equivalence")

#: (seed, control one-probability) pairs the campaign co-simulates with.
#: Both control polarities are exercised so stuck-at faults on rarely
#: toggling enables still get a chance to matter.
DEFAULT_TRIALS: Tuple[Tuple[int, float], ...] = (
    (0, 0.5),
    (1, 0.15),
    (2, 0.85),
)


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault, addressed symbolically (names, not objects).

    ``cell``/``port`` locate pin faults, ``net`` locates net faults, and
    ``value`` carries the stuck-at polarity or the flipped-literal index
    of an ``activation-flip``.
    """

    kind: str
    cell: Optional[str] = None
    port: Optional[str] = None
    net: Optional[str] = None
    value: Optional[int] = None

    def describe(self) -> str:
        where = ".".join(p for p in (self.cell, self.port) if p)
        if self.net:
            where = f"{where} net {self.net!r}" if where else f"net {self.net!r}"
        if self.value is not None:
            where = f"{where} [{self.value}]"
        return f"{self.kind} @ {where}" if where else self.kind


@dataclass
class FaultOutcome:
    """What happened when one fault was injected and hunted."""

    spec: FaultSpec
    detected_by: Optional[str] = None  # one of DETECTORS, or None
    masked: bool = False
    detail: str = ""

    @property
    def silent(self) -> bool:
        """True for the forbidden outcome: wrong or unknown, no alarm."""
        return self.detected_by is None and not self.masked

    def __str__(self) -> str:
        if self.detected_by:
            status = f"detected by {self.detected_by}"
        elif self.masked:
            status = "masked"
        else:
            status = "SILENT"
        line = f"{self.spec.describe()}: {status}"
        return f"{line} — {self.detail}" if self.detail else line


@dataclass
class CampaignReport:
    """Aggregate result of one fault campaign over one design."""

    design: str
    outcomes: List[FaultOutcome] = field(default_factory=list)

    @property
    def detected(self) -> List[FaultOutcome]:
        return [o for o in self.outcomes if o.detected_by is not None]

    @property
    def masked(self) -> List[FaultOutcome]:
        return [o for o in self.outcomes if o.masked]

    @property
    def silent(self) -> List[FaultOutcome]:
        return [o for o in self.outcomes if o.silent]

    @property
    def detection_rate(self) -> float:
        """Detected fraction of the faults that could matter (non-masked)."""
        considered = len(self.outcomes) - len(self.masked)
        if considered == 0:
            return 1.0
        return len(self.detected) / considered

    def summary(self) -> str:
        lines = [
            f"fault campaign on {self.design!r}: {len(self.outcomes)} faults, "
            f"{len(self.detected)} detected, {len(self.masked)} masked, "
            f"{len(self.silent)} SILENT"
        ]
        lines.extend(f"  {o}" for o in self.outcomes)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Fault enumeration
# ----------------------------------------------------------------------
def _connected_pins(design: Design) -> Iterable[Tuple[Cell, str]]:
    for cell in sorted(design.cells, key=lambda c: c.name):
        if isinstance(cell, PrimaryInput):
            continue
        for spec in cell.port_specs():
            if cell.is_connected(spec.name):
                yield cell, spec.name


def _width_corruptible(design: Design) -> Iterable[Tuple[Cell, str]]:
    for cell, port in _connected_pins(design):
        required = cell.port_width(port)
        if required is None:
            continue
        net = cell.net(port)
        # Skip pins whose requirement is derived from this very net via
        # another port of the same cell (the requirement would track the
        # corruption and nothing would mismatch).
        if any(
            other != port and cell.is_connected(other) and cell.net(other) is net
            for other in (s.name for s in cell.port_specs())
        ):
            continue
        yield cell, port


def _loop_candidates(design: Design) -> Iterable[Tuple[Cell, str]]:
    for cell in sorted(design.combinational_cells, key=lambda c: c.name):
        if getattr(cell, "has_state", False):
            continue
        if not cell.output_ports:
            continue
        out_net = cell.net(cell.output_ports[0])
        for port in cell.data_input_ports:
            if not cell.is_connected(port):
                continue
            if cell.net(port) is out_net:
                continue
            required = cell.port_width(port)
            if required is None or required == out_net.width:
                yield cell, port
                break  # one loop per cell is plenty


def _control_nets(design: Design) -> Iterable[str]:
    for net in sorted(design.nets, key=lambda n: n.name):
        if net.width != 1 or net.driver is None:
            continue
        if isinstance(net.driver.cell, Constant):
            continue  # stuck-at a constant is a no-op by construction
        if any(pin.is_control for pin in net.readers):
            yield net.name


def _activation_modules(design: Design) -> Iterable[Tuple[str, int]]:
    # Imported here: repro.core imports repro.verify for its own checks.
    from repro.core.activation import derive_activation_functions

    analysis = derive_activation_functions(design)
    for module in sorted(analysis.module_functions, key=lambda c: c.name):
        expr = analysis.module_functions[module]
        n_literals = _count_vars(expr)
        if n_literals:
            yield module.name, 0  # flip the first literal occurrence


def _count_vars(expr: Expr) -> int:
    if isinstance(expr, Var):
        return 1
    return sum(_count_vars(child) for child in getattr(expr, "args", ()) or ()) + (
        _count_vars(expr.child) if isinstance(expr, Not) else 0
    )


def _flip_nth_var(expr: Expr, index: int) -> Tuple[Expr, int]:
    """Rewrite ``expr`` with its ``index``-th Var occurrence negated.

    Returns (rewritten, occurrences seen). Traversal is pre-order, so
    the same index always hits the same literal.
    """
    from repro.boolean.expr import and_, not_, or_
    from repro.boolean.expr import And, Or

    counter = {"seen": 0}

    def walk(node: Expr) -> Expr:
        if isinstance(node, Var):
            here = counter["seen"]
            counter["seen"] += 1
            return not_(node) if here == index else node
        if isinstance(node, Not):
            return not_(walk(node.child))
        if isinstance(node, And):
            return and_(*(walk(a) for a in node.args))
        if isinstance(node, Or):
            return or_(*(walk(a) for a in node.args))
        return node

    return walk(expr), counter["seen"]


def enumerate_faults(design: Design, per_kind: int = 2) -> List[FaultSpec]:
    """A deterministic fault list covering every kind present in ``design``.

    At most ``per_kind`` faults of each kind, chosen by sorted name so
    repeated runs enumerate identically.
    """
    specs: List[FaultSpec] = []

    pins = list(_connected_pins(design))
    # Prefer disconnecting datapath-module pins (the interesting case),
    # then anything else; mix input and output pins.
    pins.sort(
        key=lambda cp: (not cp[0].is_datapath_module, cp[0].name, cp[1])
    )
    for cell, port in pins[:per_kind]:
        specs.append(FaultSpec("disconnect-pin", cell=cell.name, port=port))

    for cell, port in list(_width_corruptible(design))[:per_kind]:
        specs.append(
            FaultSpec(
                "corrupt-width", cell=cell.name, port=port, net=cell.net(port).name
            )
        )

    for cell, port in list(_loop_candidates(design))[:per_kind]:
        specs.append(FaultSpec("comb-loop", cell=cell.name, port=port))

    for name in list(_control_nets(design))[:per_kind]:
        specs.append(FaultSpec("stuck-at-0", net=name, value=0))
        specs.append(FaultSpec("stuck-at-1", net=name, value=1))

    for module_name, literal in list(_activation_modules(design))[:per_kind]:
        specs.append(FaultSpec("activation-flip", cell=module_name, value=literal))

    return specs


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
def inject_fault(design: Design, spec: FaultSpec) -> Design:
    """Return a **copy** of ``design`` with ``spec`` applied.

    The original design is never touched. Raises
    :class:`FaultInjectionError` when the spec does not apply (unknown
    kind, missing cell/net) — injector misuse, distinct from the typed
    errors the faulted design itself may raise later.
    """
    faulted = design.copy(name=f"{design.name}~{spec.kind}")
    try:
        if spec.kind == "disconnect-pin":
            faulted.disconnect(faulted.cell(spec.cell), spec.port)
        elif spec.kind == "corrupt-width":
            faulted.net(spec.net).width += 1
        elif spec.kind == "comb-loop":
            cell = faulted.cell(spec.cell)
            out_net = cell.net(cell.output_ports[0])
            faulted.rewire_input(cell, spec.port, out_net)
        elif spec.kind in ("stuck-at-0", "stuck-at-1"):
            _inject_stuck_at(faulted, spec.net, spec.value or 0)
        elif spec.kind == "activation-flip":
            _inject_activation_flip(faulted, spec.cell, spec.value or 0)
        else:
            raise FaultInjectionError(f"unknown fault kind {spec.kind!r}")
    except FaultInjectionError:
        raise
    except ReproError:
        # The faulted structure was rejected while being built (e.g. a
        # width check refused the rewire) — the caller treats this as a
        # typed-error detection.
        raise
    return faulted


def _inject_stuck_at(design: Design, net_name: str, value: int) -> None:
    net = design.net(net_name)
    const = Constant(design.fresh_cell_name("fault_const"), value)
    design.add_cell(const)
    stuck = design.add_net(design.fresh_net_name("fault_stuck"), width=net.width)
    design.connect(const, "Y", stuck)
    for pin in list(net.readers):
        design.rewire_input(pin.cell, pin.port, stuck)


def _inject_activation_flip(design: Design, module_name: str, literal: int) -> None:
    from repro.core.activation import derive_activation_functions
    from repro.core.isolate import isolate_candidate

    module = design.cell(module_name)
    analysis = derive_activation_functions(design)
    activation = analysis.module_functions.get(module)
    if activation is None:
        raise FaultInjectionError(
            f"cell {module_name!r} has no derived activation function"
        )
    flipped, seen = _flip_nth_var(activation, literal)
    if literal >= seen:
        raise FaultInjectionError(
            f"activation of {module_name!r} has only {seen} literal occurrences"
        )
    # isolate_candidate itself rejects a constant-TRUE activation with a
    # typed IsolationError — that rejection is a detection.
    isolate_candidate(design, module, simplify(flipped), style="and")


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def evaluate_fault(
    design: Design,
    spec: FaultSpec,
    cycles: int = 300,
    trials: Tuple[Tuple[int, float], ...] = DEFAULT_TRIALS,
    engine: str = "python",
) -> FaultOutcome:
    """Inject one fault and run it through every defence layer in order.

    ``engine`` selects the co-simulation backend for the equivalence
    layer, so campaigns can qualify the compiled engine with the same
    detected/masked/silent taxonomy (``bitslice`` runs the compiled
    kernel here: co-simulation is single-stream).
    """
    try:
        faulted = inject_fault(design, spec)
    except FaultInjectionError:
        raise  # injector misuse is a campaign bug, not a fault outcome
    except ReproError as exc:
        return FaultOutcome(
            spec, detected_by="typed-error", detail=f"rejected at injection: {exc}"
        )
    except Exception as exc:  # noqa: BLE001 — untyped escape IS the finding
        return FaultOutcome(
            spec, detail=f"untyped {type(exc).__name__} at injection: {exc}"
        )

    try:
        problems = validation_problems(faulted, allow_dangling=True)
    except ReproError as exc:
        return FaultOutcome(spec, detected_by="typed-error", detail=str(exc))
    except Exception as exc:  # noqa: BLE001
        return FaultOutcome(
            spec, detail=f"untyped {type(exc).__name__} during validation: {exc}"
        )
    errors = [p for p in problems if p.severity == "error"]
    if errors:
        return FaultOutcome(
            spec, detected_by="validation", detail=errors[0].format()
        )

    total = 0
    for seed, control_probability in trials:
        try:
            stimulus = random_stimulus(
                design, seed=seed, control_probability=control_probability
            )
            report = check_observable_equivalence(
                design, faulted, stimulus, cycles, engine=engine
            )
        except ReproError as exc:
            return FaultOutcome(spec, detected_by="typed-error", detail=str(exc))
        except Exception as exc:  # noqa: BLE001
            return FaultOutcome(
                spec, detail=f"untyped {type(exc).__name__} during co-sim: {exc}"
            )
        if not report.equivalent:
            return FaultOutcome(
                spec, detected_by="equivalence", detail=str(report.mismatches[0])
            )
        total += cycles
    return FaultOutcome(
        spec,
        masked=True,
        detail=(
            f"observably equivalent over {total} cycles across "
            f"{len(trials)} stimuli"
        ),
    )


def run_campaign(
    design: Design,
    faults: Optional[Iterable[FaultSpec]] = None,
    per_kind: int = 2,
    cycles: int = 300,
    trials: Tuple[Tuple[int, float], ...] = DEFAULT_TRIALS,
    engine: str = "python",
) -> CampaignReport:
    """Inject every fault (enumerated unless given) and classify outcomes.

    The acceptance bar for the execution layer is
    ``report.silent == []`` with a non-trivial number of outcomes —
    every fault either trips an alarm or is demonstrated harmless.
    """
    specs = list(faults) if faults is not None else enumerate_faults(design, per_kind)
    report = CampaignReport(design=design.name)
    for spec in specs:
        report.outcomes.append(
            evaluate_fault(design, spec, cycles, trials, engine=engine)
        )
    return report


def campaign_diagnostics(report: CampaignReport) -> List[Diagnostic]:
    """Render silent faults as :class:`Diagnostic` records (CLI/API use)."""
    return [
        Diagnostic(
            code="silent-fault",
            message=f"{report.design}: {outcome}",
            cell=outcome.spec.cell,
            net=outcome.spec.net,
        )
        for outcome in report.silent
    ]
