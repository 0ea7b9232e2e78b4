"""Benchmark designs.

* :func:`paper_example` — the exact Figure 1/2 circuit of the paper (two
  adders, three multiplexors, two enabled registers), used to validate
  the activation-function derivation against the paper's own formulas.
* :func:`design1` — analogue of the paper's *design1*: a datapath whose
  first-stage activation signal is controllable from a primary input, so
  activation statistics can be swept from the testbench (Section 6).
* :func:`design2` — analogue of *design2*: a datapath block whose control
  is generated internally by a small FSM; activation statistics are not
  externally controllable.
* :func:`fir_datapath` — FIR filter with a bypass mode (reused-IP
  scenario from the introduction).
* :func:`alu_control_dominated` — control-dominated design where the
  arithmetic units are exercised in only a few FSM states.
* :func:`shared_bus_datapath` — bus-style datapath with multi-fanout
  registers, the structure on which Kapadia-style enable gating loses to
  RTL operand isolation.
* :func:`random_datapath` — seeded random DAG datapaths for property-
  based testing.

:data:`BUILTINS` names every shipped design that builds without
arguments; :func:`builtin_design` resolves a name from it for the CLI's
``--builtin``, serve jobs and sweep grids alike.
"""

from repro.designs.paper_example import paper_example
from repro.designs.design1 import design1
from repro.designs.design2 import design2
from repro.designs.fir import fir_datapath
from repro.designs.alu_ctrl import alu_control_dominated
from repro.designs.shared_bus import shared_bus_datapath
from repro.designs.random_dp import random_datapath
from repro.designs.pipeline import lookahead_pipeline
from repro.designs.corr_chain import correlated_chain
from repro.designs.cordic import cordic_pipeline
from repro.designs.soc import soc_datapath
from repro.errors import ReproError
from repro.netlist.design import Design

__all__ = [
    "lookahead_pipeline",
    "correlated_chain",
    "cordic_pipeline",
    "soc_datapath",
    "paper_example",
    "design1",
    "design2",
    "fir_datapath",
    "alu_control_dominated",
    "shared_bus_datapath",
    "random_datapath",
    "BUILTINS",
    "builtin_design",
]

#: Every builtin design name and the generator it calls: each shipped
#: generator under its own name, most also under a short alias.
#: ``random_datapath`` needs a seed, so it is not a builtin.
BUILTINS = {
    "paper_example": paper_example,
    "fig1": paper_example,
    "design1": design1,
    "design2": design2,
    "fir_datapath": fir_datapath,
    "fir": fir_datapath,
    "alu_control_dominated": alu_control_dominated,
    "alu": alu_control_dominated,
    "shared_bus_datapath": shared_bus_datapath,
    "bus": shared_bus_datapath,
    "lookahead_pipeline": lookahead_pipeline,
    "pipeline": lookahead_pipeline,
    "correlated_chain": correlated_chain,
    "cordic_pipeline": cordic_pipeline,
    "cordic": cordic_pipeline,
    "soc_datapath": soc_datapath,
    "soc": soc_datapath,
}


def builtin_design(name: str) -> Design:
    """Build the builtin design called ``name`` (a key of :data:`BUILTINS`).

    Any other name raises :class:`~repro.errors.ReproError` listing the
    accepted names.
    """
    try:
        generator = BUILTINS[name]
    except (KeyError, TypeError):
        raise ReproError(
            f"unknown builtin design {name!r}; choose from {sorted(BUILTINS)}"
        ) from None
    return generator()
