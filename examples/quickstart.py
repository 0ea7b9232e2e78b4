#!/usr/bin/env python3
"""Quickstart: operand isolation on the paper's Figure 1 circuit.

Walks the complete flow of the library on the exact example the paper
uses to explain the technique:

1. build the two-adder / three-mux / two-register circuit of Figure 1;
2. derive the activation functions and check they match the paper's
   Section 3 result (``AS_a0 = G0``, ``AS_a1 = S2·G1 + S̄0·S1·G0``);
3. run the automated isolation algorithm;
4. measure power before/after, verify observable equivalence, and dump
   the isolated netlist as Verilog.

Run:  python examples/quickstart.py
"""

from repro.boolean import BddManager, and_, not_, or_, var
from repro.core import derive_activation_functions
from repro.designs import paper_example
from repro.netlist.verilog import to_verilog
from repro.opt import IsolationConfig, isolate_design
from repro.sim import ControlStream, random_stimulus
from repro.verify import assert_observable_equivalence


def main() -> None:
    design = paper_example(width=8)
    print(f"Design: {design.name} — {design.stats()}\n")

    # --- Step 1: activation functions (paper Section 3) ----------------
    analysis = derive_activation_functions(design)
    f_a0 = analysis.of_module(design.cell("a0"))
    f_a1 = analysis.of_module(design.cell("a1"))
    print(f"AS_a0 = {f_a0}")
    print(f"AS_a1 = {f_a1}")

    manager = BddManager()
    expected_a1 = or_(
        and_(var("S2"), var("G1")),
        and_(not_(var("S0")), var("S1"), var("G0")),
    )
    assert manager.equivalent(f_a0, var("G0")), "AS_a0 should equal G0"
    assert manager.equivalent(f_a1, expected_a1), "AS_a1 mismatch vs paper"
    print("…both match the paper's formulas exactly.\n")

    # --- Step 2: the automated algorithm --------------------------------
    # Registers load rarely (the design idles a lot): Pr(G) = 0.15 with
    # long bursts, the regime the paper's introduction describes.
    def stimulus():
        return random_stimulus(
            design,
            seed=42,
            control_probability=0.15,
            control_toggle_rate=0.08,
        )

    result = isolate_design(design, stimulus, IsolationConfig(style="and", cycles=3000))
    print(result.summary())

    # --- Step 3: correctness --------------------------------------------
    assert_observable_equivalence(design, result.design, stimulus(), 3000)
    print("\nObservable equivalence verified over 3000 cycles.")

    # --- Step 4: export ---------------------------------------------------
    verilog = to_verilog(result.design)
    print(f"\nIsolated netlist ({len(verilog.splitlines())} lines of Verilog); excerpt:")
    for line in verilog.splitlines()[:18]:
        print("  " + line)
    print("  ...")


if __name__ == "__main__":
    main()
