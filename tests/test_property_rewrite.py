"""Property-based safety net for the rewriting pass.

Over seeded random netlists deliberately rich in rewrite targets
(constant-coefficient multipliers, reassociable add/mul chains, muxes
over and under arithmetic):

1. **Safety** — running the rewrite pass, alone or composed with
   isolation, never changes observable behaviour (outputs and committed
   register state), and the transformed design still validates with the
   original interface intact.
2. **Non-vacuity** — enumeration always proposes at least the seeded
   strength reduction, so the safety property is exercised on designs
   where rewriting genuinely has work to do.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opt import IsolationConfig
from repro.netlist.builder import DesignBuilder
from repro.netlist.validate import validate_design
from repro.opt import optimize
from repro.rewrite import find_rewrites
from repro.sim.stimulus import random_stimulus
from repro.verify import check_observable_equivalence

WIDTH = 8


def rewrite_rich_datapath(seed: int):
    """A random design whose shapes hit every rewrite rule family.

    Every operator output is pinned to ``WIDTH`` bits so any two pool
    nets are width-compatible operands; every net is terminated in a
    register or output so the design validates.
    """
    rng = random.Random(seed)
    bld = DesignBuilder(f"rwprop_{seed}")
    a, b, c = (bld.input(n, WIDTH) for n in ("A", "B", "C"))
    pool = [a, b, c]
    sel = bld.input("S", 1)
    en = bld.input("EN", 1)

    def pick():
        return rng.choice(pool)

    def add(x, y):
        return bld.add(x, y, width=WIDTH)

    def mul(x, y):
        return bld.mul(x, y, width=WIDTH)

    # Guaranteed shapes: a sparse constant multiplier (strength-reduction
    # target), a chain reading every data input (reassociation target),
    # and a shared-operand mux (hoist target, and the only guaranteed
    # reader of S).
    pool.append(mul(pick(), bld.const(3, WIDTH)))
    pool.append(add(a, add(b, c)))
    shared = pick()
    pool.append(bld.mux(sel, add(shared, pick()), add(shared, pick())))

    for _ in range(rng.randint(3, 6)):
        shape = rng.randrange(4)
        if shape == 0:  # constant multiplier, random coefficient
            pool.append(mul(pick(), bld.const(rng.randrange(1, 1 << WIDTH), WIDTH)))
        elif shape == 1:  # reassociable chain of adds or muls
            op = add if rng.random() < 0.7 else mul
            t = pick()
            for _ in range(rng.randint(2, 3)):
                t = op(t, pick())
            pool.append(t)
        elif shape == 2:  # mux over two same-kind ops sharing an operand
            s = pick()
            pool.append(bld.mux(sel, add(s, pick()), add(s, pick())))
        else:  # operator fed by a mux
            pool.append(mul(bld.mux(sel, pick(), pick()), pick()))

    # Terminate every generated net: registers (isolation targets) for
    # some, direct outputs for the rest.
    for i, net in enumerate(pool[3:]):
        if i % 2 == 0:
            bld.output(bld.register(net, enable=en, name=f"r{i}"), f"Q{i}")
        else:
            bld.output(net, f"Y{i}")
    return bld.build()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 500))
def test_enumeration_is_not_vacuous(seed):
    design = rewrite_rich_datapath(seed)
    plans = find_rewrites(design)
    assert any(p.rule == "strength_reduction" for p in plans)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 500))
def test_accepted_rewrites_preserve_observable_behaviour(seed):
    design = rewrite_rich_datapath(seed)

    def stimulus():
        return random_stimulus(design, seed=seed + 1)

    result = optimize(
        design,
        stimulus,
        passes=("rewrite",),
        config=IsolationConfig(cycles=150, engine="compiled"),
    )
    validate_design(result.design)
    report = check_observable_equivalence(design, result.design, stimulus(), 400)
    assert report.equivalent, report.mismatches[:3]
    # Interface is untouched regardless of what was rewritten.
    for kind in ("primary_inputs", "primary_outputs", "registers"):
        assert {c.name for c in getattr(result.design, kind)} == {
            c.name for c in getattr(design, kind)
        }


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 500), p=st.sampled_from([0.2, 0.5, 0.8]))
def test_rewrite_isolate_composition_preserves_behaviour(seed, p):
    design = rewrite_rich_datapath(seed)

    def stimulus():
        return random_stimulus(design, seed=seed + 1, control_probability=p)

    result = optimize(
        design,
        stimulus,
        passes=("rewrite", "isolation"),
        config=IsolationConfig(cycles=150, engine="compiled"),
    )
    validate_design(result.design)
    report = check_observable_equivalence(design, result.design, stimulus(), 400)
    assert report.equivalent, report.mismatches[:3]
