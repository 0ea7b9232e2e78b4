"""Property-based tests of the central correctness invariants.

Over seeded random datapaths and random control statistics:

1. **Safety** — applying the full Algorithm-1 flow with any isolation
   style never changes observable behaviour (register loads, outputs).
2. **Activation soundness (dynamic)** — whenever a register loads a value
   that structurally depends on a module's output within the same
   combinational block, the module's derived activation function holds in
   that cycle (so the isolation banks were transparent).
3. **Transform sanity** — the transformed design still validates, and
   never gains primary inputs/outputs or architectural registers.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import derive_activation_functions
from repro.designs import random_datapath
from repro.netlist.validate import validate_design
from repro.opt import IsolationConfig, isolate_design
from repro.sim.engine import Simulator
from repro.sim.probes import ProbeSet
from repro.sim.stimulus import random_stimulus
from repro.verify import check_observable_equivalence

STYLES = ["and", "or", "latch"]


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 400),
    style=st.sampled_from(STYLES),
    p=st.sampled_from([0.15, 0.5, 0.85]),
)
def test_isolation_preserves_observable_behaviour(seed, style, p):
    design = random_datapath(seed=seed, layers=2, modules_per_layer=2)

    def stimulus():
        return random_stimulus(design, seed=seed + 1, control_probability=p)

    result = isolate_design(
        design, stimulus, IsolationConfig(style=style, cycles=250)
    )
    validate_design(result.design)
    report = check_observable_equivalence(design, result.design, stimulus(), 600)
    assert report.equivalent, report.mismatches[:3]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 400))
def test_transform_preserves_interface(seed):
    design = random_datapath(seed=seed, layers=2, modules_per_layer=3)

    def stimulus():
        return random_stimulus(design, seed=seed, control_probability=0.3)

    result = isolate_design(design, stimulus, IsolationConfig(cycles=200))
    assert {c.name for c in result.design.primary_inputs} == {
        c.name for c in design.primary_inputs
    }
    assert {c.name for c in result.design.primary_outputs} == {
        c.name for c in design.primary_outputs
    }
    assert {c.name for c in result.design.registers} == {
        c.name for c in design.registers
    }


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 400), p=st.sampled_from([0.2, 0.5, 0.8]))
def test_activation_functions_are_dynamically_sound(seed, p):
    """If a module's output value reaches a loading register this cycle,
    its activation function must evaluate true this cycle.

    Checked by perturbation: simulate normally and with the module's
    output XOR-flipped; any divergence in committed register state at a
    cycle where f_c = 0 would be a soundness bug.
    """
    design = random_datapath(seed=seed, layers=2, modules_per_layer=2)
    analysis = derive_activation_functions(design)
    modules = [m for m in design.datapath_modules
               if not analysis.of_module(m).is_true]
    if not modules:
        return
    module = modules[0]
    f_c = analysis.of_module(module)

    probes = ProbeSet({"f": f_c})
    stim = random_stimulus(design, seed=seed, control_probability=p)
    sim = Simulator(design)
    probes.begin(design)

    twin = Simulator(design.copy())
    twin_module = twin.design.cell(module.name)
    out_net = module.net("Y")
    twin_out = twin_module.net("Y")

    for cycle in range(300):
        values = stim.values(cycle)
        settled = sim.step(values)
        twin_settled = twin.step(values)
        active = f_c.evaluate(
            {
                name: _bit(design, settled, name)
                for name in f_c.support()
            }
        )
        # Corrupt the twin's module output after settling, re-evaluate its
        # downstream cone, then compare committed register state.
        twin.values[twin_out] = twin_out.clip(twin_settled[twin_out] ^ twin_out.mask)
        _resettle_downstream(twin, twin_module)
        sim.commit()
        twin.commit()
        if not active:
            for reg in design.registers:
                assert (
                    sim.state[reg] == twin.state[twin.design.cell(reg.name)]
                ), f"cycle {cycle}: corrupting idle module {module.name} leaked into {reg.name}"
        else:
            # Re-synchronise the twin with the golden state.
            for reg in design.registers:
                twin.state[twin.design.cell(reg.name)] = sim.state[reg]
                twin.values[twin.design.cell(reg.name).net("Q")] = sim.state[reg]
            for cell, state in sim.state.items():
                if not cell.is_sequential:
                    twin.state[twin.design.cell(cell.name)] = state


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 400),
    style=st.sampled_from(STYLES),
    p=st.sampled_from([0.2, 0.5, 0.8]),
)
# Seeds whose look-ahead derivation yields a never-active (f = 0) module.
@example(seed=138, style="and", p=0.5)
@example(seed=292, style="latch", p=0.2)
def test_lookahead_isolation_preserves_outputs(seed, style, p):
    """With registered controls, look-ahead derivation finds real
    prediction opportunities; outputs must still match cycle-for-cycle
    (registers may legitimately differ — free-running pipeline stages
    can hold blocked values)."""
    design = random_datapath(
        seed=seed, layers=2, modules_per_layer=2, registered_controls=True
    )

    def stimulus():
        return random_stimulus(design, seed=seed + 3, control_probability=p)

    result = isolate_design(
        design,
        stimulus,
        IsolationConfig(style=style, cycles=250, lookahead_depth=1),
    )
    validate_design(result.design)
    report = check_observable_equivalence(
        design, result.design, stimulus(), 600, compare_registers=False
    )
    assert report.equivalent, report.mismatches[:3]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 400))
def test_lookahead_only_strengthens(seed):
    """Look-ahead activation functions always imply the baseline's."""
    from repro.boolean.bdd import BddManager
    from repro.core.lookahead import derive_with_lookahead

    design = random_datapath(
        seed=seed, layers=2, modules_per_layer=2, registered_controls=True
    )
    baseline = derive_activation_functions(design)
    ahead = derive_with_lookahead(design, depth=2)
    manager = BddManager()
    for module in design.datapath_modules:
        assert manager.implies(
            ahead.of_module(module), baseline.of_module(module)
        ), module.name


def _bit(design, settled, name):
    from repro.netlist.bitref import parse_bitref

    net, bit = parse_bitref(design, name)
    return (settled[net] >> bit) & 1


def _resettle_downstream(sim, module):
    """Re-evaluate combinational cells downstream of ``module`` only."""
    from repro.netlist.traversal import transitive_fanout_cells

    downstream = transitive_fanout_cells(module, stop_at_sequential=True)
    for cell in sim._order:
        if cell not in downstream:
            continue
        inputs = {
            port: sim.values[net]
            for port, net in cell.connections()
            if cell.port_spec(port).direction.value == "in"
        }
        if getattr(cell, "has_state", False):
            out_port = cell.output_ports[0]
            sim.values[cell.net(out_port)] = cell.output_value(
                sim.state[cell], inputs
            )
        else:
            for port, value in cell.evaluate(inputs).items():
                sim.values[cell.net(port)] = value
