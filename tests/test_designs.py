"""Tests for the benchmark design generators."""

import argparse

import pytest

from repro import cli
from repro.boolean.bdd import BddManager
from repro.boolean.expr import and_, not_, var
from repro.core import derive_activation_functions
from repro.designs import BUILTINS, random_datapath
from repro.errors import ServeError, SweepError
from repro.netlist import textio
from repro.netlist.validate import validate_design
from repro.serve import JobService
from repro.sweep.spec import _resolve_design
from repro.sim.engine import Simulator
from repro.sim.stimulus import SequenceStimulus, random_stimulus


class TestBuiltins:
    """One name table serves the CLI, serve jobs and sweep grids."""

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_name_resolves_to_one_design_everywhere(self, name, capsys):
        expected = textio.dumps(BUILTINS[name]())
        args = argparse.Namespace(builtin=name, netlist=None)
        assert textio.dumps(cli._load_design(args)) == expected
        service = JobService(start=False)
        try:
            job = service.submit("validate", builtin=name)
        finally:
            service.shutdown(drain=False)
        assert job.design_text == expected
        assert _resolve_design(name, 0)[1] == expected
        assert cli.main(["validate", "--builtin", name]) == 0

    def test_table_keeps_every_generator_and_alias(self):
        generators = [
            "paper_example", "design1", "design2", "fir_datapath",
            "alu_control_dominated", "shared_bus_datapath",
            "lookahead_pipeline", "correlated_chain", "cordic_pipeline",
            "soc_datapath",
        ]
        aliases = {
            "fig1": "paper_example", "fir": "fir_datapath",
            "alu": "alu_control_dominated", "bus": "shared_bus_datapath",
            "pipeline": "lookahead_pipeline", "cordic": "cordic_pipeline",
            "soc": "soc_datapath",
        }
        table = {name: maker.__name__ for name, maker in BUILTINS.items()}
        assert table == {**{name: name for name in generators}, **aliases}

    def test_unknown_name_keeps_each_callers_error_type(self, capsys):
        with pytest.raises(SweepError, match=r"designs\[0\]: unknown builtin"):
            _resolve_design("warpcore", 0)
        service = JobService(start=False)
        try:
            with pytest.raises(ServeError, match="unknown builtin"):
                service.submit("validate", builtin="warpcore")
            with pytest.raises(ServeError, match="unknown builtin"):
                service.submit("validate", builtin=["fig1"])  # JSON list
        finally:
            service.shutdown(drain=False)
        assert cli.main(["validate", "--builtin", "warpcore"]) == 2
        err = capsys.readouterr().err
        assert all(repr(name) in err for name in BUILTINS)


class TestPaperExample:
    def test_structure(self, fig1):
        stats = fig1.stats()
        assert stats["modules"] == 2
        assert stats["registers"] == 2

    def test_width_parameter(self):
        from repro.designs import paper_example

        wide = paper_example(width=16)
        assert wide.net("A").width == 16


class TestDesign1:
    def test_en_is_the_stage1_activation(self, d1):
        analysis = derive_activation_functions(d1)
        manager = BddManager()
        for name in ("mul0", "mul1"):
            assert manager.equivalent(analysis.of_module(d1.cell(name)), var("EN"))

    def test_stage2_activations(self, d1):
        analysis = derive_activation_functions(d1)
        manager = BddManager()
        assert manager.equivalent(
            analysis.of_module(d1.cell("add0")), and_(not_(var("S0")), var("GA"))
        )
        assert manager.equivalent(
            analysis.of_module(d1.cell("sub0")), and_(var("S0"), var("GA"))
        )

    def test_utility_path_always_active(self, d1):
        """The XOR tag path has no enables: it is a power floor."""
        sim = Simulator(d1)
        vec = {pi.name: 0 for pi in d1.primary_inputs}
        vec.update({"X0": 3, "X2": 5})
        settled = sim.step(vec)
        assert settled[d1.net("tag_xor")] == 6


class TestDesign2:
    def test_phase_counter_cycles(self, d2):
        sim = Simulator(d2)
        phases = []
        for cycle in range(8):
            settled = sim.step({"X": 0, "Y": 0, "Z": 0, "SH": 0})
            phases.append(settled[d2.net("cnt_q")])
            sim.commit()
        assert phases == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_each_module_active_one_phase(self, d2):
        analysis = derive_activation_functions(d2)
        manager = BddManager()
        for module, phase in (("mul0", "ph0"), ("add0", "ph1"),
                              ("shl0", "ph2"), ("sub0", "ph3")):
            assert manager.equivalent(
                analysis.of_module(d2.cell(module)), var(phase)
            )

    def test_counter_increment_always_active(self, d2):
        analysis = derive_activation_functions(d2)
        assert analysis.of_module(d2.cell("cnt_inc")).is_true

    def test_pipeline_computes(self, d2):
        """After a full rotation the output reflects ((X*Y+Z)<<SH)-X."""
        sim = Simulator(d2)
        vec = {"X": 3, "Y": 4, "Z": 5, "SH": 1}
        for _ in range(9):
            sim.step(vec)
            sim.commit()
        width = d2.net("X").width
        expected = (((3 * 4 + 5) << 1) - 3) & ((1 << width) - 1)
        assert sim.state[d2.cell("r_out")] == expected


class TestFir:
    def test_bypass_activation(self, fir):
        analysis = derive_activation_functions(fir)
        manager = BddManager()
        for name in ("fmul0", "fmul3", "fadd2"):
            assert manager.equivalent(
                analysis.of_module(fir.cell(name)), not_(var("BYP"))
            )

    def test_filter_math(self, fir):
        sim = Simulator(fir)
        # Stream a unit impulse with BYP=0; output replays coefficients.
        outputs = []
        for cycle in range(6):
            sim.step({"X": 1 if cycle == 0 else 0, "BYP": 0})
            sim.commit()
            outputs.append(sim.state[fir.cell("r_y")])
        assert outputs[:5] == [3, 7, 7, 3, 0]

    def test_bypass_streams_input(self, fir):
        sim = Simulator(fir)
        sim.step({"X": 42, "BYP": 1})
        sim.commit()
        assert sim.state[fir.cell("r_y")] == 42

    def test_coefficient_validation(self):
        from repro.designs import fir_datapath

        with pytest.raises(ValueError):
            fir_datapath(coefficients=(1, 2, 3))


class TestAluCtrl:
    def test_fsm_holds_in_idle_without_go(self, alu):
        sim = Simulator(alu)
        for _ in range(5):
            sim.step({"A": 1, "B": 2, "OP": 0, "GO": 0})
            sim.commit()
        assert sim.state[alu.cell("state")] == 0

    def test_fsm_runs_cycle_on_go(self, alu):
        sim = Simulator(alu)
        states = []
        sim.step({"A": 1, "B": 2, "OP": 0, "GO": 1})
        sim.commit()
        for _ in range(4):
            states.append(sim.state[alu.cell("state")])
            sim.step({"A": 1, "B": 2, "OP": 0, "GO": 0})
            sim.commit()
        assert states[0] == 1  # LOAD after GO
        assert 0 in states[1:]  # returns to IDLE

    def test_alu_computes_selected_op(self, alu):
        sim = Simulator(alu)
        vec = {"A": 7, "B": 5, "OP": 1, "GO": 1}  # OP=1 -> subtract
        for _ in range(5):
            sim.step(vec)
            sim.commit()
            vec["GO"] = 1
        assert sim.state[alu.cell("r_out")] == 2

    def test_mul_active_fraction_is_small(self, alu):
        from repro.sim.probes import ProbeSet

        analysis = derive_activation_functions(alu)
        probes = ProbeSet({"mul": analysis.of_module(alu.cell("alu_mul"))})
        stim = random_stimulus(alu, seed=3, overrides=None)
        Simulator(alu).run(stim, 2000, monitors=[probes])
        assert probes.probability("mul") < 0.2


class TestSharedBus:
    def test_source_registers_multi_fanout(self, bus):
        ra = bus.cell("rA")
        assert len(ra.net("Q").readers) >= 2

    def test_consumer_activations(self, bus):
        analysis = derive_activation_functions(bus)
        manager = BddManager()
        assert manager.equivalent(
            analysis.of_module(bus.cell("bmul")), var("G0")
        )


class TestRandomDatapath:
    @pytest.mark.parametrize("seed", range(8))
    def test_valid_and_deterministic(self, seed):
        a = random_datapath(seed=seed)
        b = random_datapath(seed=seed)
        validate_design(a)
        assert a.stats() == b.stats()

    def test_different_seeds_differ(self):
        assert random_datapath(seed=0).stats() != random_datapath(seed=1).stats()

    def test_simulatable(self):
        design = random_datapath(seed=3)
        stim = random_stimulus(design, seed=0)
        sim = Simulator(design)
        for cycle in range(50):
            sim.step(stim.values(cycle))
            sim.commit()
