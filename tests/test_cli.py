"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.netlist import textio


@pytest.fixture
def rtl_file(tmp_path, tiny_design):
    path = tmp_path / "tiny.rtl"
    textio.save(tiny_design, str(path))
    return str(path)


class TestIsolateCommand:
    def test_builtin_design1(self, capsys):
        code = main(
            [
                "isolate",
                "--builtin", "design1",
                "--cycles", "300",
                "--override", "EN=0.2:0.05",
                "--verify-cycles", "500",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Low-power optimization of 'design1' (passes=isolation;" in out
        assert "PASSED" in out

    def test_netlist_file_with_outputs(self, rtl_file, tmp_path, capsys):
        out_rtl = tmp_path / "iso.rtl"
        out_v = tmp_path / "iso.v"
        code = main(
            [
                "isolate", rtl_file,
                "--cycles", "200",
                "--override", "G=0.2:0.1",
                "--out", str(out_rtl),
                "--verilog", str(out_v),
                "--verify-cycles", "300",
            ]
        )
        assert code == 0
        reloaded = textio.load(str(out_rtl))
        assert reloaded.name == "tiny_opt"
        assert "endmodule" in out_v.read_text()

    def test_latch_style_and_weights(self, capsys):
        code = main(
            [
                "isolate", "--builtin", "design2", "--style", "latch",
                "--cycles", "300", "--omega-a", "0.1", "--verify-cycles", "0",
            ]
        )
        assert code == 0

    def test_lookahead_flag(self, capsys):
        code = main(
            [
                "isolate", "--builtin", "pipeline", "--lookahead", "1",
                "--cycles", "300",
                "--override", "SEL_IN=0.3:0.2", "--override", "G_IN=0.3:0.2",
                "--verify-cycles", "500",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pmul" in out


class TestOtherCommands:
    def test_report(self, capsys):
        assert main(["report", "--builtin", "fig1", "--cycles", "200"]) == 0
        out = capsys.readouterr().out
        assert "total power" in out
        assert "critical path" in out
        assert "Area report" in out

    def test_compare_json(self, capsys):
        import json

        assert main(
            ["compare", "--builtin", "fig1", "--cycles", "200", "--json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["label"] == "non-isolated"
        assert len(rows) == 4

    def test_compare(self, capsys):
        assert main(["compare", "--builtin", "fig1", "--cycles", "200"]) == 0
        out = capsys.readouterr().out
        assert "non-isolated" in out
        assert "LAT-isolated" in out

    def test_activation(self, capsys):
        assert main(["activation", "--builtin", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "AS_a0 = G0" in out
        assert "AS_a1" in out

    def test_activation_lookahead(self, capsys):
        assert main(["activation", "--builtin", "pipeline", "--lookahead", "1"]) == 0
        out = capsys.readouterr().out
        assert "AS_pmul = SEL_IN*G_IN" in out


class TestErrors:
    def test_unknown_builtin(self, capsys):
        assert main(["report", "--builtin", "warpcore"]) == 2
        assert "unknown builtin" in capsys.readouterr().err

    def test_no_design_given(self, capsys):
        assert main(["report"]) == 2
        assert "provide a netlist" in capsys.readouterr().err

    def test_bad_override(self, capsys):
        assert (
            main(["report", "--builtin", "fig1", "--override", "G0=banana"]) == 2
        )
        assert "bad --override" in capsys.readouterr().err

    def test_infeasible_override_statistics(self, capsys):
        assert (
            main(["report", "--builtin", "fig1", "--override", "G0=0.1:0.9"]) == 2
        )


class TestOverrideStimuli:
    """Every stimulus the CLI makes starts its ``--override`` streams fresh."""

    ARGS = [
        "--builtin", "design1", "--override", "EN=0.2:0.05",
        "--cycles", "200", "--seed", "1",
    ]

    def test_each_stimulus_starts_en_fresh(self):
        # The --verify-cycles stimulus of `optimize` is the factory's
        # second product, made after the optimizer drew the first.
        from repro.cli import _stimulus_factory, build_parser
        from repro.designs import design1

        args = build_parser().parse_args(["optimize", *self.ARGS])
        make = _stimulus_factory(design1(), args)
        first = make()
        trace = [first.values(cycle)["EN"] for cycle in range(216)]
        assert trace[-1] == 1  # a shared stream would start the next one high
        second = make()
        assert [second.values(cycle)["EN"] for cycle in range(216)] == trace

    def test_compare_rows_equal_single_style_runs(self, capsys):
        assert main(["compare", *self.ARGS, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        for style, row in zip(["and", "or", "latch"], rows[1:]):
            assert main(
                ["isolate", *self.ARGS, "--style", style,
                 "--verify-cycles", "0", "--json"]
            ) == 0
            single = json.loads(capsys.readouterr().out)
            assert row["power_mw"] == single["power_mw"]["after"]
            assert row["area_um2"] == single["area_um2"]["after"]
            assert row["slack_ns"] == single["slack_ns"]["after"]


class TestJsonOutput:
    """With --json, stdout carries exactly one parseable JSON document;
    notices and diagnostics go to stderr."""

    def test_isolate_json(self, capsys):
        code = main(
            [
                "isolate", "--builtin", "design1", "--cycles", "150",
                "--verify-cycles", "100", "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["design"] == "design1"
        assert payload["equivalence"]["equivalent"] is True
        assert "equivalence check" in captured.err
        assert "equivalence check" not in captured.out

    def test_isolate_json_written_notices_on_stderr(self, tmp_path, capsys):
        out_rtl = tmp_path / "iso.rtl"
        code = main(
            [
                "isolate", "--builtin", "design1", "--cycles", "150",
                "--verify-cycles", "0", "--json", "--out", str(out_rtl),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        json.loads(captured.out)  # stdout is pure JSON
        assert "isolated netlist written" in captured.err
        assert out_rtl.exists()

    def test_report_json(self, capsys):
        code = main(["report", "--builtin", "fig1", "--cycles", "150", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "paper_fig1"
        assert payload["total_power_mw"] > 0
        assert payload["critical_path_ns"] > 0
        assert payload["area_um2"] > 0
        assert payload["cell_power_mw"]

    def test_rank_json(self, capsys):
        code = main(["rank", "--builtin", "design1", "--cycles", "150", "--json"])
        assert code == 0
        ranked = json.loads(capsys.readouterr().out)
        assert ranked and {"name", "h", "worth_isolating"} <= set(ranked[0])

    def test_activation_json(self, capsys):
        code = main(["activation", "--builtin", "fig1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["activation"]["a0"] == "G0"

    def test_validate_json(self, capsys):
        code = main(["validate", "--builtin", "design1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_profile_json(self, capsys):
        code = main(
            ["profile", "--builtin", "design1", "--cycles", "150", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        span_names = {row["name"] for row in payload["spans"]}
        assert {"optimize", "power.estimate", "score.candidate"} <= span_names
        assert not span_names & {"isolate", "isolate.iteration"}
        assert payload["metrics"]

    def test_error_leaves_stdout_empty(self, capsys):
        code = main(["report", "--builtin", "warpcore", "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unknown builtin" in captured.err


class TestObservabilityFlags:
    def test_trace_flag_writes_perfetto_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(
            [
                "report", "--builtin", "design1", "--cycles", "150",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        document = json.loads(trace.read_text())
        names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert {"power.estimate", "sim.run"} <= names
        assert "trace written to" in capsys.readouterr().out

    def test_trace_with_json_keeps_stdout_clean(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(
            [
                "rank", "--builtin", "design1", "--cycles", "150",
                "--json", "--trace", str(trace),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        json.loads(captured.out)
        assert "trace written to" in captured.err

    def test_metrics_prometheus_file(self, tmp_path):
        metrics = tmp_path / "metrics.prom"
        code = main(
            [
                "report", "--builtin", "design1", "--cycles", "150",
                "--metrics", str(metrics),
            ]
        )
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE" in text
        assert "module_power_mw" in text

    def test_metrics_json_file(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "report", "--builtin", "design1", "--cycles", "150",
                "--metrics", str(metrics),
            ]
        )
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert any(key.startswith("module.power_mw") for key in payload)

    def test_unwritable_trace_path_fails_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "report", "--builtin", "design1", "--cycles", "150",
                "--trace", str(tmp_path / "no" / "such" / "dir" / "t.json"),
            ]
        )
        assert code == 2
        assert "cannot write observability output" in capsys.readouterr().err

    def test_profile_trace_covers_the_pipeline(self, tmp_path, capsys):
        rtl = os.path.join(
            os.path.dirname(__file__), "..", "examples", "design1.rtl"
        )
        pipeline = {"netlist.parse", "activation", "score.candidate", "bank.insert"}

        def traced(command):
            trace = tmp_path / f"{command}.json"
            code = main(
                [command, rtl, "--cycles", "150", "--trace", str(trace)]
                + (["--workers", "2"] if command == "compare" else [])
            )
            assert code == 0
            document = json.loads(trace.read_text())
            assert "repro_metrics" in document["otherData"]
            events = document["traceEvents"]
            names = {e["name"] for e in events if e["ph"] == "X"}
            tracks = {
                e["args"]["name"]
                for e in events
                if e["ph"] == "M" and e["name"] == "thread_name"
            }
            return names, tracks

        names, tracks = traced("profile")
        assert pipeline <= names
        assert tracks == {"main"}
        # The per-style pool of `compare --workers 2` carries worker spans.
        names, tracks = traced("compare")
        assert pipeline | {"pool.task"} <= names
        assert "main" in tracks
        assert any(track.startswith("task-") for track in tracks)
