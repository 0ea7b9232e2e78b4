"""The `repro optimize` surface: CLI subcommand, compare column, serve job."""

import json

import pytest

from repro import api
from repro.cli import main
from repro.designs import builtin_design, design1
from repro.errors import ServeError
from repro.netlist import textio
from repro.runconfig import RunConfig
from repro.serve import DONE, JobService
from repro.serve.cache import job_cache_key
from repro.serve.jobs import METHODS, _validate_params
from repro.serve.supervisor import run_job_payload

RUN = {"cycles": 150, "warmup": 8, "engine": "compiled", "workers": 1}


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def direct_payload(method: str, design, params=None) -> dict:
    session = api.Session(design, run=RunConfig(**RUN))
    _, builder = METHODS[method]
    return builder(session, params or {})


class TestOptimizeCommand:
    def test_default_passes_summary(self, capsys):
        code = main(
            [
                "optimize",
                "--builtin", "design1",
                "--cycles", "300",
                "--override", "EN=0.2:0.05",
                "--verify-cycles", "500",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Low-power optimization of 'design1'" in out
        assert "isolation" in out and "clock_gating" in out
        assert "PASSED" in out

    def test_json_payload_shape(self, capsys):
        code = main(
            [
                "optimize",
                "--builtin", "design1",
                "--cycles", "300",
                "--override", "EN=0.2:0.05",
                "--verify-cycles", "0",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == ["isolation", "clock_gating"]
        assert payload["design"] == "design1"
        applied_passes = {t["pass"] for t in payload["applied"]}
        assert applied_passes == {"isolation", "clock_gating"}
        assert set(payload["per_pass_net_mw"]) == {"isolation", "clock_gating"}

    def test_single_pass_list(self, capsys):
        code = main(
            [
                "optimize",
                "--builtin", "design1",
                "--passes", "clock_gating",
                "--cycles", "300",
                "--override", "EN=0.2:0.05",
                "--verify-cycles", "0",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == ["clock_gating"]
        assert all(t["pass"] == "clock_gating" for t in payload["applied"])

    def test_unknown_pass_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["optimize", "--builtin", "design1", "--passes", "warp"])
        err = capsys.readouterr().err
        assert "unknown pass" in err

    def test_out_message_says_optimized(self, tmp_path, capsys):
        out_rtl = tmp_path / "opt.rtl"
        code = main(
            [
                "optimize",
                "--builtin", "design1",
                "--cycles", "200",
                "--override", "EN=0.2:0.05",
                "--verify-cycles", "0",
                "--out", str(out_rtl),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"optimized netlist written to {out_rtl}" in out
        assert out_rtl.exists()


class TestCompareWithPasses:
    def test_table_has_per_pass_columns(self, capsys):
        code = main(
            [
                "compare",
                "--builtin", "design1",
                "--cycles", "200",
                "--override", "EN=0.2:0.05",
                "--passes", "isolation,clock_gating",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "isolation[mW]" in out
        assert "clock_gating[mW]" in out

    def test_json_rows_carry_pass_savings(self, capsys):
        code = main(
            [
                "compare",
                "--builtin", "design1",
                "--cycles", "200",
                "--override", "EN=0.2:0.05",
                "--passes", "isolation,clock_gating",
                "--json",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        isolated_rows = [r for r in rows if r["label"] != "non-isolated"]
        assert isolated_rows
        for row in isolated_rows:
            assert set(row["pass_savings_mw"]) == {"isolation", "clock_gating"}

    def test_without_passes_no_column(self, capsys):
        code = main(
            [
                "compare",
                "--builtin", "design1",
                "--cycles", "200",
                "--override", "EN=0.2:0.05",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "isolation[mW]" not in out


class TestProfileWithPasses:
    def test_profile_clock_gating_spans(self, capsys):
        code = main(
            [
                "profile",
                "--builtin", "design1",
                "--cycles", "200",
                "--override", "EN=0.2:0.05",
                "--passes", "isolation,clock_gating",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in payload["spans"]}
        # The multi-pass path uses the "optimize" root span layout.
        assert "optimize" in names
        assert "clock.gate" in names
        assert payload["passes"] == ["isolation", "clock_gating"]
        assert payload["transformed"]


class TestCliServeParity:
    """The CLI and a served job build the same design from one request."""

    @pytest.mark.parametrize(
        "name, passes",
        [("soc", ["isolation"]), ("design1", ["isolation", "clock_gating"])],
    )
    def test_cli_json_matches_served_payload(self, name, passes, capsys):
        code = main(
            [
                "optimize",
                "--builtin", name,
                "--passes", ",".join(passes),
                "--seed", "0",
                "--cycles", "600",
                "--engine", "compiled",
                "--workers", "1",
                "--verify-cycles", "0",
                "--json",
            ]
        )
        assert code == 0
        cli = json.loads(capsys.readouterr().out)
        cli.pop("timings")
        cli.pop("equivalence", None)
        run = RunConfig(cycles=600, seed=0, engine="compiled", workers=1)
        served = run_job_payload(
            {
                "method": "optimize",
                "design_text": textio.dumps(builtin_design(name)),
                "run": run.to_dict(),
                "params": {"passes": passes},
            }
        )
        assert cli["applied"] == served["applied"]
        # Serve re-parses the design text, so the last ulp can move.
        for key, fields in (
            ("power_mw", ("before", "after")),
            ("area_um2", ("before", "after")),
            ("slack_ns", ("before", "after", "clock_period")),
        ):
            for field in fields:
                assert cli[key][field] == pytest.approx(
                    served[key][field], rel=1e-9
                ), (key, field)


class TestServeOptimize:
    def test_served_result_matches_direct_session(self):
        service = JobService(queue_size=8, job_workers=2, cache_capacity=32)
        try:
            params = {"passes": ["isolation", "clock_gating"]}
            job = service.submit(
                "optimize", builtin="design1", run=RUN, params=params
            )
            job = service.wait(job.id, timeout=120)
            assert job.state == DONE, job.error
            expected = direct_payload("optimize", design1(), params)
            assert canon(job.result) == canon(expected)
            assert "timings" not in job.result
        finally:
            service.shutdown()

    def test_cached_result_is_byte_identical(self):
        service = JobService(queue_size=8, job_workers=2, cache_capacity=32)
        try:
            params = {"passes": ["isolation"]}
            cold = service.wait(
                service.submit(
                    "optimize", builtin="design1", run=RUN, params=params
                ).id,
                timeout=120,
            )
            warm = service.wait(
                service.submit(
                    "optimize", builtin="design1", run=RUN, params=params
                ).id,
                timeout=120,
            )
            assert cold.state == DONE and warm.state == DONE
            assert not cold.cached and warm.cached
            assert canon(warm.result) == canon(cold.result)
        finally:
            service.shutdown()

    def test_cache_key_orders_pass_list(self):
        fp, run_fp = "d" * 16, "r" * 16
        fwd = job_cache_key(
            "optimize", fp, run_fp, {"passes": ["isolation", "clock_gating"]}
        )
        rev = job_cache_key(
            "optimize", fp, run_fp, {"passes": ["clock_gating", "isolation"]}
        )
        solo = job_cache_key("optimize", fp, run_fp, {"passes": ["isolation"]})
        assert len({fwd, rev, solo}) == 3

    @pytest.mark.parametrize(
        "bad",
        [[], "isolation", ["warp"], ["isolation", "isolation"]],
    )
    def test_validate_params_rejects_bad_passes(self, bad):
        with pytest.raises(ServeError):
            _validate_params("optimize", {"passes": bad})

    def test_validate_params_accepts_good_passes(self):
        params = {"passes": ["isolation", "clock_gating"], "style": "or"}
        assert _validate_params("optimize", params) is params


class TestSubmitOptimize:
    def test_submit_flow_against_live_server(self, capsys):
        from repro.serve import make_server

        service = JobService(queue_size=8, job_workers=1, cache_capacity=8)
        server = make_server("127.0.0.1", 0, service)
        import threading

        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            code = main(
                [
                    "submit",
                    "--url", server.url,
                    "--builtin", "design1",
                    "--method", "optimize",
                    "--passes", "isolation,clock_gating",
                    "--cycles", "150",
                    "--engine", "compiled",
                    "--json",
                ]
            )
            payload = json.loads(capsys.readouterr().out)
            assert code == 0
            assert payload["state"] == "done"
            assert payload["result"]["passes"] == ["isolation", "clock_gating"]
        finally:
            server.shutdown()
            service.shutdown()
            server.server_close()
            thread.join(timeout=10)
