"""repro.sweep: spec expansion, the experiment store, the engine, Pareto."""

import json
import os

import pytest

from repro.api import Session
from repro.designs import design1, paper_example
from repro.errors import SweepError
from repro.netlist import textio
from repro.serve.cache import job_cache_key
from repro.sweep import (
    ExperimentStore,
    SweepSpec,
    dominates,
    pareto_front,
    point_metrics,
    run_sweep,
    stimulus_label,
)

RUN = {"cycles": 120, "engine": "python"}


def small_spec(**overrides):
    payload = {
        "name": "t",
        "designs": ["design1"],
        "stimuli": [None, "idle"],
        "pass_lists": ["isolation"],
        "run": dict(RUN),
    }
    payload.update(overrides)
    return SweepSpec.from_dict(payload)


class TestSpec:
    def test_size_and_expand_agree(self):
        spec = small_spec(
            pass_lists=["isolation", "rewrite+isolation"], h_min=[0.0, 0.1]
        )
        points = spec.expand()
        assert spec.size == len(points) == 1 * 2 * 2 * 1 * 2

    def test_unknown_field_rejected(self):
        with pytest.raises(SweepError, match="bogus"):
            SweepSpec.from_dict({"designs": ["design1"], "bogus": 1})

    def test_unknown_pass_rejected(self):
        with pytest.raises(SweepError, match="nope"):
            small_spec(pass_lists=["nope"])

    def test_unknown_style_rejected(self):
        with pytest.raises(SweepError):
            small_spec(styles=["bogus"])

    def test_bad_run_rejected(self):
        with pytest.raises(SweepError):
            small_spec(run={"cycles": 100, "bogus": 1})

    def test_empty_designs_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec.from_dict({"designs": []})

    def test_duplicate_design_rejected(self):
        spec = SweepSpec.from_dict({"designs": ["design1", "design1"], "run": RUN})
        with pytest.raises(SweepError, match="identical"):
            spec.expand()

    def test_netlist_path_design(self, tmp_path):
        path = tmp_path / "d.rtl"
        path.write_text(textio.dumps(paper_example()))
        spec = SweepSpec.from_dict({"designs": [str(path)], "run": RUN})
        (point,) = spec.expand()
        assert point.design_name == paper_example().name

    def test_point_key_is_job_cache_key(self):
        from repro.runconfig import RunConfig
        from repro.sim.compile import design_fingerprint

        (point,) = SweepSpec.from_dict({"designs": ["design1"], "run": RUN}).expand()
        run_cfg = RunConfig().replace(**RUN).replace(trace=False)
        expected = job_cache_key(
            "optimize",
            design_fingerprint(design1()),
            run_cfg.fingerprint(),
            point.params,
            "default",
        )
        assert point.key == expected

    def test_keys_unique_across_grid(self):
        spec = small_spec(
            pass_lists=["isolation", "rewrite+isolation"],
            styles=["and", "or"],
            h_min=[0.0, 0.05],
        )
        keys = [p.key for p in spec.expand()]
        assert len(set(keys)) == len(keys)

    def test_round_trip_preserves_fingerprint(self):
        spec = small_spec(h_min=[0.0, 0.1])
        again = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again.fingerprint() == spec.fingerprint()

    def test_wire_payload_matches_job_payload(self):
        from repro.serve.jobs import JobService

        spec = small_spec(stimuli=["idle"])
        (point,) = spec.expand()
        service = JobService(job_workers=1, fsync=False, cache_capacity=0)
        try:
            job = service.submit(
                "optimize",
                design=point.design_text,
                run=point.run,
                params=point.params,
                stimulus=point.stimulus,
            )
            assert job.wire_payload() == point.wire_payload()
            assert job.cache_key == point.key
        finally:
            service.shutdown(drain=False)

    def test_stimulus_labels(self):
        assert stimulus_label(None) == "default"
        assert stimulus_label({"profile": "idle"}) == "idle"
        assert (
            stimulus_label({"profile": "bursty", "params": {"burst_len": 2}})
            == "bursty(burst_len=2)"
        )
        assert stimulus_label({"csv": "A\n1\n"}).startswith("csv:")


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "s"))
        store.put("k" * 16, {"x": 1})
        assert store.get("k" * 16) == {"x": 1}
        assert store.has("k" * 16)
        assert len(store) == 1

    def test_get_missing_is_none(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "s"))
        assert store.get("absent") is None

    def test_corruption_quarantined_not_served(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "s"))
        key = "deadbeef" * 4
        store.put(key, {"x": 1})
        path = store.path(key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"key": "' + key + '", "sha256": "wrong", "payload": {"x": 2}}')
        assert store.get(key) is None
        assert not store.has(key)
        assert store.status()["quarantined"] == 1

    def test_verify_counts(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "s"))
        store.put("aa" * 8, {"x": 1})
        store.put("bb" * 8, {"x": 2})
        assert store.verify() == {"verified": 2, "quarantined": 0}

    def test_spec_provenance(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "s"))
        spec = small_spec()
        fp = store.record_spec(spec)
        assert fp == spec.fingerprint()
        assert store.specs()[fp]["name"] == "t"
        store.record_spec(spec)  # idempotent
        assert store.status()["specs"] == 1


class TestEngine:
    def test_inline_run_persists_every_point(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "s"))
        spec = small_spec()
        result = run_sweep(spec, store)
        assert result.computed == spec.size and result.failed == 0
        assert result.complete
        assert sorted(store.keys()) == sorted(p.key for p in spec.expand())

    def test_resume_skips_persisted_points(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "s"))
        spec = small_spec()
        first = run_sweep(spec, store)
        second = run_sweep(spec, store)
        assert second.computed == 0
        assert second.skipped == spec.size
        assert second.report_rows() and (
            [r["power_mw"] for r in second.report_rows()]
            == [r["power_mw"] for r in first.report_rows()]
        )

    def test_limit_chunks_then_resume_completes(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "s"))
        spec = small_spec()
        partial = run_sweep(spec, store, limit=1)
        assert partial.computed == 1 and not partial.complete
        rest = run_sweep(spec, store)
        assert rest.skipped == 1 and rest.computed == spec.size - 1
        assert rest.complete

    def test_overlapping_specs_share_points(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "s"))
        run_sweep(small_spec(stimuli=["idle"]), store)
        wider = run_sweep(small_spec(), store)  # default + idle
        assert wider.skipped == 1 and wider.computed == 1

    def test_workload_changes_the_outcome(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "s"))
        result = run_sweep(small_spec(stimuli=[None, "idle", "bursty"]), store)
        power = {
            row["stimulus"]: row["power_mw"] for row in result.report_rows()
        }
        assert power["idle"] < power["bursty"] < power["default"]

    def test_failed_points_not_persisted(self, tmp_path, monkeypatch):
        import repro.sweep.engine as engine_mod
        from repro.errors import ReproError

        store = ExperimentStore(str(tmp_path / "s"))
        spec = small_spec()
        calls = {"n": 0}
        real = engine_mod.run_job_payload

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ReproError("induced failure")
            return real(payload)

        monkeypatch.setattr(engine_mod, "run_job_payload", flaky)
        first = run_sweep(spec, store)
        assert first.failed == 1 and first.computed == spec.size - 1
        assert len(store) == spec.size - 1
        retry = run_sweep(spec, store)  # the failed point retries and lands
        assert retry.failed == 0 and retry.computed == 1
        assert retry.complete

    def test_service_and_inline_share_keys(self, tmp_path):
        from repro.serve.jobs import JobService

        spec = small_spec(stimuli=["idle"])
        inline_store = ExperimentStore(str(tmp_path / "a"))
        run_sweep(spec, inline_store)
        service = JobService(job_workers=1, fsync=False)
        try:
            served = run_sweep(spec, inline_store, service=service)
            assert served.skipped == spec.size  # the store answers for serve too
            fresh = ExperimentStore(str(tmp_path / "b"))
            computed = run_sweep(spec, fresh, service=service)
            assert computed.computed == spec.size
            assert sorted(fresh.keys()) == sorted(inline_store.keys())
        finally:
            service.shutdown(drain=False)

    def test_client_and_service_mutually_exclusive(self):
        with pytest.raises(SweepError):
            run_sweep(small_spec(), client="http://x", service=object())

    def test_bad_limit_rejected(self):
        with pytest.raises(SweepError):
            run_sweep(small_spec(), limit=0)

    def test_to_dict_summary(self, tmp_path):
        result = run_sweep(small_spec(), str(tmp_path / "s"))
        payload = result.to_dict()
        assert payload["computed"] == 2 and payload["complete"]
        assert payload["spec_fingerprint"] == result.spec.fingerprint()
        json.dumps(payload)  # JSON-serializable end to end


class TestSessionSweep:
    def test_defaults_to_session_design_and_run(self):
        from repro.runconfig import RunConfig

        session = Session(design1(), run=RunConfig(cycles=100))
        result = session.sweep({"stimuli": ["idle"]})
        assert result.computed == 1
        (outcome,) = result.outcomes
        assert outcome.point.run["cycles"] == 100
        assert outcome.point.design_name == design1().name

    def test_explicit_spec_axes_respected(self, tmp_path):
        session = Session(design1())
        result = session.sweep(
            {"pass_lists": ["isolation", "rewrite+isolation"], "run": RUN},
            store=str(tmp_path / "s"),
        )
        assert result.computed == 2
        assert os.path.isdir(os.path.join(str(tmp_path / "s"), "points"))


class TestPareto:
    ROW_A = {"power_mw": 1.0, "area_um2": 100.0, "slack_ns": 0.5}
    ROW_B = {"power_mw": 2.0, "area_um2": 100.0, "slack_ns": 0.5}
    ROW_C = {"power_mw": 2.0, "area_um2": 90.0, "slack_ns": 0.5}

    def test_dominates(self):
        assert dominates(self.ROW_A, self.ROW_B)
        assert not dominates(self.ROW_B, self.ROW_A)
        assert not dominates(self.ROW_A, self.ROW_C)  # area trade-off
        assert not dominates(self.ROW_A, self.ROW_A)  # needs strict improvement

    def test_front_keeps_tradeoffs(self):
        front = pareto_front([self.ROW_A, self.ROW_B, self.ROW_C])
        assert self.ROW_A in [dict(r) for r in front]
        assert self.ROW_C in [dict(r) for r in front]
        assert dict(self.ROW_B) not in [dict(r) for r in front]

    def test_point_metrics_requires_shape(self):
        with pytest.raises(SweepError):
            point_metrics({"power_mw": 1.0})

    def test_reports_render(self, tmp_path):
        result = run_sweep(small_spec(), str(tmp_path / "s"))
        text = result.report_text()
        assert "Pareto report" in text and "stimulus=idle" in text
        payload = result.report_json()
        assert payload["points"] == 2
        assert all(group["front"] for group in payload["groups"])
