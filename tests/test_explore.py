"""Tests for the what-if candidate ranking API."""

import pytest

from repro.core.explore import format_ranking, rank_candidates
from repro.runconfig import RunConfig
from repro.sim import ControlStream, random_stimulus


@pytest.fixture
def ranking(d1):
    stim = random_stimulus(
        d1, seed=6, control_probability=0.3,
        overrides={"EN": ControlStream(0.2, 0.1)},
    )
    return rank_candidates(d1, stim, run=RunConfig(cycles=800))


class TestRanking:
    def test_sorted_by_h(self, ranking):
        scored = [r for r in ranking if not r.always_active]
        hs = [r.h for r in scored]
        assert hs == sorted(hs, reverse=True)

    def test_multipliers_lead(self, ranking):
        top_two = {r.name for r in ranking[:2]}
        assert top_two == {"mul0", "mul1"}

    def test_design_not_modified(self, d1):
        before = d1.stats()
        rank_candidates(
            d1,
            random_stimulus(d1, seed=6, control_probability=0.3),
            run=RunConfig(cycles=300),
        )
        assert d1.stats() == before

    def test_every_candidate_listed(self, ranking, d1):
        assert {r.name for r in ranking} == {
            c.name for c in d1.datapath_modules
        }

    def test_fields_consistent(self, ranking):
        for r in ranking:
            if r.always_active:
                continue
            assert r.net_mw == pytest.approx(
                r.primary_mw + r.secondary_mw - r.overhead_mw
            )
            assert 0 <= r.idle_probability <= 1

    def test_worth_isolating_flag(self, ranking):
        by_name = {r.name: r for r in ranking}
        assert by_name["mul0"].worth_isolating

    def test_always_active_marked(self, fir):
        stim = random_stimulus(fir, seed=1)
        ranked = rank_candidates(fir, stim, run=RunConfig(cycles=300))
        assert all(not r.always_active for r in ranked)  # all gated by BYP

    def test_format_ranking(self, ranking):
        text = format_ranking(ranking)
        assert "mul0" in text
        assert "activation" in text

    def test_lookahead_option(self):
        from repro.designs import lookahead_pipeline

        design = lookahead_pipeline()
        stim = random_stimulus(
            design, seed=2, control_probability=0.3,
            overrides={"SEL_IN": ControlStream(0.3, 0.2),
                       "G_IN": ControlStream(0.3, 0.2)},
        )
        blind = rank_candidates(
            design, stim, run=RunConfig(cycles=400), lookahead_depth=0
        )
        assert all(r.always_active for r in blind if r.name == "pmul")
        stim2 = random_stimulus(
            design, seed=2, control_probability=0.3,
            overrides={"SEL_IN": ControlStream(0.3, 0.2),
                       "G_IN": ControlStream(0.3, 0.2)},
        )
        sighted = rank_candidates(
            design, stim2, run=RunConfig(cycles=400), lookahead_depth=1
        )
        pmul = next(r for r in sighted if r.name == "pmul")
        assert not pmul.always_active
        assert pmul.net_mw > 0


class TestCliRank:
    def test_rank_command(self, capsys):
        from repro.cli import main

        assert main(
            ["rank", "--builtin", "design1", "--cycles", "300",
             "--override", "EN=0.2:0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "mul0" in out and "mul1" in out

    def test_rank_json(self, capsys):
        import json

        from repro.cli import main

        assert main(
            ["rank", "--builtin", "design1", "--cycles", "300", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert any(entry["name"] == "mul0" for entry in data)
        for entry in data:
            assert set(entry) >= {"name", "h", "net_mw", "worth_isolating"}


class TestResultSerialisation:
    def test_isolation_result_to_dict(self, d1):
        import json

        from repro.opt import IsolationConfig, isolate_design

        stim = random_stimulus(
            d1, seed=6, control_probability=0.3,
            overrides={"EN": ControlStream(0.2, 0.1)},
        )
        result = isolate_design(d1, stim, IsolationConfig(cycles=300))
        data = result.to_dict()
        json.dumps(data)  # must be serialisable
        assert data["design"] == "design1"
        assert data["power_mw"]["before"] > data["power_mw"]["after"]
        assert data["iterations"][0]["scores"]

    def test_isolate_cli_json(self, capsys):
        import json

        from repro.cli import main

        assert main(
            ["isolate", "--builtin", "design1", "--cycles", "300",
             "--override", "EN=0.2:0.1", "--verify-cycles", "0", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert "applied" in data and data["power_mw"]["reduction"] > 0
