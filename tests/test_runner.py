import dataclasses
import json
from pathlib import Path

import pytest

from provpoint import runner
from provpoint.beliefs import belief_reports
from provpoint.equilibrium import certify
from provpoint.mechanisms import Action, DualMarketState
from provpoint.model import BeliefSide, Market, Mechanism, Verdict
from provpoint.runner import profile_from_actions, run_scenario
from provpoint.scenario import (
    AnalysisFlags,
    ScenarioError,
    ScenarioTemplate,
    generate_scenario,
    parse_scenario,
    parse_scenario_dict,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def off_preference_ppsn():
    """The shipped PPSN scenario with one explicit play: agent 3, who
    prefers provision, stakes 1.0 on the rejection market first."""
    scenario = parse_scenario(SCENARIOS / "ppsn_four_arrivals.json")
    scenario.explicit_actions = [Action(agent_id=3, amount=1.0,
                                        market=Market.AGAINST, tick=1)]
    scenario.analysis = AnalysisFlags(certify=True)
    return scenario


def pprn_scenario():
    return generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPRN, agent_count=4), seed=21)


def test_no_out_dir_writes_nothing(tmp_path):
    scenario = pprn_scenario()
    result = run_scenario(scenario)
    assert result.files == []
    assert result.outcome is not None


def test_two_phase_settlement_carries_rewards(tmp_path):
    scenario = generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPRX, agent_count=4), seed=9)
    result = run_scenario(scenario, out_dir=tmp_path)
    assert result.outcome.verdict is Verdict.PROVISIONED
    winners = [p.belief_reward for p in result.outcome.payouts.values()
               if p.belief_reward > 0]
    assert winners and sum(winners) == pytest.approx(
        scenario.config.belief_budget, rel=1e-9)
    rows = (tmp_path / "settlement.csv").read_text().splitlines()
    assert rows[0].split(",")[5] == "belief_reward"


def test_certify_explicit_actions_at_equilibrium():
    # hand the runner the constructed play as explicit actions: certified
    scenario = pprn_scenario()
    from provpoint.equilibrium import construct_profile

    profile = construct_profile(scenario.config, scenario.agents)
    scenario.explicit_actions = list(profile.entries.values())
    scenario.analysis = AnalysisFlags(certify=True)
    result = run_scenario(scenario)
    assert result.certification.certified


def test_certify_explicit_actions_off_equilibrium():
    # concentrate one agent's stake beyond its bound: flagged
    scenario = pprn_scenario()
    from provpoint.equilibrium import construct_profile

    profile = construct_profile(scenario.config, scenario.agents)
    entries = sorted(profile.entries.items())
    (first, e0), (second, e1) = [
        (i, e) for i, e in entries if e.market is Market.FOR][:2]
    shift = e1.amount * 0.9
    actions = []
    for i, entry in entries:
        amount = entry.amount
        if i == first:
            amount += shift
        elif i == second:
            amount -= shift
        actions.append(Action(agent_id=i, amount=amount, market=entry.market,
                              tick=entry.tick))
    scenario.explicit_actions = actions
    scenario.analysis = AnalysisFlags(certify=True)
    result = run_scenario(scenario)
    report = result.certification
    assert not report.certified
    assert any(d.agent_id == first for d in report.deviations)


def test_an_agent_paying_into_both_markets_settles_on_the_for_side(tmp_path):
    # agent 0 pays the rejection market first and the provision market
    # later; its settlement side is for all the same
    scenario = pprn_scenario()
    scenario.explicit_actions = [
        Action(agent_id=0, amount=0.5, market=Market.AGAINST, tick=1),
        Action(agent_id=0, amount=0.5, market=Market.FOR, tick=2),
    ]
    scenario.analysis = AnalysisFlags(certify=False)
    result = run_scenario(scenario, out_dir=tmp_path)
    assert result.outcome.verdict is Verdict.EXPIRED
    rows = [row.split(",") for row in
            (tmp_path / "settlement.csv").read_text().splitlines()[1:]]
    assert rows[0][:3] == ["0", "for", "1.0"]


def test_pprx_settles_each_agent_on_its_reported_side(tmp_path):
    # agent 0 reports the side it does not believe; agent 1 files no
    # report and settles on its belief side, as every truthful agent does
    scenario = generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPRX, agent_count=5), seed=3)
    reports = belief_reports(scenario.agents)
    reports[0] = dataclasses.replace(reports[0], information=1 - reports[0].information)
    scenario.explicit_reports = [r for r in reports if r.agent_id != 1]
    assert run_scenario(scenario, out_dir=tmp_path).outcome.verdict is Verdict.PROVISIONED
    rows = [row.split(",") for row in
            (tmp_path / "settlement.csv").read_text().splitlines()[1:]]
    flipped = {BeliefSide.PROVISION_LIKELY: BeliefSide.REJECTION_LIKELY,
               BeliefSide.REJECTION_LIKELY: BeliefSide.PROVISION_LIKELY}
    assert [row[1] for row in rows] == [
        (flipped[a.belief_side] if a.id == 0 else a.belief_side).value
        for a in sorted(scenario.agents, key=lambda a: a.id)]


def test_profile_from_actions_rejects_multiple_plays():
    scenario = pprn_scenario()
    scenario.explicit_actions = [
        Action(agent_id=0, amount=1.0, market=Market.FOR, tick=1),
        Action(agent_id=0, amount=1.0, market=Market.FOR, tick=2),
    ]
    with pytest.raises(ScenarioError, match="at most one action"):
        profile_from_actions(scenario, {}, {})


def test_infeasible_profile_noted(tmp_path):
    data = {
        "version": 1,
        "config": {"mechanism": "PPR", "provision_point": 100.0,
                   "refund_budget": 2.0, "deadline_contribution": 4},
        "agents": [{"id": 0, "valuation": 8.0}, {"id": 1, "valuation": 7.0}],
        "analysis": {"certify": True},
    }
    scenario = parse_scenario_dict(data)
    result = run_scenario(scenario, out_dir=tmp_path)
    assert result.outcome is None
    assert any("infeasible" in note for note in result.notes)
    assert not result.certification.feasible
    summary = (tmp_path / "summary.txt").read_text()
    assert "infeasible" in summary


def test_spe_checks_the_on_path_entry_on_its_own_market():
    # on the path, the subgame-perfect check sweeps the market the entry
    # stakes on, not the agent's preferred one
    scenario = off_preference_ppsn()
    profile = profile_from_actions(scenario, {}, {})
    report = certify(scenario.config, scenario.agents, profile)
    on_path = "[state raised_for=0 raised_against=0] "
    found = [d.detail for d in report.deviations
             if d.agent_id == 3 and d.detail.startswith(on_path)]
    assert len(found) == 1
    assert found[0].endswith("on against (was 1)")


def test_summary_labels_each_certification_by_its_certifier(tmp_path):
    # a PPSN run certifies subgame perfection only, and its one report
    # names its certifier
    result = run_scenario(off_preference_ppsn(), out_dir=tmp_path)
    summary = (tmp_path / "summary.txt").read_text()
    assert "Nash certification" not in summary
    assert summary.count("subgame-perfect certification: DEVIATIONS FOUND") == 1
    assert sorted(p.name for p in tmp_path.glob("certification*")) == [
        "certification.json"]
    written = json.loads((tmp_path / "certification.json").read_text())
    assert written == result.certification.to_dict()
    assert written["kind"] == "subgame-perfect"


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_a_certified_run_replays_once(mechanism, monkeypatch):
    # the certifier reads the book the engine settled: every play of a
    # certified run is one of the engine's
    scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=8), seed=3)
    assert scenario.analysis.certify
    plays, books = [], []
    play, run_campaign = DualMarketState.play, runner.run_campaign

    def counting(book, *args):
        plays.append(args)
        return play(book, *args)

    def campaign(*args):
        verdict, book = run_campaign(*args)
        books.append(book)
        return verdict, book

    monkeypatch.setattr(DualMarketState, "play", counting)
    monkeypatch.setattr(runner, "run_campaign", campaign)
    result = run_scenario(scenario)
    assert result.certification is not None
    assert len(books) == 1
    assert len(plays) == len(books[0].ledger) > 0


@pytest.mark.parametrize("infeasible", [False, True], ids=["feasible", "infeasible"])
@pytest.mark.parametrize("mechanism", list(Mechanism), ids=lambda m: m.value)
def test_the_traced_certifier_span_counts_each_certification(mechanism, infeasible):
    # the benchmark's tracer wraps the certifier by the runner's names for
    # it: a certifying run counts exactly one equilibrium.certify call, and
    # its report names the mechanism's own equilibrium notion
    from perfbench.tracing import Tracer

    scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=6),
                                 seed=1)
    if infeasible:  # no bound sum reaches a target
        scenario.agents = [dataclasses.replace(a, valuation=a.valuation * 1e-3)
                           for a in scenario.agents]
    tracer = Tracer()
    tracer.install()
    try:
        report = run_scenario(scenario).certification
    finally:
        tracer.remove()
    assert tracer.snapshot()["equilibrium.certify.calls"] == 1
    assert report.feasible is not infeasible
    assert report.kind == ("subgame-perfect" if mechanism.sequential else "Nash")
    timing = [note for note in report.notes if note.startswith("timing deviations vacuous")]
    assert len(timing) == (0 if mechanism.sequential or infeasible else 1)
