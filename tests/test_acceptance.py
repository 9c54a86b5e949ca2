"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them
as they complete). Tolerances are pinned here, not configured elsewhere.
"""

import functools
import math
import random
import time

import pytest

from provpoint.beliefs import BeliefReport, rbts_scores, score_reports
from provpoint.cli import main
from provpoint.costfn import CostFunction
from provpoint.equilibrium import (
    EquilibriumProfile,
    certify,
    check_conditions,
    construct_profile,
    contribution_bound,
    refund_cap,
)
from provpoint.mechanisms import Action, payoff, run_campaign
from provpoint.model import (
    AgentProfile,
    BeliefSide,
    CampaignConfig,
    ContributionRecord,
    Market,
    Mechanism,
    Verdict,
)
from provpoint.reports import misreport_gap_rows
from provpoint.runner import run_scenario
from provpoint.scenario import ScenarioTemplate, generate_scenario, save_scenario


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} {name}: PASS")
        return wrapper
    return decorate


def winning_target(config: CampaignConfig, verdict: Verdict) -> float:
    if config.provision_point_pair is None:
        return config.provision_point
    pair = config.provision_point_pair
    return pair[0] if verdict is Verdict.PROVISIONED else pair[1]


@criterion(1, "dual-market refund-bonus Nash certification")
def test_criterion_1_pprn_nash():
    started = time.monotonic()
    template_counts = [3 + (i % 8) for i in range(50)]
    for seed, count in enumerate(template_counts):
        template = ScenarioTemplate(mechanism=Mechanism.PPRN, agent_count=count)
        scenario = generate_scenario(template, seed=seed)
        config, agents = scenario.config, scenario.agents
        assert all(c.satisfied for c in check_conditions(config, agents))
        assert any(a.valuation < 0 for a in agents)
        assert any(a.valuation >= 0 for a in agents)
        profile = construct_profile(config, agents)
        assert profile.feasible
        report = certify(config, agents, profile)  # eps 1e-6*target
        assert report.certified, (seed, report.deviations[:3])
        verdict, dual = run_campaign(config, profile.plays())
        assert verdict in (Verdict.PROVISIONED, Verdict.REJECTED)
        winner = dual.raised[verdict is Verdict.REJECTED]
        target = winning_target(config, verdict)
        assert abs(winner - target) <= 1e-9 * target
    assert time.monotonic() - started < 10.0


@criterion(2, "dual-market securities subgame-perfect certification")
def test_criterion_2_ppsn_spe():
    started = time.monotonic()
    clip_seen = False
    for seed in range(20):
        count = 3 + (seed % 3)
        template = ScenarioTemplate(mechanism=Mechanism.PPSN, agent_count=count)
        scenario = generate_scenario(template, seed=100 + seed)
        config, agents = scenario.config, scenario.agents
        assert all(c.satisfied for c in check_conditions(config, agents))
        profile = construct_profile(config, agents)
        assert profile.feasible
        scale = max(config.provision_point_pair)
        report = certify(config, agents, profile)
        assert report.certified, (seed, report.deviations[:3])
        for check in report.indifference:
            entry = profile.entries[check.agent_id]
            # report bounds are priced at the issuance the agent found
            if 0.0 < entry.amount < check.bound * (1 - 1e-9):
                clip_seen = True
        # preference flip leaves the symmetric-belief expectation unchanged
        _, dual = run_campaign(config, profile.plays())
        allocated = {r.agent_id: r.securities
                     for r in dual.ledger}
        epsilon = scale * 1e-6
        for agent in agents:
            entry = profile.entries[agent.id]
            if entry.amount <= 0:
                continue
            stay = ContributionRecord(agent_id=agent.id, amount=entry.amount,
                                      tick=0, market=entry.market,
                                      securities=allocated[agent.id])
            flip = ContributionRecord(agent_id=agent.id, amount=entry.amount,
                                      tick=0, market=entry.market.other,
                                      securities=allocated[agent.id])
            def ppsn_payoff(rec, verdict):
                return payoff(agent, rec.market, agent.belief_side, verdict, rec.amount,
                              0.0, None, rec.securities, 0.0)

            eu_stay = 0.5 * (ppsn_payoff(stay, Verdict.PROVISIONED)
                             + ppsn_payoff(stay, Verdict.REJECTED))
            eu_flip = 0.5 * (ppsn_payoff(flip, Verdict.PROVISIONED)
                             + ppsn_payoff(flip, Verdict.REJECTED))
            assert abs(eu_stay - eu_flip) <= epsilon
    assert clip_seen, "no scenario exercised the late-arrival clipping case"
    assert time.monotonic() - started < 60.0


@criterion(3, "belief-phase refund-bonus Nash certification")
def test_criterion_3_pprx_nash():
    for seed in range(50):
        count = 3 + (seed % 8)
        template = ScenarioTemplate(mechanism=Mechanism.PPRX, agent_count=count)
        scenario = generate_scenario(template, seed=200 + seed)
        config, agents = scenario.config, scenario.agents
        checks = {c.name: c for c in check_conditions(config, agents)}
        assert checks["target_within_valuation_plus_belief_budget"].satisfied
        profile = construct_profile(config, agents)
        assert profile.feasible
        report = certify(config, agents, profile)
        assert report.certified, (seed, report.deviations[:3])
        for check in report.indifference:
            if check.clamped:
                continue
            scale = max(abs(check.lhs), abs(check.rhs))
            assert abs(check.lhs - check.rhs) <= 1e-6 * scale, (seed, check)


@criterion(4, "belief-phase securities certification and contribution ordering")
def test_criterion_4_ppsx_spe_and_ordering():
    for seed in range(20):
        count = 3 + (seed % 3)
        template = ScenarioTemplate(mechanism=Mechanism.PPSX, agent_count=count)
        scenario = generate_scenario(template, seed=300 + seed)
        config, agents = scenario.config, scenario.agents
        assert all(c.satisfied for c in check_conditions(config, agents))
        profile = construct_profile(config, agents)
        assert profile.feasible
        report = certify(config, agents, profile)
        assert report.certified, (seed, report.deviations[:3])
    # matched optimist/pessimist pairs: the optimist's cap is strictly larger
    # whenever a positive belief reward is at stake
    config = CampaignConfig(mechanism=Mechanism.PPSX, provision_point=10.0,
                            belief_budget=5.0,
                            cost_params=CostFunction(liquidity=25.0),
                            deadline_contribution=5, deadline_belief=2)
    reward = 2.0
    for i in range(10):
        for j in range(10):
            theta = 1.0 + 19.0 * i / 9.0
            eps = 0.45 * j / 9.0
            plus = AgentProfile(id=0, valuation=theta, belief_epsilon=eps,
                                belief_side=BeliefSide.PROVISION_LIKELY)
            minus = AgentProfile(id=1, valuation=theta, belief_epsilon=eps,
                                 belief_side=BeliefSide.REJECTION_LIKELY)
            gap = (contribution_bound(config, plus, belief_reward=reward)
                   - contribution_bound(config, minus, belief_reward=reward))
            assert gap > 0.0, (theta, eps)


@criterion(5, "negative controls: violated conditions are caught")
def test_criterion_5_negative_controls():
    # PPRN: refund budget beyond its caps, all else valid
    agents = [AgentProfile(id=i, valuation=v) for i, v in
              enumerate([10.0, 10.0, 10.0, -12.0, -12.0])]
    config = CampaignConfig(mechanism=Mechanism.PPRN,
                            provision_point_pair=(20.0, 15.0),
                            refund_budget=18.0, deadline_contribution=5)
    violated = [c for c in check_conditions(config, agents) if not c.satisfied]
    assert len(violated) == 1
    assert not construct_profile(config, agents).feasible

    # PPRN rubber-stamp control: valid conditions, but one agent's supplied
    # stake is concentrated beyond its bound; the certifier must catch it
    config = CampaignConfig(mechanism=Mechanism.PPRN,
                            provision_point_pair=(20.0, 15.0),
                            refund_budget=5.0, deadline_contribution=5)
    assert all(c.satisfied for c in check_conditions(config, agents))
    profile = EquilibriumProfile()
    profile.entries[0] = Action(0, 19.0, Market.FOR, 5)
    profile.entries[1] = Action(1, 0.5, Market.FOR, 5)
    profile.entries[2] = Action(2, 0.5, Market.FOR, 5)
    for i in (3, 4):
        profile.entries[i] = Action(i, 7.5, Market.AGAINST, 5)
    assert 19.0 > refund_cap(config, agents[0], BeliefSide.PROVISION_LIKELY, 0.0)
    report = certify(config, agents, profile)
    assert not report.certified
    assert any(d.agent_id == 0 for d in report.deviations)

    # PPSN: provision side unaffordable (the lone violated condition); the
    # rejection equilibrium legitimately survives, but any play that forces
    # the provision point must push someone past its bound and be flagged
    agents = [AgentProfile(id=0, valuation=4.0),
              AgentProfile(id=1, valuation=-10.0, arrival_contribution=1),
              AgentProfile(id=2, valuation=-10.0, arrival_contribution=2)]
    config = CampaignConfig(mechanism=Mechanism.PPSN,
                            provision_point_pair=(3.8, 4.0),
                            cost_params=CostFunction(liquidity=1.0),
                            deadline_contribution=5)
    violated = [c for c in check_conditions(config, agents) if not c.satisfied]
    assert [c.name for c in violated] == ["provision_securities_affordable"]
    assert contribution_bound(config, agents[0]) < 3.8
    forced = EquilibriumProfile()
    forced.entries[0] = Action(0, 3.8, Market.FOR, 0)
    forced.entries[1] = Action(1, 1.0, Market.AGAINST, 1)
    forced.entries[2] = Action(2, 1.0, Market.AGAINST, 2)
    report = certify(config, agents, forced)
    assert not report.certified
    assert any(d.agent_id == 0 and d.kind == "contribution"
               for d in report.deviations)

    # PPRx: target above total valuation plus belief budget
    agents = [AgentProfile(id=i, valuation=5.0, belief_epsilon=0.1)
              for i in range(3)]
    config = CampaignConfig(mechanism=Mechanism.PPRX, provision_point=20.0,
                            belief_budget=4.0, contribution_budget=1.0,
                            deadline_contribution=5, deadline_belief=2)
    violated = [c for c in check_conditions(config, agents) if not c.satisfied]
    assert [c.name for c in violated] == [
        "target_within_valuation_plus_belief_budget"]
    assert not construct_profile(config, agents).feasible

    # PPSx: same violated headroom, securities variant
    config = CampaignConfig(mechanism=Mechanism.PPSX, provision_point=20.0,
                            belief_budget=4.0,
                            cost_params=CostFunction(liquidity=20.0),
                            deadline_contribution=5, deadline_belief=2)
    violated = [c for c in check_conditions(config, agents) if not c.satisfied]
    assert [c.name for c in violated] == [
        "target_within_valuation_plus_belief_budget"]
    assert not construct_profile(config, agents).feasible

    # single-market analogues
    agents = [AgentProfile(id=0, valuation=6.0), AgentProfile(id=1, valuation=5.0)]
    config = CampaignConfig(mechanism=Mechanism.PPR, provision_point=8.0,
                            refund_budget=4.0, deadline_contribution=5)
    violated = [c for c in check_conditions(config, agents) if not c.satisfied]
    assert [c.name for c in violated] == ["refund_budget_below_cap"]
    assert not construct_profile(config, agents).feasible
    config = CampaignConfig(mechanism=Mechanism.PPS, provision_point=10.5,
                            cost_params=CostFunction(liquidity=1.0),
                            deadline_contribution=5)
    violated = [c for c in check_conditions(config, agents) if not c.satisfied]
    assert [c.name for c in violated] == ["provision_securities_affordable"]
    assert not construct_profile(config, agents).feasible


@criterion(6, "allocation monotonicity and reward time-decrease")
def test_criterion_6_monotonicity_properties():
    cf = CostFunction()
    # allocation for a fixed payment shrinks as issuance grows, so pricing
    # at the smaller of two legs never pays less
    xs = [0.1 + 0.5 * i for i in range(10)]
    qs = [0.0, 0.5, 1.0, 2.0, 4.0, 7.0, 10.0]
    for x in xs:
        for q_small, q_large in zip(qs, qs[1:]):
            assert cf.securities_for(x, q_small) > cf.securities_for(x, q_large)
            assert cf.securities_for(x, min(q_small, q_large)) >= \
                cf.securities_for(x, q_large)
    # refunds along a dual-market run never improve with time
    config = CampaignConfig(mechanism=Mechanism.PPSN,
                            provision_point_pair=(50.0, 50.0),
                            cost_params=CostFunction(liquidity=1.0),
                            deadline_contribution=12)
    actions = [Action(i, 1.0, Market.FOR if i % 2 == 0 else Market.AGAINST, i)
               for i in range(10)]
    _, dual = run_campaign(config, actions)
    refunds = [r.securities - r.amount for r in dual.ledger]
    assert all(later <= earlier + 1e-12
               for earlier, later in zip(refunds, refunds[1:]))
    assert refunds[-1] < refunds[0]
    # equal-score reward shares strictly decrease with report order
    for n in range(3, 9):
        reports = [BeliefReport(agent_id=i, information=0, prediction=0.5,
                                tick=i) for i in range(n)]
        ledger = score_reports(reports)
        weights = [ledger.weights[i] for i in range(n)]
        assert all(w1 > w2 for w1, w2 in zip(weights, weights[1:]))
        prefix = [sum(ledger.scores[j] for j in range(i + 1)) for i in range(n)]
        assert all(p2 >= p1 for p1, p2 in zip(prefix, prefix[1:]))


@criterion(7, "peer-prediction score reproduction and empirical properness")
def test_criterion_7_rbts():
    reports = [BeliefReport(agent_id=1, information=1, prediction=0.7),
               BeliefReport(agent_id=2, information=1, prediction=0.5),
               BeliefReport(agent_id=3, information=0, prediction=0.2)]
    scores = rbts_scores(reports)
    assert abs(scores[1] - 0.51) <= 1e-12
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(3, 9)
        profile = [BeliefReport(agent_id=i, information=rng.randrange(2),
                                prediction=rng.random()) for i in range(n)]
        assert all(0.0 <= s <= 2.0 for s in rbts_scores(profile).values())

    # symmetric binary world: two states, three agents, signal accuracy 0.7;
    # no report beats the truthful one by more than two standard errors
    accuracy = 0.7
    g_high = accuracy ** 2 + (1 - accuracy) ** 2   # peer-high freq given s=1
    g_low = 2 * accuracy * (1 - accuracy)          # peer-high freq given s=0
    truthful = {1: (1, g_high), 0: (0, g_low)}
    candidates = [(f, round(0.05 * k, 2)) for f in (0, 1) for k in range(21)]
    rng = random.Random(23)
    trials = 10_000
    gains: dict[tuple[int, tuple[int, float]], list[float]] = {}
    for _ in range(trials):
        world = rng.random() < 0.5
        signals = [(rng.random() < accuracy) == world for _ in range(3)]
        s0 = int(signals[0])
        peers = [BeliefReport(agent_id=i + 1, information=int(signals[i + 1]),
                              prediction=g_high if signals[i + 1] else g_low)
                 for i in range(2)]
        def my_score(f, g):
            mine = BeliefReport(agent_id=0, information=f, prediction=g)
            return rbts_scores([mine, *peers])[0]
        base = my_score(*truthful[s0])
        for candidate in candidates:
            gains.setdefault((s0, candidate), []).append(
                my_score(*candidate) - base)
    for (signal, candidate), diffs in gains.items():
        n = len(diffs)
        mean = sum(diffs) / n
        var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
        stderr = math.sqrt(var / n)
        assert mean <= 2 * stderr, (signal, candidate, mean, stderr)


@criterion(8, "misreport incentive table for the naive combination")
def test_criterion_8_misreport_demo(tmp_path, capsys):
    epsilons = [round(0.05 * i, 2) for i in range(11)]
    securities = [0.0, 1.0, 5.0]
    rows = misreport_gap_rows(epsilons, securities)
    assert len(rows) == 33
    for epsilon, quantity, gap in rows:
        assert gap <= 0.0
        if epsilon > 0 and quantity > 0:
            assert gap < 0.0
        else:
            assert gap == 0.0
    assert main(["demo", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "demo.csv").read_text().splitlines()
    assert len(lines) == 34


@criterion(9, "cost-function round-trip, slope, and convexity grids")
def test_criterion_9_cost_core():
    cf = CostFunction()
    for i in range(101):
        q = float(i)
        assert cf.inverse_cost(cf.cost(q)) == pytest.approx(q, rel=1e-9, abs=1e-9)
    h = 1e-4
    for i in range(21):
        for j in range(11):
            x = 0.01 + 9.99 * i / 20
            q = float(j)
            slope = (cf.securities_for(x + h, q)
                     - cf.securities_for(x - h, q)) / (2 * h)
            assert slope > 1.0
    for i in range(40):
        q = 0.25 + 0.25 * i
        assert cf.cost(q + 0.25) - 2 * cf.cost(q) + cf.cost(q - 0.25) > 0.0


@criterion(10, "byte-identical reports on rerun")
def test_criterion_10_determinism(tmp_path):
    for mechanism, seed in ((Mechanism.PPRN, 4), (Mechanism.PPSX, 6)):
        template = ScenarioTemplate(mechanism=mechanism, agent_count=5)
        scenario = generate_scenario(template, seed=seed)
        path = tmp_path / f"{mechanism.value}.json"
        save_scenario(scenario, path)
        out_a = tmp_path / f"{mechanism.value}_a"
        out_b = tmp_path / f"{mechanism.value}_b"
        first = run_scenario(scenario, out_dir=out_a)
        second = run_scenario(scenario, out_dir=out_b)
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        assert names  # settlement, ledger, summary at minimum
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert first.outcome.verdict is second.outcome.verdict
