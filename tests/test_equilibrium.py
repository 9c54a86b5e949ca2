import collections
import dataclasses
import math
import random
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from provpoint import equilibrium, mechanisms
from provpoint.costfn import CostFunction
from provpoint.equilibrium import (
    EquilibriumProfile,
    _met,
    _own_win_weight,
    _Evaluator,
    certify,
    check_conditions,
    construct_profile,
    contribution_bound,
    refund_cap,
    security_quantity,
)
from provpoint.mechanisms import (
    Action,
    DualMarketState,
    belief_paid,
    new_states,
    payoff,
    prefix_sums,
    returned,
    run_campaign,
)
from provpoint.model import (
    AgentProfile,
    BeliefSide,
    CampaignConfig,
    ContributionRecord,
    Market,
    Mechanism,
    Verdict,
    own_market,
)
from provpoint.runner import profile_from_actions
from provpoint.scenario import ScenarioTemplate, generate_scenario, parse_scenario

GOLDEN_GENERATED = Path(__file__).resolve().parent / "golden_generated"


def _at(book: DualMarketState, raised_for: float, raised_against: float) -> DualMarketState:
    """A ledger-free book with ``book``'s markets holding the given money."""
    return DualMarketState(book.target, book.cf, book.min_leg, [raised_for, raised_against])


def _copy(book: DualMarketState) -> DualMarketState:
    return _at(book, *book.raised)


def _engine_path(config: CampaignConfig, agents: list[AgentProfile],
                 profile: EquilibriumProfile):
    """The certifiers' record of the profile's play, off the engine's book of it."""
    return equilibrium._path(config, agents, profile,
                             run_campaign(config, profile.plays())[1])


def _arrivals(config: CampaignConfig, order: list[AgentProfile],
              rewards: dict[int, float]) -> list[tuple[AgentProfile, Market, float]]:
    """Each agent of ``order`` with its own market and belief reward: what
    the reference walks play for it."""
    return [(a, own_market(config, a), rewards.get(a.id, 0.0)) for a in order]


def _placed(config: CampaignConfig, slot: _Evaluator, **changes) -> _Evaluator:
    """A new evaluator for ``slot``'s agent and market, placed at its slot
    with ``changes`` to the slot's fields."""
    fields = {name: getattr(slot, name) for name in (
        "amount", "others_for", "others_against", "issued", "bound", "provision_viable",
        "closed")}
    placed = _Evaluator(config, slot.agent, slot.market, slot.reward, slot.side)
    placed.place(**{**fields, **changes})
    return placed


def agent(theta, aid=0, eps=0.0, side=BeliefSide.PROVISION_LIKELY, **kw):
    return AgentProfile(id=aid, valuation=theta, belief_epsilon=eps,
                        belief_side=side, **kw)


def ppr_config(h0=10.0, budget=5.0):
    return CampaignConfig(mechanism=Mechanism.PPR, provision_point=h0,
                          refund_budget=budget, deadline_contribution=5)


def pprn_config(h_for=20.0, h_against=15.0, budget=5.0):
    return CampaignConfig(mechanism=Mechanism.PPRN,
                          provision_point_pair=(h_for, h_against),
                          refund_budget=budget, deadline_contribution=5)


def ppsn_config(h_for=5.0, h_against=4.0, liquidity=30.0):
    return CampaignConfig(mechanism=Mechanism.PPSN,
                          provision_point_pair=(h_for, h_against),
                          cost_params=CostFunction(liquidity=liquidity),
                          deadline_contribution=5)


def pprx_config(h0=14.0, belief=6.0, contribution=3.0):
    return CampaignConfig(mechanism=Mechanism.PPRX, provision_point=h0,
                          belief_budget=belief, contribution_budget=contribution,
                          deadline_contribution=6, deadline_belief=4)


def ppsx_config(h0=8.0, belief=6.0, liquidity=40.0):
    return CampaignConfig(mechanism=Mechanism.PPSX, provision_point=h0,
                          belief_budget=belief,
                          cost_params=CostFunction(liquidity=liquidity),
                          deadline_contribution=6, deadline_belief=4)


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------


def cap(config, a, side=BeliefSide.PROVISION_LIKELY, reward=0.0):
    return refund_cap(config, a, side, reward)


def test_bound_pprn_values():
    assert cap(pprn_config(50.0, 50.0, 10.0), agent(10.0)) == pytest.approx(
        100.0 / 110.0 * 10.0)
    assert cap(pprn_config(50.0, 50.0, 1e-12), agent(10.0)) == pytest.approx(
        10.0, rel=1e-9)
    assert cap(pprn_config(50.0, 50.0, 10.0), agent(0.0)) == 0.0
    assert cap(pprn_config(50.0, 50.0, 10.0), agent(-10.0)) == pytest.approx(
        100.0 / 110.0 * 10.0)


# The securities family's bounds: the payment at the issuance for the
# security quantity the bound buys; PPS and PPSN carry no belief reward.
def bound_ppsx(a, cf, issued, reward=0.0):
    return cf.contribution_for(security_quantity(a, a.belief_side, reward), issued)


bound_pps = bound_ppsn = bound_ppsx


def test_bound_ppsn_values():
    cf = CostFunction()
    assert bound_ppsn(agent(1.0), cf, 0.0) == pytest.approx(
        math.log((1 + math.e) / 2), rel=1e-12)
    assert bound_ppsn(agent(0.0), cf, 0.0) == 0.0
    # the bound is exactly the payment whose allocation equals |valuation|
    x = bound_ppsn(agent(1.0), cf, 0.0)
    assert cf.securities_for(x, 0.0) == pytest.approx(1.0, rel=1e-9)
    # a later arrival pays more for the same security block: the bound grows
    # with issuance toward |valuation| (convex cost, slope below one)
    assert bound_ppsn(agent(1.0), cf, 10.0) > bound_ppsn(agent(1.0), cf, 0.0)
    assert bound_ppsn(agent(1.0), cf, 10.0) < 1.0


def test_bound_pprx_values():
    config = pprx_config(h0=20.0, contribution=5.0)
    plus = agent(10.0, eps=0.0, side=BeliefSide.PROVISION_LIKELY)
    assert cap(config, plus, BeliefSide.PROVISION_LIKELY, 2.0) == pytest.approx(9.6)
    minus = agent(10.0, eps=0.0, side=BeliefSide.REJECTION_LIKELY)
    assert cap(config, minus, BeliefSide.REJECTION_LIKELY, 0.0) == pytest.approx(8.0)
    # the reward sits on the reported side's branch, not the believed one's:
    # a provision-minded agent reporting rejection nets it out
    assert cap(config, plus, BeliefSide.REJECTION_LIKELY, 2.0) == pytest.approx(6.4)
    # large reward drives the rejection-side numerator negative: clamp
    assert cap(config, agent(1.0, eps=0.3, side=BeliefSide.REJECTION_LIKELY),
               BeliefSide.REJECTION_LIKELY, 5.0) == 0.0


def test_bound_ppsx_values():
    cf = CostFunction()
    plus = agent(1.0, side=BeliefSide.PROVISION_LIKELY)
    assert bound_ppsx(plus, cf, 0.0, 0.0) == pytest.approx(
        math.log((1 + math.e) / 2), rel=1e-12)
    minus = agent(1.0, side=BeliefSide.REJECTION_LIKELY)
    assert bound_ppsx(minus, cf, 0.0, 0.0) == bound_ppsx(plus, cf, 0.0, 0.0)
    assert bound_ppsx(plus, cf, 0.0, 2.0) > bound_ppsx(minus, cf, 0.0, 2.0)
    assert bound_ppsx(minus, cf, 0.0, 2.0) == 0.0  # reward above valuation


def test_bound_ppr_pps_base_mechanisms():
    assert cap(ppr_config(10.0, 5.0), agent(10.0)) == pytest.approx(10.0 / 15.0 * 10.0)
    cf = CostFunction()
    assert bound_pps(agent(1.0), cf, 0.0) == pytest.approx(
        math.log((1 + math.e) / 2), rel=1e-12)


# ---------------------------------------------------------------------------
# Existence conditions
# ---------------------------------------------------------------------------


def test_conditions_pprn_example():
    # aggregate valuations 100 for / 60 against; caps are 90 and 45
    agents = [agent(50.0, 0), agent(50.0, 1), agent(-60.0, 2)]
    checks = {c.name: c for c in check_conditions(
        pprn_config(50.0, 40.0, 10.0), agents)}
    cap_for = checks["refund_budget_below_provision_cap"]
    assert cap_for.rhs == pytest.approx(90.0) and cap_for.satisfied
    cap_against = checks["refund_budget_below_rejection_cap"]
    assert cap_against.rhs == pytest.approx(45.0) and cap_against.satisfied


def test_conditions_pprx_example():
    agents = [agent(5.0, 0), agent(5.0, 1), agent(5.0, 2)]
    checks = {c.name: c for c in check_conditions(
        pprx_config(h0=20.0, belief=10.0, contribution=1.0), agents)}
    head = checks["target_within_valuation_plus_belief_budget"]
    assert head.satisfied and head.lhs == 20.0 and head.rhs == 25.0


def test_conditions_ppsn_affordability_violated():
    # securities needed to raise 5 from a cold market exceed the valuation 4
    agents = [agent(4.0, 0), agent(-10.0, 1)]
    checks = {c.name: c for c in check_conditions(
        ppsn_config(h_for=5.0, h_against=4.0, liquidity=1.0), agents)}
    afford = checks["provision_securities_affordable"]
    assert not afford.satisfied
    assert afford.lhs == pytest.approx(5.689772519290960, rel=1e-12)
    assert afford.rhs == 4.0


# ---------------------------------------------------------------------------
# Profile construction
# ---------------------------------------------------------------------------


def test_construct_proportional_fill():
    # two optimists with equal 9.6 bounds fill a 12.0 target at 6.0 each
    agents = [agent(10.0, i, eps=0.0) for i in range(2)] + [
        agent(10.0, 2, eps=0.0)]
    config = pprx_config(h0=12.0, belief=6.0, contribution=5.0)
    rewards = {0: 2.0, 1: 2.0, 2: 0.0}
    profile = construct_profile(config, agents, rewards)
    b0 = cap(config, agents[0], reward=2.0)
    scale = 12.0 / (2 * b0 + cap(config, agents[2]))
    assert profile.entries[0].amount == pytest.approx(scale * b0)
    assert sum(e.amount for e in profile.entries.values()) == pytest.approx(12.0)


def test_construct_single_agent_clips_to_target():
    config = ppsx_config(h0=0.5, belief=3.0, liquidity=40.0)
    agents = [agent(10.0, 0), agent(10.0, 1, arrival_contribution=1),
              agent(10.0, 2, arrival_contribution=2)]
    profile = construct_profile(config, agents, {0: 1.0, 1: 1.0, 2: 1.0})
    assert profile.entries[0].amount == pytest.approx(0.5)
    assert profile.entries[1].amount == 0.0


def test_construct_pprn_fills_both_sides():
    agents = [agent(10.0, i) for i in range(3)] + [agent(-12.0, i) for i in (3, 4)]
    profile = construct_profile(pprn_config(), agents)
    assert profile.feasible
    assert profile.total(Market.FOR) == pytest.approx(20.0, rel=1e-12)
    assert profile.total(Market.AGAINST) == pytest.approx(15.0, rel=1e-12)
    # 30 for vs 24 against: the certifier's replay provisions
    assert certify(pprn_config(), agents, profile).expected_verdict is Verdict.PROVISIONED
    for a in agents:
        assert profile.entries[a.id].amount < contribution_bound(pprn_config(), a)


def test_construct_infeasible_reported():
    # refund budget beyond the cap shrinks bounds below the fill
    agents = [agent(10.0, i) for i in range(3)] + [agent(-12.0, i) for i in (3, 4)]
    profile = construct_profile(pprn_config(budget=18.0), agents)
    assert not profile.feasible
    assert "short" in profile.reason
    # targets whose sum overflows are refused when the config is built, so
    # no verdict is decided by the overflow of every cap's pot
    with pytest.raises(ValueError, match="finite sum"):
        pprn_config(h_for=1e308, h_against=1e308)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def pprn_agents():
    return [agent(10.0, i) for i in range(3)] + [agent(-12.0, i) for i in (3, 4)]


def test_certify_ne_pprn():
    config = pprn_config()
    profile = construct_profile(config, pprn_agents())
    report = certify(config, pprn_agents(), profile)
    assert report.certified
    assert report.deviations == []
    for check in report.indifference:
        assert check.lhs == pytest.approx(check.rhs, rel=1e-9, abs=1e-9)


def test_certify_ne_flags_overbound_profile():
    # scale everyone past the bound: shaving into the refund branch must win
    config = pprn_config(h_for=28.0, h_against=15.0)
    agents = pprn_agents()
    profile = EquilibriumProfile()
    for i in range(3):
        profile.entries[i] = Action(i, 28.0 / 3, Market.FOR, 5)
    for i in (3, 4):
        profile.entries[i] = Action(i, 7.5, Market.AGAINST, 5)
    assert 28.0 / 3 > cap(config, agents[0])
    report = certify(config, agents, profile)
    assert not report.certified
    assert any(d.kind == "contribution" for d in report.deviations)


def test_certify_ne_infeasible_profile_not_certified():
    config = pprn_config(budget=18.0)
    profile = construct_profile(config, pprn_agents())
    report = certify(config, pprn_agents(), profile)
    assert not report.feasible and not report.certified


def test_certify_spe_ppsn():
    config = ppsn_config()
    agents = [agent(8.0, 0, arrival_contribution=0),
              agent(9.0, 1, arrival_contribution=1),
              agent(-7.0, 2, arrival_contribution=2),
              agent(-8.0, 3, arrival_contribution=3)]
    profile = construct_profile(config, agents)
    assert profile.feasible
    report = certify(config, agents, profile)
    assert report.certified, report.deviations[:3]
    # the second optimist clips to the remaining target on path; its report
    # bound is priced at the min leg it found, the untouched rejection side
    bound = next(c.bound for c in report.indifference if c.agent_id == 1)
    assert profile.entries[1].amount < bound
    assert bound == contribution_bound(config, agents[1], issued=0.0)


def test_certify_spe_post_target_arrival_plays_zero():
    config = ppsn_config()
    agents = [agent(20.0, 0, arrival_contribution=0),
              agent(9.0, 1, arrival_contribution=1),
              agent(-7.0, 2, arrival_contribution=2)]
    profile = construct_profile(config, agents)
    assert profile.feasible
    assert profile.entries[0].amount == pytest.approx(5.0)  # fills alone
    assert profile.entries[1].amount == 0.0
    assert profile.entries[2].amount == 0.0
    report = certify(config, agents, profile)
    assert report.certified
    # negative control: a post-fill arrival prescribed a positive play
    profile.entries[1] = Action(1, 1.0, Market.FOR, 1)
    report = certify(config, agents, profile)
    assert not report.certified
    assert any(d.agent_id == 1 and "market closed but profile prescribes x=1" in d.detail
               for d in report.deviations)


def test_certify_spe_infeasible_profile_not_certified():
    # four arrivals' bounds cannot raise a target of 100: no path is searched
    config = CampaignConfig(mechanism=Mechanism.PPS, provision_point=100.0,
                            cost_params=CostFunction(liquidity=30.0),
                            deadline_contribution=5)
    agents = [agent(6.0, i, arrival_contribution=i) for i in range(4)]
    profile = construct_profile(config, agents)
    assert not profile.feasible
    report = certify(config, agents, profile)
    assert not report.feasible and not report.certified
    # the reason is written once, in the profile's row, not repeated as a note
    assert report.to_dict()["profile"]["reason"] == profile.reason
    assert report.notes == []
    assert report.deviations == [] and report.indifference == []
    # each agent's row keeps its play; without a path it has no bound
    rows = report.to_dict()["agents"]
    assert [row["id"] for row in rows] == [0, 1, 2, 3]
    assert all(row[key] is None for row in rows for key in ("bound", "lhs", "rhs", "clamped"))


def test_construct_profile_needs_three_agents_to_score_beliefs():
    with pytest.raises(ValueError, match="belief-phase mechanisms require at least 3 agents"):
        construct_profile(pprx_config(), [agent(10.0, 0), agent(8.0, 1)])


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_rules_rows_call_utilities_by_the_module_names(mechanism, monkeypatch):
    # a wrapper on a utility's name in this module, as the benchmark's tracer
    # installs one, sees every evaluation of its own mechanism and no other's;
    # the wrappers go on before any row is built, since ``payoff_row`` looks
    # the name up as it builds a row, and the tracer relies on that too
    calls = {f"{m.value.lower()}_utility": 0 for m in Mechanism}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(equilibrium, name, counted(name, getattr(equilibrium, name)))
    scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=6),
                                 seed=1)
    config, agents = scenario.config, scenario.agents
    assert certify(config, agents, construct_profile(config, agents)).certified
    own = f"{mechanism.value.lower()}_utility"
    assert calls[own] > 0
    assert calls == {**dict.fromkeys(calls, 0), own: calls[own]}


def _own_row(mechanism, who, market, side, verdict, amount, securities, total_for,
             total_against, budget, reward):
    """Each mechanism's payoff row as its own expression, in its own order
    of operations, as the rows were written before they shared ``payoff``."""
    provisioned = verdict is Verdict.PROVISIONED
    value = who.valuation if provisioned else 0.0
    single = Verdict.PROVISIONED if provisioned else Verdict.EXPIRED
    if mechanism is Mechanism.PPR:
        return value - amount + returned(Market.FOR, single, amount, total_for, budget)
    if mechanism is Mechanism.PPS:
        return value - amount + returned(Market.FOR, single, amount, 0.0, None, securities)
    if mechanism is Mechanism.PPRN:
        return value - amount + returned(market, verdict, amount, total_for + total_against,
                                         budget)
    if mechanism is Mechanism.PPSN:
        return value - amount + returned(market, verdict, amount, 0.0, None, securities)
    if mechanism is Mechanism.PPRX:
        return (value - amount + returned(Market.FOR, single, amount, total_for, budget)
                + belief_paid(side, provisioned, reward))
    return (value - amount + returned(Market.FOR, single, amount, 0.0, None, securities)
            + belief_paid(side, provisioned, reward))


_ROW_CONFIGS = {m: generate_scenario(ScenarioTemplate(m, 6), seed=1).config for m in Mechanism}
_BUDGET_FIELD = {Mechanism.PPR: "refund_budget", Mechanism.PPRN: "refund_budget",
                 Mechanism.PPRX: "contribution_budget"}


@settings(deadline=None, max_examples=300)
@given(valuation=st.floats(-100.0, 100.0), amount=st.floats(0.0, 50.0),
       totals=st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 200.0)),
       securities=st.floats(0.0, 100.0), budget=st.floats(1e-6, 20.0),
       reward=st.floats(0.0, 10.0), side=st.sampled_from(list(BeliefSide)))
@example(valuation=-0.0, amount=0.0, totals=(0.0, 0.0), securities=0.0, budget=5.0,
         reward=0.0, side=BeliefSide.PROVISION_LIKELY)
@example(valuation=-0.0, amount=0.0, totals=(0.0, 0.0), securities=0.0, budget=5.0,
         reward=2.0, side=BeliefSide.REJECTION_LIKELY)
@example(valuation=0.0, amount=0.0, totals=(7.0, 3.0), securities=0.0, budget=5.0,
         reward=0.0, side=BeliefSide.PROVISION_LIKELY)
def test_payoff_bound_by_each_row_is_that_rows_expression(valuation, amount, totals,
                                                          securities, budget, reward, side):
    # the one payoff rule, bound as ``payoff_row`` binds it, gives each
    # mechanism's own expression to the bit, the sign of zero included (a
    # valuation of -0.0 reaches the rows through the API), on each market
    # and verdict the evaluator builds that row for: the own branch's,
    # expiry's and, for a rejection-side slot, provision's
    who = agent(valuation)
    for mechanism in Mechanism:
        config = _ROW_CONFIGS[mechanism]
        if mechanism in _BUDGET_FIELD:
            config = dataclasses.replace(config, **{_BUDGET_FIELD[mechanism]: budget})
        for market in mechanism.markets:
            verdicts = ((Verdict.PROVISIONED, Verdict.EXPIRED) if market is Market.FOR
                        else (Verdict.REJECTED, Verdict.EXPIRED, Verdict.PROVISIONED))
            for verdict in verdicts:
                row = equilibrium.payoff_row(config, who, market, reward, side, verdict)
                got = row(amount, securities, *totals)
                want = _own_row(mechanism, who, market, side, verdict, amount, securities,
                                *totals, budget, reward)
                assert got.hex() == want.hex(), (mechanism, market, verdict, got, want)


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_each_certification_replays_the_path_once(mechanism, monkeypatch):
    # one replay and one set of on-path slots per certification, which
    # checks each on-path slot once, as built, not a copy of it
    scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=16),
                                 seed=3)
    config, agents = scenario.config, scenario.agents
    profile = construct_profile(config, agents)
    replays, built, checked = [], [], []
    path, slots_of, check = equilibrium._path, equilibrium._slots, _Evaluator.check

    def counting(*args):
        replays.append(args)
        return path(*args)

    def building(*args):
        built.append(slots_of(*args))
        return built[-1]

    def checking(slot, *args):
        checked.append(slot)
        return check(slot, *args)

    monkeypatch.setattr(equilibrium, "_path", counting)
    monkeypatch.setattr(equilibrium, "_slots", building)
    monkeypatch.setattr(_Evaluator, "check", checking)
    certify(config, agents, profile)
    assert len(replays) == 1
    assert len(built) == 1
    assert len(checked) == len(built[0])
    assert all(slot is on_path for slot, on_path in zip(checked, built[0]))


def test_certify_spe_flags_overbound_play():
    config = ppsn_config()
    agents = [agent(8.0, 0, arrival_contribution=0),
              agent(9.0, 1, arrival_contribution=1),
              agent(-7.0, 2, arrival_contribution=2),
              agent(-8.0, 3, arrival_contribution=3)]
    profile = construct_profile(config, agents)
    # shift stake onto the first optimist so it plays beyond its bound while
    # the pot still fills exactly; shaving into the refund branch then wins
    first = profile.entries[0]
    second = profile.entries[1]
    assert second.amount > 0.6
    profile.entries[0] = dataclasses.replace(first, amount=first.amount + 0.6)
    profile.entries[1] = dataclasses.replace(second, amount=second.amount - 0.6)
    report = certify(config, agents, profile)
    assert not report.certified
    assert any(d.agent_id == 0 and d.kind == "contribution"
               for d in report.deviations)


@settings(deadline=None, max_examples=200)
@given(mechanism=st.sampled_from([Mechanism.PPRN, Mechanism.PPSN]),
       valuation=st.floats(-100.0, 100.0), amount=st.floats(0.0, 50.0),
       others=st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 200.0)),
       securities=st.floats(0.0, 100.0), budget=st.floats(0.0, 20.0))
def test_preference_flip_indifference(mechanism, valuation, amount, others, securities,
                                      budget):
    # same stake, same totals, same securities, either market: the even-odds
    # half-sums over both verdicts agree, 0.5 * (v - x + share) for PPRN and
    # 0.5 * (v - 2x + s) for PPSN, so a flip at fixed totals cannot gain
    who = agent(valuation)
    total_for, total_against = others[0] + amount, others[1]

    def half_sum(market):
        def utility(verdict):
            if mechanism is Mechanism.PPRN:
                return payoff(who, market, who.belief_side, verdict, amount,
                              total_for + total_against, budget, securities, 0.0)
            return payoff(who, market, who.belief_side, verdict, amount, 0.0, None,
                          securities, 0.0)
        return 0.5 * (utility(Verdict.PROVISIONED) + utility(Verdict.REJECTED))

    scale = max(1.0, abs(valuation), amount, securities, budget)
    assert abs(half_sum(Market.FOR) - half_sum(Market.AGAINST)) <= 1e-12 * scale


def test_certify_ne_pprx():
    agents = [agent(10.0, 0, eps=0.1), agent(12.0, 1, eps=0.2),
              agent(8.0, 2, eps=0.15, side=BeliefSide.REJECTION_LIKELY),
              agent(9.0, 3, eps=0.05, side=BeliefSide.REJECTION_LIKELY)]
    config = pprx_config()
    profile = construct_profile(config, agents)
    report = certify(config, agents, profile)
    assert report.certified
    for check in report.indifference:
        if not check.clamped:
            scale = max(abs(check.lhs), abs(check.rhs), 1e-9)
            assert abs(check.lhs - check.rhs) <= 1e-6 * scale


def test_certify_spe_ppsx():
    agents = [agent(10.0, 0, eps=0.1, arrival_contribution=0),
              agent(12.0, 1, eps=0.2, arrival_contribution=1),
              agent(8.0, 2, eps=0.15, side=BeliefSide.REJECTION_LIKELY,
                    arrival_contribution=2),
              agent(9.0, 3, eps=0.05, side=BeliefSide.REJECTION_LIKELY,
                    arrival_contribution=3)]
    config = ppsx_config()
    profile = construct_profile(config, agents)
    assert profile.feasible
    report = certify(config, agents, profile)
    assert report.certified, report.deviations[:3]


# ---------------------------------------------------------------------------
# Indifference checks: the payoff rows at the bound
# ---------------------------------------------------------------------------


OFF_PREFERENCE = "ppsn_off_preference"
INDIFFERENCE_CASES = [(m, n) for m in Mechanism for n in (6, 24, 64)] + [OFF_PREFERENCE]


def _case_id(case) -> str:
    return case if isinstance(case, str) else f"{case[0].value}-n{case[1]}"


def _checks_and_slots(case):
    """The config, the report's indifference checks and the on-path slots
    of ``case``: a generated scenario ``(mechanism, n)`` (seed 1) at its
    constructed profile, or the ``ppsn_off_preference`` golden at its
    explicit plays, where agent 3 stakes on the rejection market first."""
    if case == OFF_PREFERENCE:
        scenario = parse_scenario(GOLDEN_GENERATED / case / "scenario.json")
        profile = profile_from_actions(scenario, {}, {})
    else:
        mechanism, n = case
        scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=n),
                                     seed=1)
        profile = construct_profile(scenario.config, scenario.agents)
    config = scenario.config
    slots = equilibrium._slots(config, scenario.agents, profile,
                               _engine_path(config, scenario.agents, profile))
    return config, [slot.indifference(config) for slot in slots], slots


def _closed_form_indifference(config: CampaignConfig, agent: AgentProfile, bound: float,
                              issued: float, reward: float) -> tuple[float, float, bool]:
    """Each bound's defining equation as its closed form states it, on the
    agent's own market with the denominators at the filled targets, as
    ``(lhs, rhs, clamped)``: the reference for the payoff rows' check."""
    mechanism, theta = config.mechanism, agent.valuation
    for_market = own_market(config, agent) is Market.FOR
    optimist = agent.belief_side is BeliefSide.PROVISION_LIKELY
    if mechanism in (Mechanism.PPR, Mechanism.PPRN):
        share = bound / config.target_sum * config.refund_budget
        return (theta - bound, share, False) if for_market else (-bound, theta + share, False)
    if mechanism is Mechanism.PPRX:
        p = agent.provision_belief
        q = 1.0 - p
        share = bound / config.provision_point * config.contribution_budget
        if optimist:
            return p * (theta - bound + reward), q * share, False
        return (p * (theta - bound), q * (share + reward),
                bound == 0.0 and p * theta - q * reward < 0)
    allocated = config.cost_params.securities_for(bound, issued)
    if mechanism is Mechanism.PPSX:
        if optimist:
            return theta + reward - bound, allocated - bound, False
        return (theta - bound, allocated - bound + reward,
                bound == 0.0 and theta - reward < 0)
    if for_market:
        return theta - bound, allocated - bound, False
    return -bound, theta + allocated - bound, False


@pytest.mark.parametrize("case", INDIFFERENCE_CASES, ids=_case_id)
def test_indifference_check_meets_the_closed_forms(case):
    config, checks, slots = _checks_and_slots(case)
    assert len(checks) == len(slots) > 0
    if case == OFF_PREFERENCE:
        # the equation is stated on the agent's own market, not the play's
        assert any(slot.market is not own_market(config, slot.agent) for slot in slots)
    for check, slot in zip(checks, slots):
        assert (check.agent_id, check.bound) == (slot.agent.id, slot.bound)
        lhs, rhs, clamped = _closed_form_indifference(config, slot.agent, slot.bound,
                                                      slot.issued, slot.reward)
        for got, expected in ((check.lhs, lhs), (check.rhs, rhs)):
            assert abs(got - expected) <= 1e-15 * max(abs(got), abs(expected)), (
                check, lhs, rhs)
        assert check.clamped == clamped


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_indifference_check_sees_a_scaled_bound(mechanism):
    # negative control: a bound a millionth too large leaves the two rows
    # apart by far more than rounding
    config, checks, slots = _checks_and_slots((mechanism, 24))
    scaled = 0
    for check, slot in zip(checks, slots):
        if slot.bound == 0.0:
            continue
        scale = max(abs(check.lhs), abs(check.rhs), slot.bound)
        assert abs(check.lhs - check.rhs) <= 1e-13 * scale, check
        slot.bound *= 1.0 + 1e-6
        off = slot.indifference(config)
        assert abs(off.lhs - off.rhs) > 1e-9 * scale, (check, off)
        scaled += 1
    assert scaled > 0


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_indifference_check_reads_the_payoff_row(mechanism, monkeypatch):
    # negative control: a payoff row that pays one more on provision moves
    # each check's lhs - rhs by that unit (PPRx weighs it by the agent's
    # provision belief), toward lhs where provision is the agent's own
    # branch; the closed forms cannot see the row
    config, checks, slots = _checks_and_slots((mechanism, 6))
    name = f"{mechanism.value.lower()}_utility"
    row = getattr(equilibrium, name)

    def perturbed(agent, market, side, verdict, *args):
        return (row(agent, market, side, verdict, *args)
                + (1.0 if verdict is Verdict.PROVISIONED else 0.0))

    monkeypatch.setattr(equilibrium, name, perturbed)
    _, moved, _ = _checks_and_slots((mechanism, 6))
    for before, after, slot in zip(checks, moved, slots, strict=True):
        sign = 1.0 if own_market(config, slot.agent) is Market.FOR else -1.0
        weight = slot.agent.provision_belief if mechanism is Mechanism.PPRX else 1.0
        shift = (after.lhs - after.rhs) - (before.lhs - before.rhs)
        assert shift == pytest.approx(sign * weight, rel=1e-9), (before, after)


def test_report_serializes():
    config = pprn_config()
    profile = construct_profile(config, pprn_agents())
    report = certify(config, pprn_agents(), profile)
    data = report.to_dict()
    assert data["certified"] is True
    assert data["mechanism"] == "PPRN"
    assert data["kind"] == "Nash"
    # feasibility is written once, in the profile's row
    assert "feasible" not in data and data["profile"]["feasible"] is True
    assert [row["id"] for row in data["agents"]] == [0, 1, 2, 3, 4]
    assert all(row["bound"] is not None for row in data["agents"])


# ---------------------------------------------------------------------------
# Belief ordering: a provision-minded agent is asked for more
# ---------------------------------------------------------------------------


def flipped_bounds(config, a, belief_reward=0.0):
    """The agent's bound believing provision likely, and believing rejection
    likely, all else equal."""
    return tuple(contribution_bound(config, dataclasses.replace(a, belief_side=side),
                                    belief_reward=belief_reward)
                 for side in (BeliefSide.PROVISION_LIKELY, BeliefSide.REJECTION_LIKELY))


def test_ordering_gap_pprx():
    plus = agent(10.0, eps=0.1)
    config = pprx_config(h0=20.0, belief=6.0, contribution=5.0)
    upper, lower = flipped_bounds(config, plus, belief_reward=2.0)
    assert upper > lower
    assert upper == cap(config, plus, BeliefSide.PROVISION_LIKELY, 2.0)
    minus = dataclasses.replace(plus, belief_side=BeliefSide.REJECTION_LIKELY)
    assert lower == cap(config, minus, BeliefSide.REJECTION_LIKELY, 2.0)


def test_ordering_gap_ppsx():
    cf = CostFunction()
    config = ppsx_config(h0=20.0, belief=6.0, liquidity=1.0)
    upper, lower = flipped_bounds(config, agent(10.0, eps=0.1), belief_reward=2.0)
    assert upper == pytest.approx(cf.contribution_for(12.0, 0.0), rel=1e-12)
    assert lower == pytest.approx(cf.contribution_for(8.0, 0.0), rel=1e-12)
    assert upper > lower


def test_ordering_gap_degenerate_symmetric():
    config = pprx_config(h0=20.0, belief=6.0, contribution=5.0)
    upper, lower = flipped_bounds(config, agent(10.0, eps=0.0))
    assert upper == lower


def test_ordering_gap_asymmetric_beliefs_alone():
    # no reward at stake: the refund-bonus gap still opens on beliefs alone
    config = pprx_config(h0=20.0, belief=6.0, contribution=5.0)
    upper, lower = flipped_bounds(config, agent(10.0, eps=0.2))
    assert upper > lower


@pytest.mark.parametrize("mechanism", [Mechanism.PPRX, Mechanism.PPSX])
def test_a_provision_minded_agent_is_asked_for_more(mechanism):
    # The paper's ordering claim over generated scenarios: every agent, at
    # its priced belief reward, has a strictly larger bound believing
    # provision likely than believing rejection likely. Controls on the same
    # agents: with no reward and symmetric beliefs the bounds are equal, and
    # with no reward at offset 0.2 only the refund bonus keeps a gap.
    checked = 0
    for n in (6, 24, 256, 1024):
        for seed in range(1, 11):
            scenario = generate_scenario(
                ScenarioTemplate(mechanism=mechanism, agent_count=n), seed=seed)
            config = scenario.config
            rewards = construct_profile(config, scenario.agents).belief_rewards
            for a in scenario.agents:
                upper, lower = flipped_bounds(config, a, rewards[a.id])
                assert upper > lower, (n, seed, a.id, upper, lower)
                upper, lower = flipped_bounds(config, dataclasses.replace(a, belief_epsilon=0.0))
                assert upper == lower, (n, seed, a.id, upper, lower)
                upper, lower = flipped_bounds(config, dataclasses.replace(a, belief_epsilon=0.2))
                assert (upper > lower if mechanism is Mechanism.PPRX else upper == lower), (
                    n, seed, a.id, upper, lower)
                checked += 1
    assert checked >= 13_100


# ---------------------------------------------------------------------------
# Slot evaluator against the per-call expected utility it replaced
# ---------------------------------------------------------------------------
# The three functions below are the certifier's former per-call expected
# utility, kept verbatim as the reference: the slot evaluator hoists their
# slot invariants without changing any arithmetic, so results must be equal
# with ==, not within a tolerance.


def _verdict_distribution(config: CampaignConfig, agent: AgentProfile,
                          market: Market, own_total: float,
                          rival_viable: bool) -> list[tuple[Verdict, float]]:
    """Outcome distribution for an agent playing on ``market``.

    While the agent's own market reaches its target the race is priced by
    its beliefs; otherwise the alternative is certain. The alternative is
    the rival market's verdict when that side can still fill (its own
    coalition's play is not stopped by this agent), expiry otherwise.
    """
    own_verdict = (Verdict.PROVISIONED if market is Market.FOR
                   else Verdict.REJECTED)
    if config.mechanism.dual_market and rival_viable:
        alt_verdict = (Verdict.PROVISIONED if market is Market.AGAINST
                       else Verdict.REJECTED)
    else:
        alt_verdict = Verdict.EXPIRED
    if _met(own_total, config.target(market)):
        p = _own_win_weight(config, agent)
        if market is Market.AGAINST:
            p = 1.0 - p
        return [(own_verdict, p), (alt_verdict, 1.0 - p)]
    return [(alt_verdict, 1.0)]


def _branch_utility(config: CampaignConfig, agent: AgentProfile, market: Market,
                    amount: float, securities: float, total_for: float,
                    total_against: float, belief_reward: float, side: BeliefSide,
                    verdict: Verdict) -> float:
    # the payoff rule with the arguments the mechanism fixes (``payoff_row``)
    mech = config.mechanism
    pool = (0.0 if mech.uses_securities else
            total_for + total_against if mech is Mechanism.PPRN else total_for)
    return payoff(agent, market if mech.dual_market else Market.FOR, side, verdict, amount,
                  pool, config.bonus_budget, securities,
                  belief_reward if mech.two_phase else 0.0)


def _expected_utility(config: CampaignConfig, slot: _Evaluator, market: Market,
                      amount: float, cf: CostFunction | None) -> float:
    """EU of contributing ``amount`` to ``market`` at this slot, everyone
    else fixed; the amount is truncated to the market's remaining capacity."""
    assert market is slot.market
    others = slot.others_for if market is Market.FOR else slot.others_against
    capacity = max(0.0, config.target(market) - others)
    effective = max(0.0, min(amount, capacity))
    securities = 0.0
    if config.mechanism.uses_securities and cf is not None:
        securities = cf.securities_for(effective, slot.issued)
    total_for = slot.others_for + (effective if market is Market.FOR else 0.0)
    total_against = slot.others_against + (effective if market is Market.AGAINST else 0.0)
    distribution = _verdict_distribution(
        config, slot.agent, market, others + effective, slot.provision_viable)
    return sum(
        weight * _branch_utility(config, slot.agent, market, effective, securities,
                                 total_for, total_against, slot.reward, slot.side, verdict)
        for verdict, weight in distribution
    )


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_slot_evaluator_matches_reference(mechanism, n, monkeypatch):
    scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=n),
                                 seed=n)
    config, agents = scenario.config, scenario.agents
    cf = config.cost_params
    profile = construct_profile(config, agents)
    slots = equilibrium._slots(config, agents, profile, _engine_path(config, agents, profile))
    if mechanism.sequential:
        sweep = _Evaluator.sweep

        def sweeping(slot, report, epsilon, state):
            slots.append(_placed(config, slot))
            return sweep(slot, report, epsilon, state)

        monkeypatch.setattr(_Evaluator, "sweep", sweeping)
        certify(config, agents, profile)
        monkeypatch.undo()
    for slot in slots:
        top = slot.top()
        for k in range(50):
            x = top * k / 49
            assert slot.eu(x) == _expected_utility(config, slot, slot.market, x, cf)


# ---------------------------------------------------------------------------
# SPE follower walks against the replays they replaced
# ---------------------------------------------------------------------------
# The two functions below are the SPE certifier's former play-by-play
# rollout and rival-fill replay, kept verbatim as the reference. The
# certifier reads the followers' money off one kernel query per probe state
# (DualMarketState.follow): for PPSN a walk play by play, whose payments
# must be equal with ==, and for PPS and PPSx prefix sums, which may differ
# from the summed payments by rounding alone.


def _rollout(config: CampaignConfig, book: DualMarketState,
             followers: list[tuple[AgentProfile, Market, float]]) -> list[float]:
    """Play the remaining arrivals' prescribed strategy (the bound at the
    current price, clipped to the remaining target) forward through
    ``book``; returns the amounts accepted while the book is open. Once the
    book closes every later arrival plays zero, so the walk stops there."""
    amounts: list[float] = []
    for agent, market, reward in followers:
        if book.closed:
            break
        bound = contribution_bound(config, agent, issued=book.price_issuance(market),
                                   belief_reward=reward)
        amounts.append(book.play(market, bound))
    return amounts


def _rival_fills(config: CampaignConfig, book: DualMarketState, own_market: Market,
                 followers: list[tuple[AgentProfile, Market, float]]) -> bool:
    """Whether the rival market's coalition, playing its prescribed
    strategy from this state, still reaches its target (the agent's own
    side frozen; issuance coupling priced at the frozen leg)."""
    rival = own_market.other
    book = _copy(book)
    for agent, market, reward in followers:
        if book.closed:
            break
        if market is rival:
            bound = contribution_bound(config, agent,
                                       issued=book.price_issuance(rival),
                                       belief_reward=reward)
            book.play(rival, bound)
    i = rival is Market.AGAINST
    return book.raised[i] >= book.target[i]


def _reference_probes(config: CampaignConfig, agents: list[AgentProfile],
                      profile: EquilibriumProfile):
    """Every probe state certify sweeps, in its order, with the follower
    plays the former walks were given: the profile's on the path, a rollout
    off it. Yields (agent, market, prescribed amount, provision viable,
    state, follower plays). Only a rejection-side state asks whether
    provision can still fill, and there the kernel's answer
    (``equilibrium._provision_fills``) is checked against the reference
    replay ``_rival_fills`` on the way."""
    play = _engine_path(config, agents, profile)
    slots = equilibrium._slots(config, agents, profile, play)
    final, plays = play.book, play.plays
    arrivals = _arrivals(config, play.order, profile.belief_rewards)
    path_plays = [(profile.entries[a.id].market, profile.entries[a.id].amount)
                  for a in play.order]
    for idx, ((agent, own_market, reward), raised, slot) in enumerate(
            zip(arrivals, play.found, slots)):
        followers = arrivals[idx + 1:]
        probes = equilibrium._probe_states(config, *raised, slot.bound, own_market)
        for k, money in enumerate(probes):
            state = _at(final, *money)
            if state.closed:
                continue
            after = _copy(state)
            if k == 0:
                market, prescribed = path_plays[idx]
                after.play(market, prescribed)
                follower_plays = path_plays[idx + 1:]
            else:
                market = own_market
                prescribed = after.play(market, contribution_bound(
                    config, agent, issued=state.price_issuance(market),
                    belief_reward=reward))
                amounts = _rollout(config, _copy(after), followers)
                follower_plays = [(m, x) for (_, m, _), x in
                                  zip_longest(followers, amounts, fillvalue=0.0)]
            provision = False
            if market is Market.AGAINST:
                provision = _rival_fills(config, state, market, followers)
                assert equilibrium._provision_fills(final, *money, plays, idx + 1,
                                                    play.bought) == provision
                if not provision:
                    continue  # the expiry corner is noted, not swept
            yield agent, market, prescribed, provision, state, follower_plays


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("mechanism", [m for m in Mechanism if m.sequential])
def test_spe_walks_match_reference(mechanism, n, monkeypatch):
    scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=n),
                                 seed=n)
    config, agents = scenario.config, scenario.agents
    profile = construct_profile(config, agents)
    swept = []  # the slot of each swept probe state
    sweep = _Evaluator.sweep

    def sweeping(slot, report, epsilon, state):
        swept.append(_placed(config, slot))
        return sweep(slot, report, epsilon, state)

    monkeypatch.setattr(_Evaluator, "sweep", sweeping)
    # at epsilon 0 PPSN's race bracket (equilibrium._race_certifies) and the
    # slots' gain bracket (_Evaluator.bracket) are off, so every open probe
    # state is walked and swept, and each sweep searches its slot exactly
    certify(config, agents, profile, epsilon=0.0)
    monkeypatch.undo()

    expected, others = [], []
    for agent, market, prescribed, provision_viable, state, follower_plays in (
            _reference_probes(config, agents, profile)):
        expected.append((agent.id, market, prescribed, provision_viable))
        # everyone else's money: the state's and the followers' payments
        others.append(tuple(state.raised[i] + sum(x for m, x in follower_plays if m is side)
                            for i, side in enumerate(Market)))
    got = [(slot.agent.id, slot.market, slot.amount, slot.provision_viable)
           for slot in swept]
    assert got == expected
    # the on-path totals are the profile's, summed in another order, and
    # a single market's followers pay off prefix sums: equal up to rounding
    tolerance = 1e-12 * max(config.target(m) for m in mechanism.markets)
    for slot, reference in zip(swept, others):
        assert (slot.others_for, slot.others_against) == pytest.approx(
            reference, rel=1e-12, abs=tolerance)


SECURITIES = [Mechanism.PPS, Mechanism.PPSN, Mechanism.PPSX]


def _securities_config(mechanism: Mechanism, target: float, liquidity: float,
                       fixed_leg: float) -> CampaignConfig:
    """A securities config with the given (FOR) target and cost function;
    PPSN's rejection target is four fifths of it."""
    cf = CostFunction(liquidity=liquidity, fixed_leg=fixed_leg)
    if mechanism is Mechanism.PPSN:
        return CampaignConfig(mechanism=mechanism, provision_point_pair=(target, 0.8 * target),
                              cost_params=cf, deadline_contribution=5)
    if mechanism is Mechanism.PPSX:
        return CampaignConfig(mechanism=mechanism, provision_point=target, belief_budget=6.0,
                              cost_params=cf, deadline_contribution=6, deadline_belief=4)
    return CampaignConfig(mechanism=mechanism, provision_point=target, cost_params=cf,
                          deadline_contribution=5)


@settings(deadline=None, max_examples=1500, derandomize=True)
@given(mechanism=st.sampled_from(SECURITIES), against=st.booleans(),
       valuation=st.floats(0.0, 100.0), belief=st.floats(0.0, 0.5),
       side=st.sampled_from(list(BeliefSide)),
       reward=st.one_of(st.just(0.0), st.floats(0.0, 150.0)),
       target=st.floats(1e-2, 1e4), liquidity=st.floats(0.1, 100.0),
       fixed_leg=st.floats(0.0, 500.0), issued=st.floats(0.0, 2000.0),
       play=st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 2.0)),
       shortfall=st.one_of(st.floats(-3e-9, 3e-9), st.floats(0.0, 1.0)),
       provision_viable=st.booleans(), tolerance=st.floats(-12.0, 0.0))
@example(mechanism=Mechanism.PPS, against=False, valuation=5.0, belief=0.0,
         side=BeliefSide.PROVISION_LIKELY, reward=0.0, target=10.0, liquidity=40.0,
         fixed_leg=0.0, issued=0.0, play=1.0, shortfall=0.0, provision_viable=False,
         tolerance=-6.0)  # met at the bound: certified
@example(mechanism=Mechanism.PPSX, against=False, valuation=5.0, belief=0.2,
         side=BeliefSide.REJECTION_LIKELY, reward=8.0, target=10.0, liquidity=40.0,
         fixed_leg=0.0, issued=3.0, play=1.0, shortfall=0.5, provision_viable=False,
         tolerance=-6.0)  # a clamped bound (quantity 0) that leaves the market short
@example(mechanism=Mechanism.PPS, against=False, valuation=5.0, belief=0.0,
         side=BeliefSide.PROVISION_LIKELY, reward=0.0, target=10.0, liquidity=10.0,
         fixed_leg=92.1, issued=0.0, play=0.0, shortfall=5e-10, provision_viable=False,
         tolerance=-7.0)  # met at 0 at u ~ 1e-4: the band's last ulps gain band / u
def test_gain_bracket_certifies_only_slots_the_search_certifies(
        mechanism, against, valuation, belief, side, reward, target, liquidity, fixed_leg,
        issued, play, shortfall, provision_viable, tolerance):
    # wherever the bracket (_Evaluator.bracket) certifies a securities slot,
    # the exact search finds no gain above epsilon. The slot's own money
    # and play are drawn around the met band (shortfall), at the bound, at
    # 0 or anywhere up to twice the bound; a low issuance against a far
    # fixed leg prices the allocation at a tiny u; a rejection-likely PPSx
    # report whose reward exceeds the valuation clamps the bound at 0
    config = _securities_config(mechanism, target, liquidity, fixed_leg)
    market = Market.AGAINST if against and mechanism.dual_market else Market.FOR
    who = agent(-valuation if market is Market.AGAINST else valuation, eps=belief, side=side)
    r = reward if mechanism.two_phase else 0.0
    bound = contribution_bound(config, who, issued=issued, belief_reward=r, side=side)
    amount = play * bound
    own_target = config.target(market)
    others = max(0.0, own_target * (1.0 - shortfall) - amount)
    rival = 0.3 * config.target(market.other) if mechanism.dual_market else 0.0
    slot = _Evaluator(config, who, market, r, side)
    slot.place(amount, *((others, rival) if market is Market.FOR else (rival, others)),
               issued, bound, provision_viable)
    epsilon = own_target * 10.0 ** tolerance
    if slot.bracket(epsilon):
        _, best, base = slot.best(slot.top())
        assert best - base <= epsilon, (best - base, epsilon)


@pytest.mark.parametrize("field", ["amount", "others_for", "issued", "bound"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_gain_bracket_declines_a_non_finite_slot(field, value):
    # a PPS slot met at its bound certifies; the same slot with any one of
    # its numbers not finite is left to the exact search
    config = _securities_config(Mechanism.PPS, 10.0, 40.0, 0.0)
    who = agent(5.0)
    bound = contribution_bound(config, who)
    numbers = {"amount": bound, "others_for": 10.0 - bound, "others_against": 0.0,
               "issued": 0.0, "bound": bound, "provision_viable": False}
    slot = _Evaluator(config, who, Market.FOR, 0.0, who.belief_side)
    slot.place(**numbers)
    assert slot.bracket(1e-5)
    slot.place(**{**numbers, field: value})
    assert not slot.bracket(1e-5)


@pytest.mark.parametrize("mechanism", SECURITIES)
def test_gain_bracket_certifies_no_slot_at_epsilon_zero(mechanism, monkeypatch):
    # at --epsilon 0 no margin fits under epsilon, so the exact search
    # decides every slot: the promise test_spe_walks_match_reference and
    # the README rest on (the n=16 scenarios, seed 16)
    scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=16),
                                 seed=16)
    config, agents = scenario.config, scenario.agents
    answers = []
    bracket = _Evaluator.bracket
    monkeypatch.setattr(_Evaluator, "bracket", lambda slot, *args: answers.append(
        bracket(slot, *args)) or answers[-1])
    certify(config, agents, construct_profile(config, agents), epsilon=0.0)
    assert answers and not any(answers)


def _legal(book: DualMarketState) -> bool:
    return all(raised <= target for raised, target in zip(book.raised, book.target))


@settings(deadline=None, max_examples=40)
@given(mechanism=st.sampled_from(SECURITIES), n=st.integers(min_value=3, max_value=40),
       seed=st.integers(min_value=0, max_value=10**6),
       fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       hair=st.sampled_from([None, Market.FOR, Market.AGAINST]),
       mover=st.integers(min_value=0, max_value=39))
# one ulp short of the target, where the issuance already rounds to the
# target's, the mover and the one follower after it buy nothing
@example(mechanism=Mechanism.PPSX, n=12, seed=12, fractions=(0.0, 0.0), hair=Market.FOR,
         mover=10)
def test_kernel_walks_match_play_by_play(mechanism, n, seed, fractions, hair, mover):
    # the kernel's follower walks against contribution_bound at
    # price_issuance, then play, one arrival at a time, from random states
    scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=n),
                                 seed=seed)
    config, agents = scenario.config, scenario.agents
    profile = construct_profile(config, agents)
    order = sorted(agents, key=lambda a: (a.arrival_contribution, a.id))
    arrivals = _arrivals(config, order, profile.belief_rewards)
    plays = equilibrium._plays(config, order, profile)
    bought = prefix_sums(plays)
    empty = new_states(config)
    raised = {m: f * config.target(m) for f, m in zip(fractions, mechanism.markets)}
    if hair in raised:  # one leg a hair below its target
        raised[hair] = math.nextafter(config.target(hair), 0.0)
    state = _at(empty, raised[Market.FOR], raised.get(Market.AGAINST, 0.0))
    if state.closed:
        return
    mover %= n
    first = mover + 1

    # walk from the state, over every arrival and over each market alone
    for only in (None, *mechanism.markets):
        walked = list(state.raised)
        paid, money = state.walk(walked, plays, first, only)
        reference = _copy(state)
        walked_arrivals = [f for f in arrivals[first:] if only in (None, f[1])]
        expected = _rollout(config, reference, walked_arrivals)
        assert paid == expected
        # the money per market, summed in walk order
        sums = [0.0, 0.0]
        for (_, market, _), x in zip(walked_arrivals, paid):
            sums[market is Market.AGAINST] += x
        assert money == tuple(sums)
        assert walked == reference.raised
        assert _legal(_at(state, *walked))

    # the mover plays its bound, then the followers theirs
    _, side, reward = arrivals[mover]
    bound = contribution_bound(config, arrivals[mover][0],
                               issued=state.price_issuance(side), belief_reward=reward)
    accepted, totals = state.follow(*state.raised, side, bound, plays, bought, first,
                                    config.cost_params.issued_at(config.target(side)))
    after = _copy(state)
    assert accepted == after.play(side, bound)
    amounts = _rollout(config, after, arrivals[first:]) if not after.closed else []
    assert _legal(after)
    followed = [(m, x) for (_, m, _), x in zip(arrivals[first:], amounts)]
    # a single market's totals are read off prefix sums: equal up to rounding
    tolerance = 1e-12 * max(config.cost_params.issued_at(config.target(m))
                            for m in mechanism.markets)
    expected_totals = tuple(sum(x for m, x in followed if m is market) for market in Market)
    if mechanism.dual_market:
        assert totals == expected_totals
        return
    assert totals[0] == pytest.approx(expected_totals[0], rel=1e-12, abs=tolerance)
    assert totals[1] == expected_totals[1] == 0.0


@pytest.mark.parametrize("mechanism", [Mechanism.PPS, Mechanism.PPSX])
def test_spe_pricing_calls_grow_linearly(mechanism, monkeypatch):
    # a probe state costs O(1) pricing calls for PPS and PPSx, so 4x the
    # agents makes about 4x the calls; a delay walk or follower walk that
    # prices every wait again makes about 15x
    calls = collections.Counter()
    for name in ("securities_for", "contribution_for"):
        method = getattr(CostFunction, name)
        monkeypatch.setattr(CostFunction, name,
                            lambda cf, *args, method=method, name=name:
                            calls.update((name,)) or method(cf, *args))
    counts = []
    for n in (128, 512):
        scenario = generate_scenario(
            ScenarioTemplate(mechanism=mechanism, agent_count=n), seed=1)
        profile = construct_profile(scenario.config, scenario.agents)
        calls.clear()
        assert certify(scenario.config, scenario.agents, profile).certified
        counts.append(calls.total())
    assert counts[1] <= 5 * counts[0], counts


def test_ppsn_walks_few_open_probe_states(monkeypatch):
    # PPSN's race bracket decides most open off-path probe states without
    # follow's walk: on the n=512 seed-1 scenario at most a tenth of them
    # may walk (every one of them did, 1,961, before the bracket)
    scenario = generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPSN, agent_count=512), seed=1)
    config, agents = scenario.config, scenario.agents
    profile = construct_profile(config, agents)
    book = new_states(config)
    open_states, walks = [], []
    probe_states = equilibrium._probe_states
    monkeypatch.setattr(equilibrium, "_probe_states", lambda *args: open_states.extend(
        s for s in probe_states(*args)[1:] if not book.closed_at(*s)) or probe_states(*args))
    walk = DualMarketState.walk
    monkeypatch.setattr(DualMarketState, "walk", lambda book, raised, plays, first=0, only=None:
                        walks.append(only) or walk(book, raised, plays, first, only))
    assert certify(config, agents, profile).certified
    follower_walks = walks.count(None)  # _provision_fills walks the for market alone
    assert open_states and follower_walks <= 0.1 * len(open_states), (
        follower_walks, len(open_states))


def test_certifiers_build_no_contribution_record(monkeypatch):
    # a ContributionRecord is the engine's ledger entry: the certifier
    # prices every slot on plain numbers, without building one
    cases = []
    for mechanism in Mechanism:
        scenario = generate_scenario(
            ScenarioTemplate(mechanism=mechanism, agent_count=8), seed=1)
        config, agents = scenario.config, scenario.agents
        profile = construct_profile(config, agents)
        cases.append((mechanism, config, agents, profile,
                      run_campaign(config, profile.plays())[1]))
    built = []
    post_init = ContributionRecord.__post_init__
    monkeypatch.setattr(ContributionRecord, "__post_init__",
                        lambda rec: built.append(rec) or post_init(rec))
    ContributionRecord(agent_id=0, amount=1.0, tick=0, market=Market.FOR)
    assert len(built) == 1  # the hook sees every record built
    built.clear()
    for mechanism, config, agents, profile, book in cases:
        assert certify(config, agents, profile, book=book).certified
    assert built == []


def test_ppsn_follow_sums_without_prefix_sums(monkeypatch):
    # follow's running sums give the followers' money without prefix sums
    # of the walked payments; at n=64 the race bracket leaves some probe
    # states undecided, so follow still walks
    summed, following, walked = [], [], []
    prefix = mechanisms.prefix_sums
    monkeypatch.setattr(mechanisms, "prefix_sums",
                        lambda plays: summed.append(1) or prefix(plays))
    follow, walk = DualMarketState.follow, DualMarketState.walk

    def followed(book, *args):
        following.append(1)
        try:
            return follow(book, *args)
        finally:
            following.pop()

    monkeypatch.setattr(DualMarketState, "follow", followed)
    monkeypatch.setattr(DualMarketState, "walk", lambda book, *args, **kw: walked.append(
        bool(following)) or walk(book, *args, **kw))
    scenario = generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPSN, agent_count=64), seed=1)
    config, agents = scenario.config, scenario.agents
    profile = construct_profile(config, agents)
    walked.clear()
    assert certify(config, agents, profile).certified
    assert True in walked
    assert summed == []


def test_provision_bracket_matches_the_walk(monkeypatch):
    # _provision_fills decides most states by its bracket, without a walk:
    # from random open PPSN states, and with the for market's money swept
    # over its target from each, its answer must be a plain walk's of the
    # for market alone, and it must answer "fills", "short" and "walked"
    # each at least once
    walk = DualMarketState.walk
    walked = []
    monkeypatch.setattr(DualMarketState, "walk",
                        lambda book, *args, **kw: walked.append(1) or walk(book, *args, **kw))
    answers = collections.Counter()

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(n=st.integers(min_value=3, max_value=64),
           seed=st.integers(min_value=0, max_value=10**6),
           fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           hair=st.sampled_from([None, Market.FOR, Market.AGAINST]),
           first=st.integers(min_value=0, max_value=64))
    def check(n, seed, fractions, hair, first):
        scenario = generate_scenario(
            ScenarioTemplate(mechanism=Mechanism.PPSN, agent_count=n), seed=seed)
        config, agents = scenario.config, scenario.agents
        order = sorted(agents, key=lambda a: (a.arrival_contribution, a.id))
        plays = equilibrium._plays(config, order, EquilibriumProfile())
        bought = prefix_sums(plays)
        first %= n + 1
        target = config.target(Market.FOR)
        raised = [f * config.target(m) for f, m in zip(fractions, Market)]
        if hair is not None:  # one leg a hair below its target
            raised[hair is Market.AGAINST] = math.nextafter(config.target(hair), 0.0)
        states = [raised]
        for k in range(32):
            swept = list(raised)
            swept[0] = k / 32 * target
            states.append(swept)
        book = new_states(config)
        for raised in states:
            if book.closed_at(*raised):
                continue
            walked.clear()
            fills = equilibrium._provision_fills(book, *raised, plays, first, bought)
            answers["walked" if walked else "fills" if fills else "short"] += 1
            reference = list(raised)
            walk(book, reference, plays, first, only=Market.FOR)
            assert fills == (reference[0] >= target)

    check()
    assert answers["fills"] and answers["short"] and answers["walked"], answers


def test_follower_race_bracket_matches_the_walk():
    # _follower_race decides most PPSN probe states without follow's walk:
    # from random states and movers, at a zero fixed leg and at one far
    # above the liquidity, an own market it says fills first must fill
    # first on a plain walk, and one it says ends short must end short of
    # its met band there and in follow's totals; it must answer "own
    # first", "short" and "undecided" each at least once
    answers = collections.Counter()

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(n=st.integers(min_value=3, max_value=64),
           seed=st.integers(min_value=0, max_value=10**6),
           fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           hair=st.sampled_from([None, Market.FOR, Market.AGAINST]),
           own=st.sampled_from([Market.FOR, Market.AGAINST]),
           mover=st.integers(min_value=0, max_value=63),
           fixed_leg=st.sampled_from([0.0, 8.0]))
    def check(n, seed, fractions, hair, own, mover, fixed_leg):
        config = generate_scenario(
            ScenarioTemplate(mechanism=Mechanism.PPSN, agent_count=n), seed=seed).config
        b = config.cost_params.liquidity
        cf = CostFunction(b, fixed_leg * b)  # fixed_leg in liquidities
        config = dataclasses.replace(config, cost_params=cf)
        agents = generate_scenario(
            ScenarioTemplate(mechanism=Mechanism.PPSN, agent_count=n), seed=seed).agents
        order = sorted(agents, key=lambda a: (a.arrival_contribution, a.id))
        plays = equilibrium._plays(config, order, EquilibriumProfile())
        bought = prefix_sums(plays)
        sums = equilibrium._race_sums(cf, plays, bought)
        book = new_states(config)
        raised = [f * config.target(m) for f, m in zip(fractions, Market)]
        if hair is not None:  # one leg a hair below its target
            raised[hair is Market.AGAINST] = math.nextafter(config.target(hair), 0.0)
        if book.closed_at(*raised):
            return
        mover %= n
        first, i, target = mover + 1, own is Market.AGAINST, config.target(own)
        issued = book.priced_at(own, *raised)
        bound = cf.contribution_for(plays[mover][1], issued)
        after = list(raised)
        after[i] += bound
        if after[i] >= target:
            return  # the play closes the book: follow walks nobody
        race = equilibrium._follower_race(book, *after, own, first, sums, cf.price(issued),
                                          cf.price(cf.issued_at(min(book.target))))
        answers[race] += 1
        walked = list(after)
        book.walk(walked, plays, first)
        if race:
            assert walked[i] >= target
        elif race is False:
            band = target - equilibrium.MET_REL_TOL * target
            _, paid = book.follow(*raised, own, bound, plays, bought, first,
                                  cf.issued_at(target))
            assert walked[i] < band
            assert raised[i] + paid[i] + bound < band

    check()
    assert answers[True] and answers[False] and answers[None], answers

    # an own market with no follower left, inside its met band: the walk
    # leaves it there, neither filled nor short, and the bracket cannot tell
    config = generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPSN, agent_count=16), seed=1).config
    agents = generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPSN, agent_count=16), seed=1).agents
    order = sorted(agents, key=lambda a: (a.arrival_contribution, a.id))
    plays = equilibrium._plays(config, order, EquilibriumProfile())
    cf, book = config.cost_params, new_states(config)
    own = plays[-1][0].other
    first = max(k for k, (market, _) in enumerate(plays) if market is own) + 1
    i, target = own is Market.AGAINST, config.target(own)
    after = [0.0, 0.0]
    after[i] = target - 0.5 * equilibrium.MET_REL_TOL * target
    race = equilibrium._follower_race(
        book, *after, own, first, equilibrium._race_sums(cf, plays, prefix_sums(plays)),
        cf.price(cf.issued_at(0.0)), cf.price(cf.issued_at(min(book.target))))
    walked = list(after)
    book.walk(walked, plays, first)
    assert target - equilibrium.MET_REL_TOL * target <= walked[i] < target
    assert race is None


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("mechanism", SECURITIES)
def test_eu_is_nondecreasing_in_the_allocation(mechanism, n, monkeypatch):
    # a premise of the certifier's claim that a delay never gains (with
    # allocations never rising with issuance and money never falling): at
    # the prescribed amount, eu must depend on the issuance through the
    # allocation alone, and never fall as it grows
    scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=n),
                                 seed=1)
    config, agents = scenario.config, scenario.agents
    cf = config.cost_params
    recorded = []
    sweep = _Evaluator.sweep

    def sweeping(slot, *args):
        recorded.append(_placed(config, slot))
        return sweep(slot, *args)

    monkeypatch.setattr(_Evaluator, "sweep", sweeping)
    certify(config, agents, construct_profile(config, agents))
    monkeypatch.undo()
    assert recorded
    top = 1.5 * max(cf.issued_at(config.target(m)) for m in mechanism.markets)
    grid = [top * k / 64 for k in range(65)]
    for slot in recorded:
        effective = max(0.0, min(slot.amount, slot.capacity))  # what the engine accepts
        points = sorted(((cf.securities_for(effective, issued),
                          _placed(config, slot, issued=issued).eu(slot.amount))
                         for issued in grid), key=lambda point: point[0])
        for (low, before), (high, after) in zip(points, points[1:]):
            assert after >= before if high > low else after == before


# ---------------------------------------------------------------------------
# The exact best response against a dense grid, and at any n
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mechanism", [Mechanism.PPR, Mechanism.PPRN])
def test_certify_ne_flags_overbound_stake_at_any_n(mechanism):
    # negative control: one stake pushed to 1.05x its bound, the excess
    # taken from the rest of its side, so the side still fills exactly;
    # shaving just under the pivot into the refund branch must win
    for n in (5, 20, 80, 320, 1024):
        for seed in range(10):
            scenario = generate_scenario(
                ScenarioTemplate(mechanism=mechanism, agent_count=n), seed=seed)
            config, agents = scenario.config, scenario.agents
            profile = construct_profile(config, agents)
            side = sorted(i for i, e in profile.entries.items() if e.market is Market.FOR)
            pushed, rest = side[0], side[1:]
            stake = 1.05 * contribution_bound(
                config, next(a for a in agents if a.id == pushed))
            excess = stake - profile.entries[pushed].amount
            rest_total = sum(profile.entries[i].amount for i in rest)
            assert 0.0 < excess < rest_total
            for i in rest:
                entry = profile.entries[i]
                profile.entries[i] = dataclasses.replace(
                    entry, amount=entry.amount * (1.0 - excess / rest_total))
            profile.entries[pushed] = dataclasses.replace(
                profile.entries[pushed], amount=stake)
            report = certify(config, agents, profile)
            assert any(d.agent_id == pushed and d.kind == "contribution"
                       for d in report.deviations), (n, seed)


def expiring_variants(profile, rng):
    """Profiles short of the constructed one: every amount scaled by 0,
    0.5, 0.9 or 0.99; a quarter or a half of the agents zeroed, drawn by
    ``rng``; and one agent per market, drawn by ``rng``, carrying 0.999 of
    its side's total while everyone else plays 0."""
    def scaled(amount_of):
        return EquilibriumProfile(
            {i: dataclasses.replace(e, amount=amount_of(i, e)) for i, e in
             profile.entries.items()},
            belief_rewards=profile.belief_rewards, sides=profile.sides)

    ids = sorted(profile.entries)
    for factor in (0.0, 0.5, 0.9, 0.99):
        yield scaled(lambda i, e: factor * e.amount)
    for share in (0.25, 0.5):
        zeroed = set(rng.sample(ids, round(share * len(ids))))
        yield scaled(lambda i, e: 0.0 if i in zeroed else e.amount)
    carriers = {}
    for market in {e.market for e in profile.entries.values()}:
        side = [i for i in ids if profile.entries[i].market is market]
        carriers[rng.choice(side)] = 0.999 * profile.total(market)
    yield scaled(lambda i, e: carriers.get(i, 0.0))


def test_no_expiring_profile_is_certified():
    # the converse of provisioning at equilibrium (ROADMAP item 6): a
    # profile whose play expires is never certified. In PPRN and PPSN a
    # rejection is a fill too, so only a play in which no market fills
    # counts; a zeroed variant that still fills is skipped. PPSN stops at
    # n = 256: its follower walk is quadratic in n (ROADMAP item 1)
    expiring = 0
    cases = [*((n, seed) for n in (6, 24) for seed in range(1, 6)), (256, 1), (1024, 1)]
    for mechanism in Mechanism:
        for n, seed in cases:
            if n == 1024 and mechanism is Mechanism.PPSN:
                continue
            scenario = generate_scenario(ScenarioTemplate(mechanism, n), seed)
            config, agents = scenario.config, scenario.agents
            profile = construct_profile(config, agents)
            for variant in expiring_variants(profile, random.Random(seed)):
                verdict, book = run_campaign(config, variant.plays())
                if verdict is not Verdict.EXPIRED:
                    continue
                expiring += 1
                report = certify(config, agents, variant, book=book)
                assert not report.certified, (mechanism, n, seed, variant.entries)
    assert expiring >= 486  # of 497 variants, as measured: the test is not vacuous


def test_the_constructed_play_fills_a_target_and_certifies():
    # provisioning at equilibrium (ROADMAP item 6): where every condition
    # holds, the constructed profile is feasible, the engine's replay of it
    # fills one market with exactly its target, and the certifier certifies
    # that replay. Single-market mechanisms provision; in PPRN and PPSN the
    # rejection side may fill first
    rejected = collections.Counter()
    for mechanism in Mechanism:
        for n in (6, 24, 256, 1024):
            for seed in range(1, 4):
                scenario = generate_scenario(ScenarioTemplate(mechanism, n), seed)
                config, agents = scenario.config, scenario.agents
                case = (mechanism, n, seed)
                conditions = check_conditions(config, agents)
                assert all(c.satisfied for c in conditions), case
                profile = construct_profile(config, agents)
                assert profile.feasible, case
                verdict, book = run_campaign(config, profile.plays())
                assert verdict in ((Verdict.PROVISIONED, Verdict.REJECTED)
                                   if mechanism.dual_market else (Verdict.PROVISIONED,)), case
                filled = Market.FOR if verdict is Verdict.PROVISIONED else Market.AGAINST
                assert book.raised[filled is Market.AGAINST] == config.target(filled), case
                assert certify(config, agents, profile, conditions=conditions,
                               book=book).certified, case
                if verdict is Verdict.REJECTED:
                    rejected[mechanism] += 1
    # of 12 cases each, as measured: both verdicts are reached
    assert rejected == {Mechanism.PPRN: 4, Mechanism.PPSN: 8}, rejected


@settings(deadline=None, max_examples=3)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10**6))
@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_exact_best_response_dominates_dense_grid(mechanism, extra, seed):
    # every slot the certifier searches, against 4,001 grid points over
    # [0, sweep top]: the exact maximum is never below the grid's, and the
    # alternative branch never falls before the pivot
    scenario = generate_scenario(
        ScenarioTemplate(mechanism=mechanism, agent_count=3 + extra), seed=seed)
    config, agents = scenario.config, scenario.agents
    slots = []
    sweep = _Evaluator.sweep

    def sweeping(slot, *args):
        slots.append(_placed(config, slot))
        return sweep(slot, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Evaluator, "sweep", sweeping)
        certify(config, agents, construct_profile(config, agents))
    assert slots
    for slot in slots:
        top = slot.top()
        tolerance = 1e-12 * (abs(slot.agent.valuation) + slot.reward)
        _, best, _ = slot.best(top)
        grid = [top * k / 4000 for k in range(4001)]
        values = [slot.eu(x) for x in grid]
        assert best >= max(values) - tolerance
        # short of the pivot, eu is the alternative branch alone
        below = [v for x, v in zip(grid, values) if x < slot.pivot]
        assert all(b >= a - tolerance for a, b in zip(below, below[1:]))


def _mix(config: CampaignConfig, slot: _Evaluator, amount: float) -> float:
    """The belief-weighted mix of both branches at ``amount``, unclipped, as
    if the own market were met whatever the amount."""
    cf = config.cost_params
    securities = 0.0 if cf is None else cf.securities_for(amount, slot.issued)
    for_market = slot.market is Market.FOR
    total_for = slot.others_for + (amount if for_market else 0.0)
    total_against = slot.others_against + (0.0 if for_market else amount)
    return sum(
        weight * _branch_utility(config, slot.agent, slot.market, amount, securities,
                                 total_for, total_against, slot.reward, slot.side, verdict)
        for verdict, weight in _verdict_distribution(
            config, slot.agent, slot.market, math.inf, slot.provision_viable))


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_stationary_point_maximizes_the_mix(mechanism):
    # the closed-form stationary point against the mix's values either side;
    # a small pool of others' money puts the refund family's inside (0, inf)
    found = 0
    for seed in range(5):
        scenario = generate_scenario(
            ScenarioTemplate(mechanism=mechanism, agent_count=8), seed=seed)
        config, agents = scenario.config, scenario.agents
        profile = construct_profile(config, agents)
        slots = equilibrium._slots(config, agents, profile,
                                   _engine_path(config, agents, profile))
        for slot in slots + [_placed(config, slot, others_for=0.01 * slot.others_for,
                                     others_against=0.01 * slot.others_against)
                             for slot in slots]:
            x = slot.stationary()
            if x is None or x <= 0.0:
                continue
            found += 1
            peak = _mix(config, slot, x)
            tolerance = 1e-12 * (abs(slot.agent.valuation) + slot.reward)
            for nearby in (0.99 * x, 1.01 * x):
                assert _mix(config, slot, nearby) <= peak + tolerance
    assert found or mechanism in (Mechanism.PPS, Mechanism.PPSN)


# ---------------------------------------------------------------------------
# The rules table
# ---------------------------------------------------------------------------


def _pre_merge_bound(config: CampaignConfig, who: AgentProfile, side: BeliefSide,
                     reward: float, issued: float) -> float:
    """Each mechanism's closed-form bound as it was written before the
    families shared ``refund_cap`` and ``security_quantity``, in its own
    order of operations; the securities family's is the payment for its
    own security quantity."""
    mechanism, v = config.mechanism, who.valuation
    if mechanism is Mechanism.PPR:
        pot = config.provision_point
        return pot / (config.refund_budget + pot) * max(v, 0.0)
    if mechanism is Mechanism.PPRN:
        total = config.provision_point_pair[0] + config.provision_point_pair[1]
        return total / (config.refund_budget + total) * abs(v)
    provision = side is BeliefSide.PROVISION_LIKELY
    if mechanism is Mechanism.PPRX:
        p = who.provision_belief
        q = 1.0 - p
        numerator = p * (v + reward) if provision else p * v - q * reward
        pot = config.provision_point
        return max(0.0, numerator / (q * config.contribution_budget + p * pot) * pot)
    quantity = {Mechanism.PPS: lambda: max(v, 0.0),
                Mechanism.PPSN: lambda: abs(v),
                Mechanism.PPSX: lambda: max(v + (reward if provision else -reward), 0.0),
                }[mechanism]()
    return config.cost_params.contribution_for(quantity, issued)


def _bound_config(mechanism: Mechanism, targets: tuple[float, float],
                  budget: float) -> CampaignConfig:
    """``_ROW_CONFIGS``' config with the given targets and budget, where the
    mechanism has them."""
    config = _ROW_CONFIGS[mechanism]
    if mechanism.dual_market:
        config = dataclasses.replace(config, provision_point_pair=targets)
    else:
        config = dataclasses.replace(config, provision_point=targets[0])
    if mechanism in _BUDGET_FIELD:
        config = dataclasses.replace(config, **{_BUDGET_FIELD[mechanism]: budget})
    return config


# PPR's and PPRN's cap is PPRx's at p = 1/2: 0.5 v / (0.5 B + 0.5 P) * P,
# where the pre-merge forms computed P / (B + P) * v. Both round P v / (B +
# P) from the same B + P, once in a different place; measured over 1e8
# log-uniform draws (P in [1e-3, 1e8], B in [1e-9, 1e6], v in [1e-6, 1e6])
# they differ by at most 2 ulps. Where v / (B + P) is subnormal the quotient
# rounds to a multiple of the least subnormal, which the product by P
# scales: 5e7 more draws reaching down to v = 1e-323 stayed within
# BASE_CAP_ULPS ulps plus (1 + P) least subnormals.
BASE_CAP_ULPS = 2


@pytest.mark.parametrize("mechanism", list(Mechanism))
@settings(deadline=None, max_examples=200, derandomize=True)
@given(valuation=st.floats(-100.0, 100.0), eps=st.floats(0.0, 0.5),
       side=st.sampled_from(list(BeliefSide)), reward=st.floats(0.0, 10.0),
       targets=st.tuples(st.floats(1e-3, 1e4), st.floats(1e-3, 1e4)),
       budget=st.floats(1e-6, 100.0), issued=st.floats(0.0, 100.0))
@example(valuation=-0.0, eps=0.0, side=BeliefSide.PROVISION_LIKELY, reward=0.0,
         targets=(10.0, 5.0), budget=5.0, issued=0.0)
@example(valuation=-0.0, eps=0.0, side=BeliefSide.REJECTION_LIKELY, reward=0.0,
         targets=(10.0, 5.0), budget=5.0, issued=0.0)
def test_contribution_bound_is_the_public_bound(mechanism, valuation, eps, side, reward,
                                                targets, budget, issued):
    # the bound through the family's one cap against the mechanism's own
    # closed form, the one it was published with (_pre_merge_bound): PPRx
    # and the securities rows to the bit, so every security quantity the
    # kernel's walks buy is the row's own; PPR and PPRN within
    # BASE_CAP_ULPS. No bound is -0.0, though a valuation of -0.0 passes
    # parsing and the pre-merge PPR, PPS and PPSx forms gave -0.0 for it, so
    # the closed form is compared with its zero made positive. Single-market
    # mechanisms admit nonnegative valuations only; the base mechanisms
    # carry no belief reward.
    who = agent(valuation if mechanism.dual_market or valuation >= 0.0 else -valuation,
                eps=eps, side=side)
    config = _bound_config(mechanism, targets, budget)
    r = reward if mechanism.two_phase else 0.0
    got = contribution_bound(config, who, issued=issued, belief_reward=r)
    want = _pre_merge_bound(config, who, side, r, issued) + 0.0
    assert math.copysign(1.0, got) == 1.0, got
    if mechanism in (Mechanism.PPR, Mechanism.PPRN):
        slack = BASE_CAP_ULPS * math.ulp(want) + (1.0 + config.target_sum) * 5e-324
        assert abs(got - want) <= slack, (got, want)
    else:
        assert got.hex() == want.hex(), (got, want)


@pytest.mark.parametrize("mechanism", SECURITIES)
def test_securities_rows_bound_at_their_quantity(mechanism):
    # every securities bound is the payment for the agent's security
    # quantity, which is what the kernel's walks buy
    scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=8),
                                 seed=1)
    config = scenario.config
    rewards = construct_profile(config, scenario.agents).belief_rewards
    for a in scenario.agents:
        reward = rewards.get(a.id, 0.0)
        for issued in (0.0, 2.5, 40.0):
            assert (contribution_bound(config, a, issued=issued, belief_reward=reward)
                    == config.cost_params.contribution_for(
                        security_quantity(a, a.belief_side, reward), issued))


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_traced_certification_counts_bounds_and_utilities(mechanism):
    # the tracer wraps contribution_bound and the six utilities by their
    # names in provpoint.equilibrium: every row must call through them
    from perfbench.tracing import Tracer

    scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=6),
                                 seed=1)
    config, agents = scenario.config, scenario.agents
    tracer = Tracer()
    tracer.install()
    try:
        report = certify(config, agents, construct_profile(config, agents))
    finally:
        tracer.remove()
    assert report.certified
    calls = tracer.snapshot()
    assert calls["equilibrium.bound.calls"] > 0
    assert calls["mechanisms.utility.calls"] > 0
