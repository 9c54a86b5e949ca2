import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from provpoint.beliefs import bbr_rewards, belief_reports, score_reports
from provpoint.costfn import EXP_LIMIT, CostFunction
from provpoint.mechanisms import (
    Action,
    DualMarketState,
    new_states,
    payoff,
    run_campaign,
    settle,
)
from provpoint.model import (
    AgentProfile,
    BeliefSide,
    CampaignConfig,
    ContributionRecord,
    Market,
    Mechanism,
    Verdict,
    derive_preference,
)
from provpoint.scenario import ScenarioTemplate, generate_scenario


def agent(theta, aid=0, **kw):
    return AgentProfile(id=aid, valuation=theta, **kw)


def ppsn_book_config(h_for=100.0, h_against=100.0):
    return CampaignConfig(mechanism=Mechanism.PPSN,
                          provision_point_pair=(h_for, h_against),
                          cost_params=CostFunction(liquidity=1.0),
                          deadline_contribution=10)


# ---------------------------------------------------------------------------
# Utility structures
# ---------------------------------------------------------------------------


# The payoff rule as the one-phase mechanisms apply it: no belief reward, so
# the side pays nothing.
def one_phase(who, market, verdict, amount, pool, budget, securities=0.0):
    return payoff(who, market, BeliefSide.PROVISION_LIKELY, verdict, amount, pool, budget,
                  securities, 0.0)


def test_ppr_utility():
    assert one_phase(agent(10.0), Market.FOR, Verdict.PROVISIONED, 4.0, 20.0, 5.0) == 6.0
    assert one_phase(agent(10.0), Market.FOR, Verdict.EXPIRED, 4.0, 20.0, 5.0) == 1.0
    assert one_phase(agent(10.0), Market.FOR, Verdict.EXPIRED, 0.0, 20.0, 5.0) == 0.0
    # zero-pool refund defined as zero
    assert one_phase(agent(10.0), Market.FOR, Verdict.EXPIRED, 0.0, 0.0, 5.0) == 0.0


def test_pps_utility():
    cf = CostFunction()
    rec = ContributionRecord(agent_id=0, amount=1.0, tick=0, market=Market.FOR,
                             securities=cf.securities_for(1.0, 0.0))
    assert one_phase(agent(10.0), Market.FOR, Verdict.PROVISIONED, rec.amount, 0.0, None,
                     rec.securities) == 9.0
    assert one_phase(agent(10.0), Market.FOR, Verdict.EXPIRED, rec.amount, 0.0, None,
                     rec.securities) == pytest.approx(math.log(2 * math.e - 1) - 1.0, rel=1e-12)
    zero = ContributionRecord(agent_id=0, amount=0.0, tick=0, market=Market.FOR)
    assert one_phase(agent(10.0), Market.FOR, Verdict.EXPIRED, zero.amount, 0.0, None,
                     zero.securities) == 0.0


def test_pprn_utility_reported_for():
    # PPRN's pool is both markets' total
    assert one_phase(agent(10.0), Market.FOR, Verdict.PROVISIONED, 5.0, 10.0 + 5.0,
                     10.0) == 5.0
    assert one_phase(agent(10.0), Market.FOR, Verdict.REJECTED, 5.0, 10.0 + 20.0,
                     6.0) == 1.0
    assert one_phase(agent(10.0), Market.FOR, Verdict.EXPIRED, 5.0, 10.0 + 20.0,
                     6.0) == 1.0


def test_pprn_utility_reported_against():
    assert one_phase(agent(-8.0), Market.AGAINST, Verdict.REJECTED, 3.0, 0.0 + 5.0,
                     10.0) == -3.0
    # provision despite the against stake: valuation suffered, stake refunded
    # with its bonus share from the common pool
    assert one_phase(agent(-8.0), Market.AGAINST, Verdict.PROVISIONED, 3.0, 27.0 + 3.0,
                     10.0) == pytest.approx(-7.0)
    # expiry pays the refund branch with no valuation term
    assert one_phase(agent(-8.0), Market.AGAINST, Verdict.EXPIRED, 3.0, 27.0 + 3.0,
                     10.0) == pytest.approx(1.0)


def test_ppsn_allocate_first_contribution():
    _, dual = run_campaign(ppsn_book_config(), [Action(0, 1.0, Market.FOR, 0)])
    rec = dual.ledger[0]
    assert rec.securities == pytest.approx(math.log(2 * math.e - 1), rel=1e-12)
    assert rec.q_at_allocation == 0.0
    assert dual.raised[0] == 1.0
    # issuance is derived from money raised, and matches what was bought
    assert dual.cf.issued_at(dual.raised[0]) == pytest.approx(rec.securities, rel=1e-12)
    assert dual.cf.issued_at(dual.raised[1]) == 0.0


def test_ppsn_allocate_zero_amount():
    _, dual = run_campaign(ppsn_book_config(), [Action(0, 0.0, Market.FOR, 0)])
    rec = dual.ledger[0]
    assert rec.securities == 0.0
    assert dual.raised[0] == 0.0
    assert dual.cf.issued_at(dual.raised[0]) == 0.0


def test_ppsn_allocate_min_leg_coupling():
    # while the other market's issuance is still smaller, repeat buyers on
    # one side keep pricing at the untouched min leg and get equal rewards
    _, dual = run_campaign(ppsn_book_config(), [
        Action(0, 1.0, Market.FOR, 0),
        Action(1, 1.0, Market.FOR, 1),
        Action(2, 4.0, Market.AGAINST, 2),
        Action(3, 1.0, Market.FOR, 3),
    ])
    first, second, third = [rec for rec in dual.ledger if rec.market is Market.FOR]
    assert second.q_at_allocation == 0.0
    assert second.securities == pytest.approx(first.securities, rel=1e-12)
    # once the against leg leads, the min leg is the 2.0 raised for
    # provision and a later buyer is priced higher
    assert third.q_at_allocation == pytest.approx(CostFunction().issued_at(2.0),
                                                  rel=1e-12)
    assert third.q_at_allocation > 0.0
    assert third.securities < first.securities


def test_ppsn_allocate_rejects_after_close():
    book = new_states(ppsn_book_config(h_for=1.0))
    book.play(Market.FOR, 1.0)
    with pytest.raises(ValueError, match="closed"):
        book.play(Market.AGAINST, 0.5)


def test_play_truncates_overshoot_to_exact_fill():
    # a play past the remaining amount is cut to it; the total never
    # exceeds the target and equals it exactly
    book = new_states(ppsn_book_config(h_for=1.0))
    assert book.play(Market.FOR, 0.3) == 0.3
    assert book.play(Market.FOR, 5.0) == pytest.approx(0.7)
    assert book.raised[0] == 1.0
    assert book.verdict is Verdict.PROVISIONED
    with pytest.raises(ValueError, match="nonnegative"):
        new_states(ppsn_book_config()).play(Market.FOR, -1.0)


# Per branch of ``contribution_for``: the liquidity b, and the fixed leg and
# the quantities in units of b, chosen so that the first walked play takes
# that branch. "closed" keeps every payment in closed form; "large" buys
# q >= EXP_LIMIT * b; "low" prices at an empty min leg, more than
# EXP_LIMIT * b below the fixed leg, with payments that stay normal floats.
WALK_REGIMES = {
    "closed": (st.floats(1.0, 100.0), st.floats(0.0, 50.0), st.floats(0.0, 1.0)),
    "large": (st.floats(1e-3, 0.05), st.just(0.0), st.floats(EXP_LIMIT + 1, 2 * EXP_LIMIT)),
    "low": (st.floats(0.5, 5.0), st.floats(EXP_LIMIT + 10, 2 * EXP_LIMIT),
            st.floats(0.0, EXP_LIMIT - 1)),
}


@settings(deadline=None, max_examples=150)
@given(regime=st.sampled_from(sorted(WALK_REGIMES)), data=st.data())
def test_walk_pays_contribution_for_play_by_play(regime, data):
    # each walked payment must equal contribution_for at the priced leg's
    # issuance, to the bit, in closed form and in both log-space branches
    liquidity, fixed, quantities = WALK_REGIMES[regime]
    b = data.draw(liquidity)
    cf = CostFunction(b, b * data.draw(fixed))
    quantity = quantities.map(lambda y: y * b)
    min_leg = regime == "low" or data.draw(st.booleans())
    only = data.draw(st.sampled_from([None, Market.FOR, Market.AGAINST]))
    first = data.draw(st.integers(0, 3))
    plays = data.draw(st.lists(st.tuples(st.sampled_from(list(Market)), quantity),
                               min_size=first + 1, max_size=first + 12))
    if only is not None:
        plays[first] = (only, plays[first][1])
    targets = [data.draw(st.floats(1.0, 200.0)) for _ in Market]
    raised = [data.draw(st.floats(0.0, 0.99)) * t for t in targets]
    if regime == "low":
        raised[1] = 0.0
    assert regime in _walk_play_by_play(cf, min_leg, targets, raised, plays, first, only)


def test_walk_prices_a_leg_holding_the_least_subnormal():
    # found by Hypothesis in the "low" regime: b = 2, the fixed leg 710 * b,
    # and a priced leg holding 5e-324, whose issuance took log(0)
    cf = CostFunction(2.0, 1420.0)
    plays = [(Market.FOR, 3.0), (Market.AGAINST, 1.0), (Market.FOR, 2.0)]
    assert "low" in _walk_play_by_play(cf, True, [50.0, 40.0], [5e-324, 1.0], plays, 0, None)


def _walk_play_by_play(cf: CostFunction, min_leg: bool, targets: list[float],
                       raised: list[float], plays: list[tuple[Market, float]], first: int,
                       only: Market | None) -> set[str]:
    """Check ``walk`` from these markets against contribution_for at
    price_issuance, then play, one arrival at a time; return the pricing
    branches the payments took ("closed", "large", "low")."""
    b = cf.liquidity
    book = DualMarketState(tuple(targets), cf, min_leg, list(raised))
    reference = DualMarketState(tuple(targets), cf, min_leg, list(raised))
    expected, branches = [], set()
    for market, q in plays[first:]:
        if only is not None and market is not only:
            continue
        issued = reference.price_issuance(market)
        large, low = q / b >= EXP_LIMIT, (issued - cf.fixed_leg) / b <= -EXP_LIMIT
        branches.update(name for name, taken in (
            ("large", large), ("low", low), ("closed", not (large or low))) if taken)
        expected.append(reference.play(market, cf.contribution_for(q, issued)))
        if reference.closed:
            break
    walked = list(raised)
    paid, _ = book.walk(walked, plays, first, only)
    assert len(paid) == len(expected)
    for k, (got, want) in enumerate(zip(paid, expected)):
        assert got == want, (k, got, want)
    assert walked == reference.raised
    # the book lends its targets and pricing and keeps its own money
    assert book.raised == raised
    return branches


def test_ppsn_utility():
    rec_for = ContributionRecord(agent_id=0, amount=5.0, tick=0,
                                 market=Market.FOR, securities=8.0)
    assert one_phase(agent(10.0), rec_for.market, Verdict.PROVISIONED, rec_for.amount, 0.0,
                     None, rec_for.securities) == 5.0
    assert one_phase(agent(10.0), rec_for.market, Verdict.REJECTED, rec_for.amount, 0.0,
                     None, rec_for.securities) == 3.0
    rec_against = ContributionRecord(agent_id=0, amount=3.0, tick=0,
                                     market=Market.AGAINST, securities=8.0)
    assert one_phase(agent(-8.0), rec_against.market, Verdict.REJECTED, rec_against.amount,
                     0.0, None, rec_against.securities) == -3.0
    # reward exactly at the valuation magnitude: provision leaves -x
    assert one_phase(agent(-8.0), rec_against.market, Verdict.PROVISIONED,
                     rec_against.amount, 0.0, None,
                     rec_against.securities) == pytest.approx(-3.0)
    assert one_phase(agent(-8.0), rec_against.market, Verdict.EXPIRED, rec_against.amount,
                     0.0, None, rec_against.securities) == 5.0


# ---------------------------------------------------------------------------
# Campaign engine
# ---------------------------------------------------------------------------


def ppr_config(h0=10.0, budget=5.0, deadline=10):
    return CampaignConfig(mechanism=Mechanism.PPR, provision_point=h0,
                          refund_budget=budget, deadline_contribution=deadline)


def pprn_config(h_for=10.0, h_against=5.0, budget=5.0, deadline=10):
    return CampaignConfig(mechanism=Mechanism.PPRN,
                          provision_point_pair=(h_for, h_against),
                          refund_budget=budget, deadline_contribution=deadline)


def test_engine_truncates_crossing_contribution():
    config = ppr_config()
    verdict, dual = run_campaign(config, [
        Action(0, 6.0, Market.FOR, 1),
        Action(1, 7.0, Market.FOR, 2),
    ])
    assert verdict is Verdict.PROVISIONED
    assert dual.raised[0] == 10.0
    assert dual.ledger[1].amount == 4.0


def test_engine_expires_without_contributions():
    verdict, dual = run_campaign(ppr_config(), [])
    assert verdict is Verdict.EXPIRED
    assert dual.raised[0] == 0.0


def test_engine_race_rejection_first():
    # the rejection target is reached first even though the provision side
    # holds more money
    verdict, dual = run_campaign(pprn_config(), [
        Action(0, 9.0, Market.FOR, 1),
        Action(1, 5.0, Market.AGAINST, 2),
        Action(2, 3.0, Market.FOR, 3),
    ])
    assert verdict is Verdict.REJECTED
    assert dual.raised == [9.0, 5.0]
    # the action after the halt was discarded
    assert [rec.agent_id for rec in dual.ledger] == [0, 1]


def test_engine_replays_an_unsorted_list_as_its_stable_sort():
    # agent 1's two simultaneous actions keep their list order; agent 0's
    # tick-3 play closes the provision market and agent 3's is discarded
    config = pprn_config()
    actions = [Action(3, 9.0, Market.AGAINST, 4), Action(2, 4.0, Market.FOR, 2),
               Action(1, 1.0, Market.AGAINST, 1), Action(0, 2.0, Market.FOR, 1),
               Action(1, 3.0, Market.FOR, 1), Action(0, 5.0, Market.FOR, 3)]
    stable = sorted(actions, key=lambda a: (a.tick, a.agent_id))
    assert stable != actions
    verdict, dual = run_campaign(config, actions)
    sorted_verdict, sorted_dual = run_campaign(config, stable)
    assert verdict == sorted_verdict
    assert dual.ledger == sorted_dual.ledger
    assert dual.raised == sorted_dual.raised
    assert [(r.agent_id, r.market, r.amount) for r in dual.ledger] == [
        (0, Market.FOR, 2.0), (1, Market.AGAINST, 1.0), (1, Market.FOR, 3.0),
        (2, Market.FOR, 4.0), (0, Market.FOR, 1.0)]
    assert verdict is Verdict.PROVISIONED


def test_engine_rejects_bad_actions():
    with pytest.raises(ValueError, match="negative"):
        run_campaign(ppr_config(), [Action(0, -1.0, Market.FOR, 1)])
    with pytest.raises(ValueError, match="deadline"):
        run_campaign(ppr_config(deadline=3), [Action(0, 1.0, Market.FOR, 4)])
    with pytest.raises(ValueError, match="rejection market"):
        run_campaign(ppr_config(), [Action(0, 1.0, Market.AGAINST, 1)])


def test_engine_tie_break_by_agent_id():
    # same tick: agent 0 processed first, its contribution completes the pot
    verdict, dual = run_campaign(ppr_config(h0=5.0), [
        Action(0, 5.0, Market.FOR, 2),
        Action(1, 5.0, Market.FOR, 2),
    ])
    assert verdict is Verdict.PROVISIONED
    assert [rec.agent_id for rec in dual.ledger] == [0]


def test_engine_replay_determinism():
    config = pprn_config()
    actions = [Action(0, 4.0, Market.FOR, 1), Action(1, 3.0, Market.AGAINST, 1),
               Action(2, 6.0, Market.FOR, 2), Action(3, 2.0, Market.AGAINST, 3)]
    first = run_campaign(config, actions)
    second = run_campaign(config, actions)
    assert first[0] is second[0]
    assert first[1].ledger == second[1].ledger


def test_pps_refund_decreases_over_time():
    # same contribution later in the run buys weakly fewer securities, and
    # strictly fewer once the min leg has advanced
    config = CampaignConfig(mechanism=Mechanism.PPSN,
                            provision_point_pair=(50.0, 50.0),
                            cost_params=CostFunction(liquidity=1.0),
                            deadline_contribution=10)
    _, dual = run_campaign(config, [
        Action(0, 1.0, Market.FOR, 1),
        Action(1, 1.0, Market.AGAINST, 2),
        Action(2, 1.0, Market.FOR, 3),
        Action(3, 1.0, Market.FOR, 4),
    ])
    recs = dual.ledger
    refunds = [r.securities - r.amount for r in recs]
    assert all(b <= a + 1e-12 for a, b in zip(refunds, refunds[1:]))
    assert refunds[2] < refunds[0]  # min leg advanced after tick 2
    assert all(r.securities - r.amount > 0 for r in recs)


# ---------------------------------------------------------------------------
# Settlement
# ---------------------------------------------------------------------------


def test_settle_ppr_refund_split():
    config = ppr_config(h0=100.0, budget=5.0)
    agents = [agent(10.0, 0), agent(3.0, 1)]
    verdict, dual = run_campaign(config, [
        Action(0, 4.0, Market.FOR, 1), Action(1, 16.0, Market.FOR, 2)])
    outcome = settle(config, agents, verdict, dual)
    assert outcome.verdict is Verdict.EXPIRED
    assert outcome.payouts[0].realized == pytest.approx(1.0)
    assert outcome.payouts[1].realized == pytest.approx(4.0)
    bonus = sum(p.refund - p.contribution for p in outcome.payouts.values())
    assert bonus == pytest.approx(5.0)  # whole budget paid out


def test_settle_ppr_provisioned():
    config = ppr_config(h0=10.0)
    agents = [agent(10.0, 0), agent(3.0, 1)]
    verdict, dual = run_campaign(config, [
        Action(0, 4.0, Market.FOR, 1), Action(1, 6.0, Market.FOR, 2)])
    outcome = settle(config, agents, verdict, dual)
    assert outcome.payouts[0].realized == pytest.approx(6.0)
    assert outcome.payouts[1].realized == pytest.approx(-3.0)


def test_settle_free_rider_gets_valuation():
    config = ppr_config(h0=10.0)
    agents = [agent(10.0, 0), agent(7.0, 1)]
    verdict, dual = run_campaign(config, [Action(0, 10.0, Market.FOR, 1)])
    outcome = settle(config, agents, verdict, dual)
    assert outcome.payouts[1].realized == 7.0


def test_settle_pprn_budget_conservation():
    config = pprn_config(h_for=50.0, h_against=50.0, budget=6.0)
    agents = [agent(10.0, 0), agent(-9.0, 1)]
    # expiry: both sides in the refund branch, full budget paid
    verdict, dual = run_campaign(config, [
        Action(0, 4.0, Market.FOR, 1), Action(1, 8.0, Market.AGAINST, 1)])
    outcome = settle(config, agents, verdict, dual)
    assert outcome.verdict is Verdict.EXPIRED
    bonus = sum(p.refund - p.contribution for p in outcome.payouts.values())
    assert bonus == pytest.approx(6.0)
    assert outcome.payouts[0].valuation_term == 0.0
    assert outcome.payouts[1].valuation_term == 0.0


def test_settle_pprn_rejected():
    config = pprn_config(h_for=50.0, h_against=8.0, budget=6.0)
    agents = [agent(10.0, 0), agent(-9.0, 1)]
    verdict, dual = run_campaign(config, [
        Action(0, 4.0, Market.FOR, 1), Action(1, 8.0, Market.AGAINST, 2)])
    outcome = settle(config, agents, verdict, dual)
    assert outcome.verdict is Verdict.REJECTED
    # against stake forfeited; for contributor refunded with its bonus share
    assert outcome.payouts[1].realized == pytest.approx(-8.0)
    assert outcome.payouts[0].realized == pytest.approx(4.0 / 12.0 * 6.0)
    bonus = sum(p.refund - p.contribution for p in outcome.payouts.values()
                if p.refund > 0)
    assert bonus <= 6.0


def test_settle_refuses_a_ledger_naming_an_unknown_agent():
    verdict, dual = run_campaign(ppr_config(), [Action(7, 4.0, Market.FOR, 1)])
    with pytest.raises(ValueError, match="ledger references unknown agent 7"):
        settle(ppr_config(), [agent(10.0, 0)], verdict, dual)


def test_settle_two_phase_requires_rewards():
    config = CampaignConfig(mechanism=Mechanism.PPRX, provision_point=10.0,
                            belief_budget=2.0, contribution_budget=1.0,
                            deadline_contribution=5, deadline_belief=2)
    agents = [agent(10.0, 0), agent(5.0, 1), agent(4.0, 2)]
    beliefs = score_reports(belief_reports(agents))
    verdict, dual = run_campaign(config, [Action(0, 10.0, Market.FOR, 3)])
    with pytest.raises(ValueError, match="belief_rewards"):
        settle(config, agents, verdict, dual)
    # the reported sides come with the rewards, never without them
    with pytest.raises(ValueError, match="beliefs"):
        settle(config, agents, verdict, dual, belief_rewards={0: 1.5, 1: 0.5})
    with pytest.raises(ValueError, match="beliefs"):
        settle(config, agents, verdict, dual, beliefs=beliefs)
    outcome = settle(config, agents, verdict, dual,
                     belief_rewards={0: 1.5, 1: 0.5}, beliefs=beliefs)
    assert outcome.payouts[0].realized == pytest.approx(10.0 - 10.0 + 1.5)
    verdict2, dual2 = run_campaign(ppr_config(), [])
    with pytest.raises(ValueError, match="belief_rewards"):
        settle(ppr_config(), [agent(1.0, 0)], verdict2, dual2,
               belief_rewards={0: 1.0})
    with pytest.raises(ValueError, match="beliefs"):
        settle(ppr_config(), [agent(1.0, 0)], verdict2, dual2, beliefs=beliefs)


def reference_settlement_columns(config, agents, dual, reports):
    """The settlement 'side' column and per-agent security totals, worked
    out apart from ``settle`` by a second walk of the ledger: the reference
    its own columns are checked against."""
    sides, securities, contributed = {}, {}, {}
    for rec in dual.ledger:
        # an agent with a record in each market is on the for side
        if contributed.setdefault(rec.agent_id, rec.market) is not rec.market:
            contributed[rec.agent_id] = Market.FOR
        securities[rec.agent_id] = securities.get(rec.agent_id, 0.0) + rec.securities
    report_sides = {rep.agent_id: rep.side for rep in reports}
    for a in agents:
        if config.mechanism.two_phase:
            sides[a.id] = report_sides.get(a.id, a.belief_side).value
        elif config.mechanism.dual_market:
            sides[a.id] = contributed.get(a.id, derive_preference(a)).value
        else:
            sides[a.id] = Market.FOR.value
    return sides, securities


SCENARIO_OF = {}  # (mechanism, n) -> a generated scenario


# each action: its agent (modulo n), the share of its market's target, whether
# a dual market's play goes to the rejection market, and its tick; each
# agent's belief report (two-phase mechanisms): truthful, flipped or omitted
@settings(deadline=None, max_examples=300)
@given(mech=st.sampled_from(list(Mechanism)), n=st.integers(3, 8),
       actions=st.lists(st.tuples(st.integers(0, 7),
                                  st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                                  st.booleans(), st.integers(0, 3)), max_size=12),
       filed=st.lists(st.sampled_from(["truthful", "flipped", "omitted"]),
                      min_size=8, max_size=8))
def test_engine_invariants(mech, n, actions, filed):
    # on any action list, in any order: no market ever holds more than its
    # target, a filled market holds exactly its target, the ledger is in
    # (tick, agent id) order, settlement pays no more than the bonus and
    # belief budgets, and each payout's securities and side are those of
    # the reference
    if (mech, n) not in SCENARIO_OF:
        SCENARIO_OF[mech, n] = generate_scenario(ScenarioTemplate(mech, n), seed=1)
    config, agents = SCENARIO_OF[mech, n].config, SCENARIO_OF[mech, n].agents
    plays = []
    for aid, share, against, tick in actions:
        market = Market.AGAINST if against and mech.dual_market else Market.FOR
        plays.append(Action(aid % n, share * config.target(market), market, tick))
    for k in range(len(plays)):
        _, book = run_campaign(config, plays[:k])
        assert all(raised <= target for raised, target in zip(book.raised, book.target))
    verdict, dual = run_campaign(config, plays)
    filled = [raised == target for raised, target in zip(dual.raised, dual.target)]
    assert filled == [verdict is Verdict.PROVISIONED, verdict is Verdict.REJECTED]
    keys = [(rec.tick, rec.agent_id) for rec in dual.ledger]
    assert keys == sorted(keys)
    reports, beliefs, rewards = [], None, None
    if mech.two_phase:
        # scoring needs three reports, so at most n - 3 are omitted
        omitted = [a.id for a, kind in zip(agents, filed) if kind == "omitted"][:n - 3]
        for a, report, kind in zip(agents, belief_reports(agents), filed):
            if kind == "flipped":
                report = dataclasses.replace(report, information=1 - report.information)
            if a.id not in omitted:
                reports.append(report)
        beliefs = score_reports(reports)
        rewards = bbr_rewards(beliefs, config.belief_budget)
    outcome = settle(config, agents, verdict, dual, belief_rewards=rewards, beliefs=beliefs)
    if mech.two_phase:
        paid = sum(p.belief_reward for p in outcome.payouts.values())
        assert paid <= config.belief_budget * (1 + 1e-12)
    sides, securities = reference_settlement_columns(config, agents, dual, reports)
    for a in agents:
        payout = outcome.payouts[a.id]
        assert payout.side.value == sides[a.id]
        assert payout.securities == securities.get(a.id, 0.0)
    budget = config.bonus_budget
    if budget is not None:
        winner = {Verdict.PROVISIONED: Market.FOR, Verdict.REJECTED: Market.AGAINST}.get(verdict)
        stakes = sum(rec.amount for rec in dual.ledger if rec.market is not winner)
        bonus = sum(p.refund for p in outcome.payouts.values()) - stakes
        assert bonus <= budget + 1e-12 * (budget + stakes)


@pytest.mark.parametrize("mech", [Mechanism.PPS, Mechanism.PPSN, Mechanism.PPSX])
def test_a_delayed_play_never_buys_more(mech):
    # why the certifier searches no delay in the securities family: money
    # only rises, so a play moved to a later tick is priced at an issuance
    # at least as high and, accepted in full, buys no more securities than
    # its on-time record did
    compared = 0

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(n=st.integers(3, 8),
           actions=st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 0.25),
                                      st.booleans(), st.integers(0, 3)),
                            min_size=1, max_size=12))
    def check(n, actions):
        nonlocal compared
        if (mech, n) not in SCENARIO_OF:
            SCENARIO_OF[mech, n] = generate_scenario(ScenarioTemplate(mech, n), seed=1)
        config = SCENARIO_OF[mech, n].config
        plays = []
        for aid, share, against, tick in actions:
            market = Market.AGAINST if against and mech.dual_market else Market.FOR
            plays.append(Action(aid % n, share * config.target(market), market, tick))

        def in_play_order(actions):
            # run_campaign's stable sort: ledger entry k is the k-th of these
            return sorted(range(len(actions)),
                          key=lambda k: (actions[k].tick, actions[k].agent_id))

        on_time = run_campaign(config, plays)[1].ledger
        for record, k in zip(on_time, in_play_order(plays)):
            play = plays[k]
            if not 0.0 < record.amount == play.amount:
                continue
            for tick in range(play.tick + 1, config.deadline_contribution + 1):
                moved = [*plays[:k], dataclasses.replace(play, tick=tick), *plays[k + 1:]]
                delayed = run_campaign(config, moved)[1].ledger
                j = in_play_order(moved).index(k)
                if j < len(delayed) and delayed[j].amount == play.amount:
                    assert delayed[j].securities <= record.securities, (k, tick)
                    compared += 1

    check()
    assert compared >= 1000, compared
