"""The profile, the engine, settlement and the utility functions agree
about the outcome of the same play, for every mechanism."""

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from provpoint.beliefs import BeliefReport, bbr_rewards, belief_reports, score_reports
from provpoint.equilibrium import (
    EquilibriumProfile,
    _path,
    _slots,
    certify,
    construct_profile,
    tolerance,
)
from provpoint.mechanisms import (
    Action,
    new_states,
    payoff,
    run_campaign,
    settle,
)
from provpoint.model import BeliefSide, Market, Mechanism, Verdict
from provpoint.runner import profile_from_actions, run_scenario
from provpoint.scenario import ScenarioTemplate, generate_scenario, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# first seed per mechanism; the refund-bonus and dual-market securities
# ones are the acceptance suite's
FIRST_SEED = {Mechanism.PPRN: 0, Mechanism.PPSN: 100, Mechanism.PPRX: 200,
              Mechanism.PPSX: 300, Mechanism.PPR: 400, Mechanism.PPS: 500}


def reports_of(scenario):
    """The reports a run of the scenario scores: its explicit ones, or
    truthful defaults."""
    return belief_reports(scenario.agents, scenario.explicit_reports)


def generated(mech, count=20):
    for seed in range(FIRST_SEED[mech], FIRST_SEED[mech] + count):
        template = ScenarioTemplate(mechanism=mech, agent_count=3 + seed % 8)
        yield generate_scenario(template, seed=seed)


@pytest.mark.parametrize("mech", list(Mechanism))
def test_profile_verdict_is_engine_verdict(mech):
    verdicts = set()
    for scenario in generated(mech):
        profile = construct_profile(scenario.config, scenario.agents)
        assert profile.feasible
        verdict, dual = run_campaign(scenario.config, profile.plays())
        report = certify(scenario.config, scenario.agents, profile)
        assert report.expected_verdict is verdict
        verdicts.add(verdict)
        # the certifiers' path through the engine's book sees the books
        # the engine priced at
        play = _path(scenario.config, scenario.agents, profile, dual)
        final, records = play.book, {r.agent_id: r for r in dual.ledger}
        for agent, raised in zip(play.order, play.found):
            entry = profile.entries[agent.id]
            if entry.amount == 0.0:
                continue
            if agent.id in records:
                assert (final.priced_at(entry.market, *raised)
                        == records[agent.id].q_at_allocation)
            else:  # the engine discards a play at a closed book
                assert final.closed_at(*raised)
    if mech.dual_market:
        # both sides win somewhere, so the tie order is exercised
        assert verdicts == {Verdict.PROVISIONED, Verdict.REJECTED}


def replayed_path(config, agents, profile):
    """The certifiers' former path, kept as the reference for ``_path``:
    the profile's plays replayed once through a book of its own, as the
    engine plays them; the play order, the money (FOR, AGAINST) each agent
    of it found, and the book's money after the last play."""
    order = sorted(agents, key=lambda a: (profile.entries[a.id].tick, a.id))
    book = new_states(config)
    found = []
    for agent in order:
        found.append(tuple(book.raised))
        if not book.closed:
            entry = profile.entries[agent.id]
            book.play(entry.market, entry.amount)
    return order, found, tuple(book.raised)


SCENARIO_OF = {}  # (mechanism, n) -> a generated scenario

# On PPR's generated target T = 12.85..., agent 0 pays x = 0.1 * T and
# agent 1 closes the book, accepted at T - x; x + (T - x) is not T, so
# agent 2 finds the target only by reading the book's own money.
ROUNDED_FILL = [(0.1, 0, False), (0.95, 1, False), (0.5, 2, False)]


# each play: the share of its market's target, the tick, and whether a
# dual market's play goes to the rejection market
@settings(deadline=None, max_examples=300)
@given(mech=st.sampled_from(list(Mechanism)),
       plays=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                                st.integers(0, 2), st.booleans()),
                      min_size=3, max_size=8))
@example(mech=Mechanism.PPR, plays=ROUNDED_FILL)
def test_path_reads_the_replay_off_the_engines_book(mech, plays):
    key = (mech, len(plays))
    if key not in SCENARIO_OF:
        SCENARIO_OF[key] = generate_scenario(ScenarioTemplate(mech, len(plays)), seed=1)
    config, agents = SCENARIO_OF[key].config, SCENARIO_OF[key].agents
    entries = {}
    for agent, (share, tick, against) in zip(agents, plays):
        market = Market.AGAINST if against and mech.dual_market else Market.FOR
        entries[agent.id] = Action(agent.id, share * config.target(market), market, tick)
    profile = EquilibriumProfile(entries=entries)
    play = _path(config, agents, profile, run_campaign(config, profile.plays())[1])
    order, found, final = replayed_path(config, agents, profile)
    assert play.order == order
    assert play.found == found
    assert tuple(play.book.raised) == final
    if plays == ROUNDED_FILL and mech is Mechanism.PPR:
        first, filled = play.book.ledger
        assert first.amount + filled.amount != config.provision_point == play.found[2][0]
        # agent 1's record closes the book; agent 2 finds it closed
        assert play.book.closed_at(*play.found[2])


@pytest.mark.parametrize("share", [0.0, 0.5])
@pytest.mark.parametrize("mech", [Mechanism.PPR, Mechanism.PPS])
def test_certifier_refuses_a_book_that_does_not_hold_the_play(mech, share):
    # the book of no play and the book of the plays at half their amounts:
    # the first agent in play order has no record, or a record of another
    # amount
    scenario = generate_scenario(ScenarioTemplate(mech, 6), seed=1)
    config, agents = scenario.config, scenario.agents
    profile = construct_profile(config, agents)
    plays = [dataclasses.replace(a, amount=a.amount * share) for a in profile.plays()]
    _, book = run_campaign(config, plays if share else [])
    first = min(profile.plays(), key=lambda a: (a.tick, a.agent_id)).agent_id
    with pytest.raises(ValueError, match=f"^agent {first}: the book does not hold"):
        certify(config, agents, profile, book=book)


def test_certifier_refuses_a_record_of_no_play():
    # the book holds one more record after the profile's own
    scenario = generate_scenario(ScenarioTemplate(Mechanism.PPR, 6), seed=1)
    config, agents = scenario.config, scenario.agents
    half = EquilibriumProfile(entries={
        i: dataclasses.replace(a, amount=a.amount / 2)
        for i, a in construct_profile(config, agents).entries.items()})
    last = max(half.plays(), key=lambda a: (a.tick, a.agent_id))
    _, book = run_campaign(config, [*half.plays(), last])
    with pytest.raises(ValueError, match=f"^agent {last.agent_id}: the book does not hold"):
        certify(config, agents, half, book=book)
    _, own = run_campaign(config, half.plays())
    assert certify(config, agents, half, book=own).expected_verdict is Verdict.EXPIRED


def utility_at(scenario, agent, rec, verdict, dual, reward):
    """The payoff rule for one record at ``verdict``, with the arguments the
    mechanism fixes (``payoff_row``): the pool is the FOR total, both totals in
    PPRN and 0 in the securities family."""
    config = scenario.config
    mech = config.mechanism
    total_for, total_against = dual.raised
    pool = (0.0 if mech.uses_securities else
            total_for + total_against if mech is Mechanism.PPRN else total_for)
    side = ({r.agent_id: r.side for r in reports_of(scenario)}[agent.id] if mech.two_phase
            else agent.belief_side)
    return payoff(agent, rec.market, side, verdict, rec.amount, pool, config.bonus_budget,
                  rec.securities, reward)


@pytest.mark.parametrize("share", [1.0, 0.5])
@pytest.mark.parametrize("mech", list(Mechanism))
def test_settlement_matches_utility(mech, share):
    """Equilibrium play (share 1) fills a target; halved stakes expire."""
    checked = 0
    for scenario in generated(mech):
        config, agents = scenario.config, scenario.agents
        profile = construct_profile(config, agents)
        actions = [Action(a.agent_id, a.amount * share, a.market, a.tick)
                   for a in profile.plays()]
        verdict, dual = run_campaign(config, actions)
        ledger, rewards = None, None
        if mech.two_phase:
            ledger = score_reports(reports_of(scenario))
            rewards = bbr_rewards(ledger, config.belief_budget)
        outcome = settle(config, agents, verdict, dual, belief_rewards=rewards,
                         beliefs=ledger)
        for agent in agents:
            mine = [r for r in dual.ledger if r.agent_id == agent.id]
            if len(mine) != 1:
                continue
            expected = utility_at(scenario, agent, mine[0], verdict, dual,
                                  (rewards or {}).get(agent.id, 0.0))
            realized = outcome.payouts[agent.id].realized
            assert math.isclose(realized, expected, rel_tol=1e-9, abs_tol=1e-12), (
                scenario.seed, agent.id, verdict, realized, expected)
            checked += 1
    assert checked > 0


def shuffled_reports(scenario):
    """Reports that are not the truthful defaults: every third agent flips
    its information, predictions move and ticks reverse."""
    last = scenario.config.deadline_belief
    return [BeliefReport(agent_id=r.agent_id,
                         information=1 - r.information if r.agent_id % 3 == 0
                         else r.information,
                         prediction=round(1.0 - r.prediction / 2, 3),
                         tick=last - min(r.tick, last))
            for r in reports_of(scenario)]


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("mech", [Mechanism.PPRX, Mechanism.PPSX])
def test_settlement_pays_the_priced_belief_reward(mech, explicit):
    """Each winning-side reporter is paid exactly the reward the certifier
    priced; the losing side is paid nothing. The provision-likely side wins
    provision, the rejection-likely side every other verdict."""
    paid_winners = 0
    for scenario in generated(mech, count=6):
        if explicit:
            scenario.explicit_reports = shuffled_reports(scenario)
        result = run_scenario(scenario)
        priced = result.certification.profile.belief_rewards
        assert result.outcome is not None, scenario.seed
        winning = (BeliefSide.PROVISION_LIKELY if result.outcome.verdict is Verdict.PROVISIONED
                   else BeliefSide.REJECTION_LIKELY)
        sides = {r.agent_id: r.side for r in reports_of(scenario)}
        assert set(priced) == set(sides)
        assert result.certification.profile.sides == sides
        for agent_id, side in sides.items():
            paid = result.outcome.payouts[agent_id].belief_reward
            if side is winning:
                assert paid == priced[agent_id], (scenario.seed, agent_id)
                paid_winners += 1
            else:
                assert paid == 0.0, (scenario.seed, agent_id)
    assert paid_winners > 0


def settled_utility(scenario, actions, agent_id):
    """The agent's realized utility once the engine replays ``actions``."""
    verdict, dual = run_campaign(scenario.config, actions)
    return settle(scenario.config, scenario.agents, verdict, dual).payouts[agent_id].realized


def test_an_earlier_deviation_untruncates_a_later_play():
    # finding (a): agent 0 pays 6 at tick 1 and agent 1's 7 at tick 2 is
    # truncated to 4; if agent 0 pays 3 instead, agent 1's 7 is accepted in
    # full and the target still fills, so agent 0 keeps 3 more
    scenario = parse_scenario(SCENARIOS / "ppr_explicit_plays.json")
    played = scenario.explicit_actions
    assert played[0].agent_id == 0
    deviated = [dataclasses.replace(played[0], amount=3.0), *played[1:]]
    assert settled_utility(scenario, played, 0) == 3.0
    assert settled_utility(scenario, deviated, 0) == 6.0


@pytest.mark.xfail(strict=True, reason="finding (a): ROADMAP item 2")
def test_certify_ne_reports_the_untruncating_deviation():
    scenario = parse_scenario(SCENARIOS / "ppr_explicit_plays.json")
    profile = profile_from_actions(scenario, {}, {})
    report = certify(scenario.config, scenario.agents, profile)
    assert any(d.agent_id == 0 for d in report.deviations)


def race_scenario():
    """Finding (b): ``gen`` PPRN n=6 seed 9, where every constructed play is
    at the deadline tick, so the engine takes them in id order."""
    return generate_scenario(ScenarioTemplate(Mechanism.PPRN, 6), seed=9)


def test_paying_the_rival_target_wins_the_deadline_race():
    # agent 2 pays the whole AGAINST target instead of its prescribed 8.31;
    # 11.70 of it is accepted and fills AGAINST before agent 3's FOR play,
    # so the verdict flips and agent 2 keeps 2.34 more, far above epsilon
    scenario = race_scenario()
    config = scenario.config
    played = construct_profile(config, scenario.agents).plays()
    deviated = [dataclasses.replace(a, amount=config.target(Market.AGAINST))
                if a.agent_id == 2 else a for a in played]
    verdicts, accepted = [], []
    for actions in (played, deviated):
        verdict, book = run_campaign(config, actions)
        verdicts.append(verdict)
        accepted.append([r.amount for r in book.ledger if r.agent_id == 2])
    assert verdicts == [Verdict.PROVISIONED, Verdict.REJECTED]
    assert accepted[0] == [pytest.approx(8.3135, abs=1e-4)]
    assert accepted[1] == [pytest.approx(11.7004, abs=1e-4)]
    before, after = (settled_utility(scenario, actions, 2) for actions in (played, deviated))
    assert before == pytest.approx(-14.0420, abs=1e-4)
    assert after == pytest.approx(-11.7004, abs=1e-4)
    assert after - before == pytest.approx(2.3416, abs=1e-4)
    assert after - before > tolerance(config, None)


@pytest.mark.xfail(strict=True, reason="finding (b): ROADMAP items 2 and 28")
def test_certify_reports_the_race_winning_deviation():
    scenario = race_scenario()
    report = certify(scenario.config, scenario.agents,
                     construct_profile(scenario.config, scenario.agents))
    assert any(d.agent_id == 2 for d in report.deviations)


def flipped_run(mech, n, seed, flipped):
    """Run the generated scenario of ``n`` agents at ``seed`` with each
    agent that ``flipped(agent_id)`` names reporting the side it does not
    believe; the others report truthfully."""
    scenario = generate_scenario(ScenarioTemplate(mech, n), seed=seed)
    scenario.explicit_reports = [
        dataclasses.replace(r, information=1 - r.information) if flipped(r.agent_id) else r
        for r in reports_of(scenario)]
    return scenario, run_scenario(scenario)


def priced_and_paid(scenario, result):
    """For each agent: its id, its number of ledger records, its slot's
    branch utility in the certifier at the replayed verdict, and the
    utility settlement paid it."""
    config, agents, profile = scenario.config, scenario.agents, result.certification.profile
    verdict, book = run_campaign(config, profile.plays())
    assert verdict is result.outcome.verdict is result.certification.expected_verdict
    play = _path(config, agents, profile, book)
    paid_in = [r.agent_id for r in book.ledger]
    for slot in _slots(config, agents, profile, play):
        branch = slot.own if verdict is Verdict.PROVISIONED else slot.expired
        accepted = max(0.0, min(slot.amount, slot.capacity))  # what the engine accepts
        securities = 0.0 if slot.cf is None else slot.cf.securities_for(accepted, slot.issued)
        priced = branch(slot.amount, securities, slot.others_for + slot.amount,
                        slot.others_against)
        yield (slot.agent.id, paid_in.count(slot.agent.id), priced,
               result.outcome.payouts[slot.agent.id].realized)


def priced_and_settled(mech):
    """Agent 0 of a generated six-agent scenario (seed 3) believes
    rejection likely and reports provision as likely; the others report
    truthfully. Returns the certifier's verdict, agent 0's branch utility
    in its evaluator at the replayed verdict, and its settled utility."""
    scenario, result = flipped_run(mech, 6, 3, lambda agent_id: agent_id == 0)
    assert result.certification.profile.belief_rewards[0] > 0.0
    (_, _, priced, settled), = [found for found in priced_and_paid(scenario, result)
                                if found[0] == 0]
    return result.certification.certified, priced, settled


def test_certifier_prices_a_misreported_belief_reward_where_settlement_pays_it():
    found = {mech: priced_and_settled(mech) for mech in (Mechanism.PPRX, Mechanism.PPSX)}
    assert all(certified for certified, _, _ in found.values())
    assert {mech: priced for mech, (_, priced, _) in found.items()} == {
        mech: settled for mech, (_, _, settled) in found.items()}


# each mechanism's flipped-report sweep: slots compared, scenarios certified
SWEEP = {Mechanism.PPRX: (382, 14), Mechanism.PPSX: (170, 30)}


@pytest.mark.parametrize("mech", [Mechanism.PPRX, Mechanism.PPSX])
def test_every_reporter_is_priced_what_settlement_pays(mech):
    # every third agent reports the side it does not believe: each slot
    # the certifier prices at the replayed verdict is what settlement pays
    # (priced at the belief side instead, 193 of the two sweeps' 541 slots
    # differ)
    slots = certified = 0
    for n in (6, 12, 24):
        for seed in range(1, 11):
            scenario, result = flipped_run(mech, n, seed, lambda agent_id: agent_id % 3 == 0)
            certified += result.certification.certified
            for agent_id, records, priced, settled in priced_and_paid(scenario, result):
                if records != 1:
                    continue
                assert math.isclose(priced, settled, rel_tol=1e-12), (n, seed, agent_id)
                slots += 1
    # a misreport can pay: 16 of the 30 PPRx scenarios are not certified
    assert (slots, certified) == SWEEP[mech]


def test_certify_reports_a_profitable_misreport():
    # negative control: agent 0 believes provision likely and reports
    # rejection, so its belief reward is paid on expiry; it plays just short
    # of the pivot, the campaign expires, and it keeps its stake, its bonus
    # share and its reward (priced at its belief side, the play certifies)
    scenario, result = flipped_run(Mechanism.PPRX, 6, 1, lambda agent_id: agent_id == 0)
    config, agents, profile = scenario.config, scenario.agents, result.certification.profile
    assert agents[0].belief_side is BeliefSide.PROVISION_LIKELY
    assert profile.sides[0] is BeliefSide.REJECTION_LIKELY
    deviation, = result.certification.deviations
    assert (deviation.agent_id, deviation.kind, deviation.detail) == (
        0, "contribution", "x=1.05008 on for (was 1.05008)")
    assert f"{deviation.utility_gain:.6g}" == "4.25322"
    # replay the deviation through the engine and settlement
    _, book = run_campaign(config, profile.plays())
    slot = next(s for s in _slots(config, agents, profile, _path(config, agents, profile, book))
                if s.agent.id == 0)
    best_x, best, _ = slot.best(slot.top())
    deviated = [dataclasses.replace(a, amount=best_x) if a.agent_id == 0 else a
                for a in profile.plays()]
    ledger = score_reports(scenario.explicit_reports)
    rewards = bbr_rewards(ledger, config.belief_budget)

    def realized(actions):
        verdict, book = run_campaign(config, actions)
        outcome = settle(config, agents, verdict, book, belief_rewards=rewards, beliefs=ledger)
        return verdict, outcome.payouts[0].realized

    (played, base), (expired, gained) = realized(profile.plays()), realized(deviated)
    assert (played, expired) == (Verdict.PROVISIONED, Verdict.EXPIRED)
    assert math.isclose(gained, best, rel_tol=1e-12)
    # the prescribed play is priced as provision with the agent's belief p
    # and expiry otherwise; the expiry branch is continuous in the amount,
    # and x is short of the play by the pivot's band alone, so the gain is
    # p times what the deviation's settlement gains over the play's
    p = agents[0].provision_belief
    assert math.isclose(p * (gained - base), deviation.utility_gain, rel_tol=1e-6)
