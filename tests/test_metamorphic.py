"""Metamorphic relations of the whole run: a transformed scenario that is the
same game must get the same findings. The game is homogeneous of degree one
in money (the LMSR cost scales with its quantities, liquidity and fixed
leg), PPRN and PPSN treat their two markets alike, a PPR, PPRN or PPRx
economy copied k times, with its targets and budgets times k, is the same
game for each copy, PPRx and PPSx with even beliefs and no belief reward
are PPR and PPS, and agents relabelled with their arrivals kept are the
same game."""

import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from provpoint.equilibrium import (
    MET_REL_TOL,
    EquilibriumProfile,
    certify,
    construct_profile,
    contribution_bound,
)
from provpoint.model import BeliefSide, Market, Mechanism, Verdict
from provpoint.runner import run_scenario
from provpoint.scenario import (
    ScenarioTemplate,
    generate_scenario,
    parse_scenario_dict,
    scenario_to_dict,
)

MONEY = ("provision_point", "provision_point_pair", "refund_budget", "belief_budget",
         "contribution_budget")
MIRROR = {Verdict.PROVISIONED: Verdict.REJECTED, Verdict.REJECTED: Verdict.PROVISIONED,
          Verdict.EXPIRED: Verdict.EXPIRED}


def generated(mechanism, count, seed):
    """A generated scenario (it asks for certification) as JSON data."""
    return json.loads(json.dumps(scenario_to_dict(
        generate_scenario(ScenarioTemplate(mechanism, count), seed))))


def findings(data):
    """What a run of the scenario finds: each condition's outcome,
    feasibility, the certificate, the certifier's replayed verdict, the
    campaign's verdict and the number of deviations."""
    result = run_scenario(parse_scenario_dict(data))
    report = result.certification
    return ([c.satisfied for c in result.conditions], report.feasible, report.certified,
            report.expected_verdict, result.outcome.verdict, len(report.deviations))


def scaled(data, k):
    """``data`` with every money field times ``k``: valuations, targets,
    budgets, liquidity and fixed leg."""
    data = json.loads(json.dumps(data))
    config = data["config"]
    for key in MONEY:
        if key in config:
            value = config[key]
            config[key] = [k * v for v in value] if isinstance(value, list) else k * value
    for key, value in config.get("cost_params", {}).items():
        config["cost_params"][key] = k * value
    for agent in data["agents"]:
        agent["valuation"] *= k
    return data


@settings(deadline=None, max_examples=100)
@given(mechanism=st.sampled_from(list(Mechanism)), count=st.integers(3, 32),
       seed=st.integers(0, 2**31 - 1), exponent=st.floats(-9, 9))
def test_money_scaling_keeps_the_findings(mechanism, count, seed, exponent):
    # the certifier's "target met" band is relative to the target, so a
    # play short of a tiny target by a fixed amount is short at any scale
    data = generated(mechanism, count, seed)
    assert findings(scaled(data, 10.0 ** exponent)) == findings(data)


@settings(deadline=None, max_examples=100)
@given(mechanism=st.sampled_from([Mechanism.PPRN, Mechanism.PPSN]),
       count=st.integers(2, 32), seed=st.integers(0, 2**31 - 1))
def test_swapping_the_markets_mirrors_the_verdicts(mechanism, count, seed):
    # every valuation negated and the two targets swapped: each agent plays
    # the other market, and provision and rejection trade places
    data = generated(mechanism, count, seed)
    mirror = json.loads(json.dumps(data))
    mirror["config"]["provision_point_pair"].reverse()
    for agent in mirror["agents"]:
        agent["valuation"] = -agent["valuation"]
    conditions, feasible, certified, expected, verdict, deviations = findings(data)
    assert findings(mirror) == (conditions, feasible, certified, MIRROR[expected],
                                MIRROR[verdict], deviations)


def replica(config, agents, k):
    """The economy ``config``, ``agents`` copied ``k`` times: copy c of
    agent i has id c * n + i, and the targets and the budgets the
    mechanism uses (refund, contribution, belief) are times k."""
    n = len(agents)
    copies = [dataclasses.replace(a, id=c * n + a.id) for c in range(k) for a in agents]
    targets = ({"provision_point_pair": tuple(k * h for h in config.provision_point_pair)}
               if config.mechanism.dual_market
               else {"provision_point": k * config.provision_point})
    budgets = {name: k * getattr(config, name) for name in MONEY[2:]
               if getattr(config, name) is not None}
    return dataclasses.replace(config, **targets, **budgets), copies


@settings(deadline=None, max_examples=40)
@given(mechanism=st.sampled_from([Mechanism.PPR, Mechanism.PPRN, Mechanism.PPRX]),
       count=st.sampled_from([6, 12]), seed=st.integers(1, 10),
       k=st.sampled_from([2, 10, 100]))
def test_a_replica_economy_keeps_the_verdict_and_each_amount(mechanism, count, seed, k):
    # ROADMAP item 24: the refund-bonus bounds depend on the budget per
    # target, so each copy plays its original's amount. A PPRx copy is
    # given its original's belief reward and reported side, which leaves
    # PPRx's cap unchanged: the belief split of k * n reports is not that
    # of n reports times k
    scenario = generate_scenario(ScenarioTemplate(mechanism, count), seed)
    config, agents = scenario.config, scenario.agents
    assert [a.id for a in agents] == list(range(count))
    profile = construct_profile(config, agents)
    big_config, copies = replica(config, agents, k)
    big = construct_profile(
        big_config, copies,
        {c.id: profile.belief_rewards.get(c.id % count, 0.0) for c in copies},
        {c.id: profile.sides.get(c.id % count) for c in copies})
    assert big.feasible == profile.feasible
    assert (certify(big_config, copies, big).certified
            == certify(config, agents, profile).certified)
    # every copy plays its original's amount, within its bound: _fill_side's
    # float residue goes to an agent with a positive bound, at n and at k * n
    for copy in copies:
        entry = big.entries[copy.id]
        assert math.isclose(entry.amount, profile.entries[copy.id % count].amount,
                            rel_tol=1e-9), copy.id
        assert entry.amount <= contribution_bound(
            big_config, copy, belief_reward=big.belief_rewards.get(copy.id, 0.0),
            side=big.sides.get(copy.id)), copy.id


def plant_overbound_stake(config, agents, profile):
    """Push the lowest-id provision-side stake to 1.05 times its bound,
    the excess taken from the rest of its side, so the side still fills
    exactly; returns the pushed agent's id."""
    side = sorted(i for i, e in profile.entries.items() if e.market is Market.FOR)
    pushed, rest = side[0], side[1:]
    stake = 1.05 * contribution_bound(config, agents[pushed])
    excess = stake - profile.entries[pushed].amount
    rest_total = sum(profile.entries[i].amount for i in rest)
    assert 0.0 < excess < rest_total
    for i in rest:
        entry = profile.entries[i]
        profile.entries[i] = dataclasses.replace(
            entry, amount=entry.amount * (1.0 - excess / rest_total))
    profile.entries[pushed] = dataclasses.replace(profile.entries[pushed], amount=stake)
    return pushed


@pytest.mark.parametrize("k", [2, 10])
@pytest.mark.parametrize("mechanism", [Mechanism.PPR, Mechanism.PPRN])
def test_a_replica_economy_reports_each_copy_of_a_planted_deviation(mechanism, k):
    # ROADMAP item 24: an overbound stake planted at n is reported for every
    # copy at k * n with the same gain, and nothing else is reported there.
    # The refund share x / pool * budget keeps its value when the pool and
    # the budget are both times k. The one difference is the pivot band:
    # a target counts as met MET_REL_TOL of it short, so at k * n the
    # deviation stops k times as much money short of the stake, and its
    # share of the budget moves the gain by (k - 1) * MET_REL_TOL * budget
    reported = 0
    for count in (6, 12):
        for seed in range(1, 11):
            scenario = generate_scenario(ScenarioTemplate(mechanism, count), seed)
            config, agents = scenario.config, scenario.agents
            profile = construct_profile(config, agents)
            pushed = plant_overbound_stake(config, agents, profile)
            original = certify(config, agents, profile).deviations
            assert any(d.agent_id == pushed and d.kind == "contribution"
                       for d in original), (count, seed)
            big_config, copies = replica(config, agents, k)
            big = EquilibriumProfile({c.id: dataclasses.replace(
                profile.entries[c.id % count], agent_id=c.id) for c in copies})
            found = certify(big_config, copies, big).deviations
            assert sorted((d.agent_id % count, d.kind) for d in found) == sorted(
                (d.agent_id, d.kind) for d in original for _ in range(k)), (count, seed)
            gains = {(d.agent_id, d.kind): d.utility_gain for d in original}
            for d in found:
                assert math.isclose(d.utility_gain, gains[d.agent_id % count, d.kind],
                                    rel_tol=1e-12,
                                    abs_tol=k * MET_REL_TOL * config.refund_budget), (
                    count, seed, d)
            reported += len(found)
    assert reported >= 20 * k


BELIEF_PHASE = {Mechanism.PPR: Mechanism.PPRX, Mechanism.PPS: Mechanism.PPSX}


def certified_play(config, agents, rewards=None, sides=None, epsilon=None):
    """Each amount the constructed profile plays, the certificate and each
    deviation's detail and gain, every float as its bits."""
    profile = construct_profile(config, agents, rewards, sides)
    report = certify(config, agents, profile, epsilon)
    return ([(i, e.amount.hex()) for i, e in sorted(profile.entries.items())],
            report.certified,
            [(d.agent_id, d.kind, d.detail, d.utility_gain.hex()) for d in report.deviations])


def recast(config, agents, epsilon=lambda a: 0.0, reward=lambda a: 0.0):
    """A PPR or PPS economy as PPRx or PPSx: each agent's belief offset
    ``epsilon(agent)`` on the provision-likely side, its belief reward
    ``reward(agent)`` and its report provision-likely; PPRx's contribution
    budget is PPR's refund budget. The belief budget only sizes rewards,
    which are given here."""
    budget = ({"refund_budget": None, "contribution_budget": config.refund_budget}
              if config.mechanism is Mechanism.PPR else {})
    belief = dataclasses.replace(
        config, mechanism=BELIEF_PHASE[config.mechanism], belief_budget=1.0,
        deadline_belief=config.deadline_contribution - 1, **budget)
    recast_agents = [dataclasses.replace(a, belief_epsilon=epsilon(a),
                                         belief_side=BeliefSide.PROVISION_LIKELY)
                     for a in agents]
    return (belief, recast_agents, {a.id: reward(a) for a in agents},
            {a.id: BeliefSide.PROVISION_LIKELY for a in agents})


@pytest.mark.parametrize("count", [6, 24, 256])
@pytest.mark.parametrize("mechanism", [Mechanism.PPR, Mechanism.PPS])
def test_a_belief_phase_mechanism_at_even_odds_and_no_reward_is_its_base(mechanism,
                                                                         count):
    # ROADMAP item 30: the paper builds PPRx and PPSx by adding belief
    # rewards to PPR and PPS. With every belief at even odds, every report
    # provision-likely and every reward 0 the belief-phase mechanism plays,
    # certifies and reports each deviation exactly as its base, to the bit
    for seed in range(1, 11):
        scenario = generate_scenario(ScenarioTemplate(mechanism, count), seed)
        config, agents = scenario.config, scenario.agents
        belief, recast_agents, rewards, sides = recast(config, agents)
        for epsilon in (None, 0.0):
            assert (certified_play(belief, recast_agents, rewards, sides, epsilon)
                    == certified_play(config, agents, epsilon=epsilon)), (seed, epsilon)


@pytest.mark.parametrize("mechanism", [Mechanism.PPR, Mechanism.PPS])
def test_a_belief_reward_or_uneven_odds_break_the_reduction(mechanism):
    # negative controls: a nonzero reward for every other agent breaks both
    # relations; uneven provision beliefs break PPR's, whose cap weighs them
    # (a PPSx security quantity does not)
    scenario = generate_scenario(ScenarioTemplate(mechanism, 24), 1)
    config, agents = scenario.config, scenario.agents
    base = certified_play(config, agents)
    rewarded = recast(config, agents, reward=lambda a: 0.5 * (a.id % 2))
    assert certified_play(*rewarded) != base
    if mechanism is Mechanism.PPR:
        uneven = recast(config, agents, epsilon=lambda a: 0.1 * (a.id % 3))
        assert certified_play(*uneven) != base


def relabelled(agents, seed):
    """``agents`` under a seeded permutation of their ids, each keeping its
    valuation, beliefs and arrivals, listed by the new id."""
    ids = [a.id for a in agents]
    random.Random(seed).shuffle(ids)
    return sorted((dataclasses.replace(a, id=new) for a, new in zip(agents, ids)),
                  key=lambda a: a.id)


def replayed_and_certified(config, agents):
    """The engine's verdict of the constructed play, and its certificate."""
    report = certify(config, agents, construct_profile(config, agents))
    return report.expected_verdict, report.certified


@pytest.mark.parametrize("mechanism", [
    Mechanism.PPR, Mechanism.PPS, Mechanism.PPRX, Mechanism.PPSX,
    pytest.param(Mechanism.PPRN, marks=pytest.mark.xfail(
        strict=True, reason="finding (b): the deadline race goes by id (ROADMAP item 28)")),
    pytest.param(Mechanism.PPSN, marks=pytest.mark.xfail(
        strict=True, reason="same-tick arrivals race by id (ROADMAP item 28)")),
], ids=lambda m: m.value)
def test_relabelling_the_agents_keeps_the_verdict_and_the_certificate(mechanism):
    # ids name agents and order same-tick plays; the game does not depend on
    # them, so neither may the replayed verdict nor the certificate
    flips = []
    for count in (6, 24):
        for seed in range(1, 11):
            scenario = generate_scenario(ScenarioTemplate(mechanism, count), seed)
            config, agents = scenario.config, scenario.agents
            found = replayed_and_certified(config, agents)
            for permutation in range(3):
                if replayed_and_certified(config, relabelled(agents, permutation)) != found:
                    flips.append((count, seed, permutation))
    assert flips == []
