import math
import random

import pytest

from provpoint.beliefs import (
    BeliefReport,
    bbr_rewards,
    belief_reports,
    quadratic_score,
    rbts_scores,
    score_reports,
    side_rewards,
)
from provpoint.costfn import CostFunction
from provpoint.mechanisms import belief_paid, payoff
from provpoint.model import (
    AgentProfile,
    BeliefSide,
    ContributionRecord,
    Market,
    Verdict,
)
from provpoint.runner import run_scenario
from provpoint.scenario import ScenarioError, parse_scenario_dict


def report(aid, info, pred, tick=0):
    return BeliefReport(agent_id=aid, information=info, prediction=pred, tick=tick)


# ---------------------------------------------------------------------------
# Quadratic scoring
# ---------------------------------------------------------------------------


def test_quadratic_score_values():
    assert quadratic_score(1.0, 1) == 1.0
    assert quadratic_score(0.5, 1) == 0.75
    assert quadratic_score(0.5, 0) == 0.75
    assert quadratic_score(0.0, 0) == 1.0


def test_quadratic_score_proper():
    # expected score under a true frequency is maximized at the true report
    truth = 0.7
    def expected(p):
        return truth * quadratic_score(p, 1) + (1 - truth) * quadratic_score(p, 0)
    grid = [i / 100 for i in range(101)]
    best = max(grid, key=expected)
    assert best == pytest.approx(truth, abs=1e-12)


def test_quadratic_score_rejects_bad_input():
    with pytest.raises(ValueError):
        quadratic_score(1.5, 1)
    with pytest.raises(ValueError):
        quadratic_score(0.5, 2)


# ---------------------------------------------------------------------------
# Peer-prediction scores
# ---------------------------------------------------------------------------


def test_scores_worked_example():
    reports = [report(1, 1, 0.7), report(2, 1, 0.5), report(3, 0, 0.2)]
    scores = rbts_scores(reports)
    # agent 1: reference has g=0.5 so the shift is 0.5, shadow=1.0, peer says 0
    assert scores[1] == pytest.approx(0.51, abs=1e-12)


def test_scores_symmetric_profile():
    reports = [report(i, 1, 0.5) for i in range(3)]
    scores = rbts_scores(reports)
    for value in scores.values():
        assert value == pytest.approx(1.75, abs=1e-12)


def test_scores_extreme_reference_prediction():
    # reference prediction at 0 or 1 pins the shadow to the reference
    reports = [report(0, 1, 0.4), report(1, 0, 1.0), report(2, 1, 0.3)]
    scores = rbts_scores(reports)
    expected = quadratic_score(1.0, 1) + quadratic_score(0.4, 1)
    assert scores[0] == pytest.approx(expected, abs=1e-12)


def test_scores_require_three_reports():
    with pytest.raises(ValueError, match="3"):
        rbts_scores([report(0, 1, 0.5), report(1, 0, 0.5)])


def test_scores_stay_in_range():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(3, 9)
        reports = [report(i, rng.randrange(2), rng.random()) for i in range(n)]
        for value in rbts_scores(reports).values():
            assert 0.0 <= value <= 2.0


# ---------------------------------------------------------------------------
# Reward allocation
# ---------------------------------------------------------------------------


def test_prefix_weights_worked_example():
    reports = [report(0, 0, 0.9, tick=0), report(1, 0, 0.2, tick=1),
               report(2, 0, 0.5, tick=2)]
    ledger = score_reports(reports)
    ledger.scores = {0: 2.0, 1: 1.0, 2: 1.0}
    # recompute weights from the forced scores
    ledger.weights = {}
    prefix = 0.0
    for rep in ledger.reports:
        prefix += ledger.scores[rep.agent_id]
        ledger.weights[rep.agent_id] = ledger.scores[rep.agent_id] / prefix
    assert ledger.weights[0] == pytest.approx(1.0)
    assert ledger.weights[1] == pytest.approx(1.0 / 3.0)
    assert ledger.weights[2] == pytest.approx(1.0 / 4.0)
    rewards = bbr_rewards(ledger, 1.0)
    assert rewards[0] == pytest.approx(12.0 / 19.0)
    assert rewards[1] == pytest.approx(4.0 / 19.0)
    assert rewards[2] == pytest.approx(3.0 / 19.0)


@pytest.mark.parametrize("budget", [0.0, -1.0])
def test_bbr_rewards_refuse_a_nonpositive_budget(budget):
    ledger = score_reports([report(i, 1, 0.5) for i in range(3)])
    with pytest.raises(ValueError, match=f"belief budget must be positive, got {budget}"):
        bbr_rewards(ledger, budget)


def test_equal_scores_decreasing_weights():
    reports = [report(i, 0, 0.5, tick=i) for i in range(3)]
    ledger = score_reports(reports)
    weights = [ledger.weights[i] for i in range(3)]
    assert weights[0] == pytest.approx(1.0)
    assert weights[1] == pytest.approx(0.5)
    assert weights[2] == pytest.approx(1.0 / 3.0)
    assert weights[0] > weights[1] > weights[2]


def test_single_winner_takes_budget():
    # each side splits the whole budget; on provision the lone
    # provision-likely reporter collects all of it and the others nothing
    reports = [report(0, 0, 0.4, tick=0), report(1, 1, 0.6, tick=1),
               report(2, 1, 0.7, tick=2)]
    ledger = score_reports(reports)
    rewards = bbr_rewards(ledger, 5.0)
    assert rewards[0] == pytest.approx(5.0)
    assert rewards[1] + rewards[2] == pytest.approx(5.0)
    paid = {r.agent_id: belief_paid(r.side, True, rewards[r.agent_id]) for r in ledger.reports}
    assert paid == {0: rewards[0], 1: 0.0, 2: 0.0}


def test_empty_winning_side_flagged():
    # every report is rejection-likely and the project is provisioned:
    # nobody is paid, and the run notes why
    reports = [{"agent_id": i, "information": 1, "prediction": 0.5, "tick": i}
               for i in range(3)]
    result = two_phase_result([optimist(i) for i in range(3)],
                              [stake(i) for i in range(3)], reports)
    assert result.outcome.verdict is Verdict.PROVISIONED
    assert all(p.belief_reward == 0.0 for p in result.outcome.payouts.values())
    assert result.notes == ["no belief reward paid: no report is on the winning side"]


def test_zero_scores_split_equally():
    reports = [report(0, 0, 1.0, tick=0), report(1, 0, 1.0, tick=1),
               report(2, 0, 1.0, tick=2), report(3, 1, 0.0, tick=3)]
    ledger = score_reports(reports)
    ledger.scores = {i: 0.0 for i in range(4)}
    ledger.weights = {i: 0.0 for i in range(4)}
    rewards = bbr_rewards(ledger, 6.0)
    assert rewards[0] == rewards[1] == rewards[2] == pytest.approx(2.0)
    assert rewards[3] == 6.0


def test_budget_balance():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(3, 8)
        reports = [report(i, rng.randrange(2), rng.random(), tick=rng.randrange(4))
                   for i in range(n)]
        ledger = score_reports(reports)
        for side in BeliefSide:
            if not any(r.side is side for r in ledger.reports):
                continue
            rewards = side_rewards(ledger, side, 7.0)
            assert sum(rewards.values()) == pytest.approx(7.0, rel=1e-9)


def test_duplicate_reports_rejected():
    reports = [report(0, 0, 0.5), report(0, 1, 0.5), report(2, 0, 0.5)]
    with pytest.raises(ValueError, match="duplicate"):
        score_reports(reports)


def test_winning_side_mapping():
    # the provision-likely side collects on provision; the rejection-likely
    # side on rejection and on expiry, when the project did not happen
    assert belief_paid(BeliefSide.PROVISION_LIKELY, True, 2.0) == 2.0
    assert belief_paid(BeliefSide.PROVISION_LIKELY, False, 2.0) == 0.0
    assert belief_paid(BeliefSide.REJECTION_LIKELY, True, 2.0) == 0.0
    assert belief_paid(BeliefSide.REJECTION_LIKELY, False, 2.0) == 2.0


# ---------------------------------------------------------------------------
# Two-phase utilities
# ---------------------------------------------------------------------------


def test_pprx_utility():
    plus = AgentProfile(id=0, valuation=10.0)
    assert payoff(plus, Market.FOR, BeliefSide.PROVISION_LIKELY, Verdict.PROVISIONED,
                  5.0, 20.0, 5.0, 0.0, 2.0) == 7.0
    assert payoff(plus, Market.FOR, BeliefSide.REJECTION_LIKELY, Verdict.PROVISIONED,
                  5.0, 20.0, 5.0, 0.0, 2.0) == 5.0
    assert payoff(plus, Market.FOR, BeliefSide.REJECTION_LIKELY, Verdict.EXPIRED,
                  4.0, 20.0, 5.0, 0.0, 2.0) == 3.0
    assert payoff(plus, Market.FOR, BeliefSide.PROVISION_LIKELY, Verdict.EXPIRED,
                  0.0, 0.0, 5.0, 0.0, 2.0) == 0.0


def test_ppsx_utility():
    cf = CostFunction()
    agent = AgentProfile(id=0, valuation=10.0)
    five = ContributionRecord(agent_id=0, amount=5.0, tick=0, market=Market.FOR,
                              securities=cf.securities_for(5.0, 0.0))
    assert payoff(agent, Market.FOR, BeliefSide.PROVISION_LIKELY, Verdict.PROVISIONED,
                  five.amount, 0.0, None, five.securities, 2.0) == 7.0
    rec = ContributionRecord(agent_id=0, amount=1.0, tick=0, market=Market.FOR,
                             securities=cf.securities_for(1.0, 0.0))
    assert payoff(agent, Market.FOR, BeliefSide.REJECTION_LIKELY, Verdict.EXPIRED,
                  rec.amount, 0.0, None, rec.securities, 2.0) == pytest.approx(
        math.log(2 * math.e - 1) - 1.0 + 2.0, rel=1e-12)
    zero = ContributionRecord(agent_id=0, amount=0.0, tick=0, market=Market.FOR)
    assert payoff(agent, Market.FOR, BeliefSide.PROVISION_LIKELY, Verdict.EXPIRED,
                  zero.amount, 0.0, None, zero.securities, 0.0) == 0.0


# ---------------------------------------------------------------------------
# Two-phase orchestration
# ---------------------------------------------------------------------------


def optimist(i):
    return {"id": i, "valuation": 10.0, "belief_epsilon": 0.1,
            "belief_side": "provision_likely", "arrival_belief": i,
            "arrival_contribution": i}


def two_phase_result(agents, actions, reports=None, h0=12.0):
    """Parse a PPRx scenario with explicit plays (and reports, when given)
    and run it."""
    data = {
        "version": 1,
        "config": {"mechanism": "PPRx", "provision_point": h0, "belief_budget": 6.0,
                   "contribution_budget": 3.0, "deadline_contribution": 8,
                   "deadline_belief": 4},
        "agents": agents,
        "explicit_actions": actions,
    }
    if reports is not None:
        data["explicit_reports"] = reports
    return run_scenario(parse_scenario_dict(data))


def two_phase_run(agents, actions, reports=None, h0=12.0):
    """The settled outcome of ``two_phase_result``."""
    return two_phase_result(agents, actions, reports, h0).outcome


def stake(i):
    return {"agent_id": i, "amount": 4.0, "market": "for", "tick": 5}


def test_two_phase_provisioned_splits_budget():
    outcome = two_phase_run([optimist(i) for i in range(3)],
                            [stake(i) for i in range(3)])
    assert outcome.verdict is Verdict.PROVISIONED
    paid = [outcome.payouts[i].belief_reward for i in range(3)]
    assert sum(paid) == pytest.approx(6.0, rel=1e-9)
    assert all(p > 0 for p in paid)


def test_two_phase_expiry_rewards_rejection_side():
    agents = [optimist(i) for i in range(3)] + [
        {"id": 3, "valuation": 5.0, "belief_epsilon": 0.2,
         "belief_side": "rejection_likely"}]
    outcome = two_phase_run(agents, [], h0=100.0)
    assert outcome.verdict is Verdict.EXPIRED
    assert outcome.payouts[3].belief_reward == pytest.approx(6.0)
    assert all(outcome.payouts[i].belief_reward == 0.0 for i in range(3))


def test_two_phase_earlier_reporter_earns_more():
    # identical reports except the tick: the earlier one weighs more
    reports = [{"agent_id": i, "information": 0, "prediction": 0.4, "tick": tick}
               for i, tick in ((0, 2), (1, 0), (2, 1))]
    outcome = two_phase_run([optimist(i) for i in range(3)],
                            [stake(i) for i in range(3)], reports)
    rewards = {i: outcome.payouts[i].belief_reward for i in range(3)}
    assert rewards[1] > rewards[2] > rewards[0]


def test_two_phase_validation():
    # reports for a one-phase mechanism and fewer than 3 agents are refused
    # too: test_scenario.py checks both
    agents = [optimist(i) for i in range(3)]
    reports = [{"agent_id": i, "information": 0, "prediction": 0.5} for i in range(3)]
    with pytest.raises(ScenarioError, match=r"explicit_reports\[0\]\.agent_id: unknown agent 7"):
        two_phase_run(agents, [], [dict(reports[0], agent_id=7)] + reports[1:])
    late = [dict(reports[0], tick=9)] + reports[1:]
    with pytest.raises(ScenarioError,
                       match=r"explicit_reports\[0\]\.tick: 9 is past the belief deadline 4"):
        two_phase_run(agents, [], late)


def test_default_report_is_truthful():
    agent = AgentProfile(id=4, valuation=3.0, belief_epsilon=0.2,
                         belief_side=BeliefSide.REJECTION_LIKELY,
                         arrival_belief=2)
    rep, = belief_reports([agent])
    assert rep.information == 1
    assert rep.prediction == pytest.approx(0.7)
    assert rep.tick == 2
    # explicit reports are scored as filed
    explicit = [report(4, 0, 0.1)]
    assert belief_reports([agent], explicit) is explicit
