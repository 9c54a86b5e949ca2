import pytest

from provpoint.model import (
    AgentProfile,
    BeliefSide,
    CampaignConfig,
    ContributionRecord,
    Market,
    Mechanism,
    Payout,
    aggregate_valuations,
    derive_preference,
)


@pytest.mark.parametrize("valuation,expected", [
    (10.0, Market.FOR),
    (-3.0, Market.AGAINST),
    (0.0, Market.FOR),  # zero valuation counts as positive preference
])
def test_derive_preference(valuation, expected):
    assert derive_preference(AgentProfile(id=0, valuation=valuation)) is expected


@pytest.mark.parametrize("valuations,expected", [
    ([10.0, 5.0, -4.0], (11.0, 15.0, 4.0)),
    ([], (0.0, 0.0, 0.0)),
    ([-2.0, -2.0], (-4.0, 0.0, 4.0)),
    # each addition rounded, on every Python: the compensated sum of
    # Python 3.12's builtin reads 1.0000000000000002e16
    ([1e16, 1.0, 1.0], (1e16, 1e16, 0.0)),
])
def test_aggregate_valuations(valuations, expected):
    agents = [AgentProfile(id=i, valuation=v) for i, v in enumerate(valuations)]
    assert aggregate_valuations(agents) == expected


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.25, 0.5])
@pytest.mark.parametrize("side", list(BeliefSide))
def test_belief_probabilities_sum_to_one(epsilon, side):
    agent = AgentProfile(id=0, valuation=1.0, belief_epsilon=epsilon,
                         belief_side=side)
    assert agent.provision_belief + agent.rejection_belief == 1.0
    assert agent.provision_belief >= agent.rejection_belief or \
        side is BeliefSide.REJECTION_LIKELY


def test_belief_epsilon_bounds():
    with pytest.raises(ValueError, match="belief_epsilon"):
        AgentProfile(id=0, valuation=1.0, belief_epsilon=0.6)
    with pytest.raises(ValueError, match="belief_epsilon"):
        AgentProfile(id=0, valuation=1.0, belief_epsilon=-0.1)


def test_negative_arrival_rejected():
    with pytest.raises(ValueError, match="arrival"):
        AgentProfile(id=0, valuation=1.0, arrival_contribution=-1)


def test_config_requires_mechanism_fields():
    with pytest.raises(ValueError, match="refund_budget"):
        CampaignConfig(mechanism=Mechanism.PPR, provision_point=10.0,
                       deadline_contribution=5)
    with pytest.raises(ValueError, match="provision_point"):
        CampaignConfig(mechanism=Mechanism.PPRN, provision_point=10.0,
                       refund_budget=1.0, deadline_contribution=5)
    with pytest.raises(ValueError, match="provision_point_pair"):
        CampaignConfig(mechanism=Mechanism.PPRN, refund_budget=1.0,
                       deadline_contribution=5)
    with pytest.raises(ValueError, match="cost_params"):
        CampaignConfig(mechanism=Mechanism.PPS, provision_point=10.0,
                       deadline_contribution=5)


def test_config_rejects_unused_fields():
    with pytest.raises(ValueError, match="does not use"):
        CampaignConfig(mechanism=Mechanism.PPR, provision_point=10.0,
                       refund_budget=1.0, belief_budget=2.0,
                       deadline_contribution=5)


def test_config_rejects_nonpositive_currency():
    with pytest.raises(ValueError, match="refund_budget"):
        CampaignConfig(mechanism=Mechanism.PPR, provision_point=10.0,
                       refund_budget=-1.0, deadline_contribution=5)
    with pytest.raises(ValueError, match="provision_point"):
        CampaignConfig(mechanism=Mechanism.PPR, provision_point=0.0,
                       refund_budget=1.0, deadline_contribution=5)


def test_config_belief_deadline_precedes_contribution():
    with pytest.raises(ValueError, match="deadline_belief"):
        CampaignConfig(mechanism=Mechanism.PPRX, provision_point=10.0,
                       belief_budget=1.0, contribution_budget=1.0,
                       deadline_contribution=3, deadline_belief=3)


def test_config_targets():
    config = CampaignConfig(mechanism=Mechanism.PPRN,
                            provision_point_pair=(10.0, 5.0),
                            refund_budget=1.0, deadline_contribution=5)
    assert config.target(Market.FOR) == 10.0
    assert config.target(Market.AGAINST) == 5.0
    assert config.target_sum == 15.0
    single = CampaignConfig(mechanism=Mechanism.PPR, provision_point=10.0,
                            refund_budget=1.0, deadline_contribution=5)
    with pytest.raises(ValueError, match="rejection market"):
        single.target(Market.AGAINST)


@pytest.mark.parametrize("field,message", [
    ("amount", "contribution amount must be nonnegative"),
    ("securities", "allocated securities must be nonnegative"),
])
def test_contribution_record_refuses_negatives(field, message):
    values = {"amount": 1.0, "securities": 1.0, field: -1.0}
    with pytest.raises(ValueError, match=message):
        ContributionRecord(agent_id=0, tick=0, market=Market.FOR, **values)


def test_payout_realization():
    payout = Payout(valuation_term=10.0, contribution=4.0, refund=1.0,
                    belief_reward=0.5)
    assert payout.realized == 7.5
