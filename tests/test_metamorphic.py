"""Metamorphic relations of the whole run: a transformed scenario that is the
same game must get the same findings. The game is homogeneous of degree one
in money (the LMSR cost scales with its quantities, liquidity and fixed
leg), and PPRN and PPSN treat their two markets alike."""

import json

from hypothesis import given, settings, strategies as st

from provpoint.model import Mechanism, Verdict
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
