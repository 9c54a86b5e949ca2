"""Scenario orchestration: conditions, profile, campaign, certification
(when the scenario's ``analysis.certify`` asks for it), and report files,
in that order."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import reports
from .beliefs import (
    bbr_rewards,
    belief_reports,
    reported_sides,
    score_reports,
    side_rewards,  # noqa: F401 -- not called here; perfbench/tracing.py wraps it in runner
)
from .equilibrium import (
    EquilibriumProfile,
    EquilibriumReport,
    check_conditions,
    construct_profile,
    certify_ne,
    certify_spe,
    tolerance,
)
from .mechanisms import Action, belief_paid, run_campaign, settle
from .model import BeliefSide, Outcome, Verdict, own_market, plain_sum
from .scenario import Scenario, ScenarioError


@dataclass
class RunResult:
    conditions: list
    outcome: Outcome | None = None
    certification: EquilibriumReport | None = None
    files: list[Path] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def profile_from_actions(scenario: Scenario, belief_rewards: dict[int, float],
                         sides: dict[int, BeliefSide]) -> EquilibriumProfile:
    """Interpret explicit plays as a candidate profile for certification,
    priced with the belief budget's split at each agent's reported side
    (both empty for one-phase mechanisms).

    Requires at most one action per agent; agents without an action play
    zero at the deadline on their preferred market.
    """
    config = scenario.config
    actions = scenario.explicit_actions or []
    by_agent: dict[int, Action] = {}
    for i, action in enumerate(actions):
        if action.agent_id in by_agent:
            raise ScenarioError(
                f"scenario.explicit_actions[{i}].agent_id: certification of "
                "explicit plays requires at most one action per agent; agent "
                f"{action.agent_id} has several")
        by_agent[action.agent_id] = action
    entries = {agent.id: by_agent.get(agent.id) or Action(
        agent.id, 0.0, own_market(config, agent), config.deadline_contribution)
        for agent in scenario.agents}
    return EquilibriumProfile(entries, belief_rewards=dict(belief_rewards), sides=dict(sides))


def run_scenario(scenario: Scenario, out_dir: str | Path | None = None,
                 epsilon: float | None = None,
                 fmt: str = "csv") -> RunResult:
    """Check the conditions, play the campaign, certify when the scenario's
    ``analysis.certify`` asks, and write report files. An infeasible
    constructed profile is noted and not played.

    Outputs are deterministic: rerunning the same scenario produces
    byte-identical files. The campaign replays every explicit action; only
    a certification reads them as a profile, one action per agent. An
    ``epsilon`` the certifiers refuse is refused first, certifying or not.
    """
    config = scenario.config
    epsilon = tolerance(config, epsilon)
    flags = scenario.analysis
    result = RunResult(conditions=check_conditions(config, scenario.agents))

    profile: EquilibriumProfile | None = None
    # the reports are scored and the belief budget split once: the profile
    # prices each reporter's reward on its reported side, and settlement pays
    # it there
    ledger, rewards, sides = None, {}, {}
    if config.mechanism.two_phase:
        ledger = score_reports(belief_reports(scenario.agents, scenario.explicit_reports))
        rewards = bbr_rewards(ledger, config.belief_budget)  # type: ignore[arg-type]
        sides = reported_sides(ledger, scenario.agents)
    if scenario.explicit_actions is None:
        profile = construct_profile(config, scenario.agents, rewards, sides)
        if not profile.feasible:
            result.notes.append(f"profile infeasible: {profile.reason}")
    elif flags.certify:
        profile = profile_from_actions(scenario, rewards, sides)

    dual = None
    if profile is None or profile.feasible:
        actions = (scenario.explicit_actions if scenario.explicit_actions is not None
                   else profile.plays())
        verdict, dual = run_campaign(config, actions)
        if ledger is not None:
            # the weights of the reports that collect their reward at this verdict
            won = [ledger.weights[r.agent_id] for r in ledger.reports
                   if belief_paid(r.side, verdict is Verdict.PROVISIONED, 1.0)]
            if not won:
                result.notes.append("no belief reward paid: no report is on the winning side")
            elif plain_sum(won) <= 0.0:
                result.notes.append("belief budget split equally: the winning side's "
                                    "report weights sum to zero")
        result.outcome = settle(config, scenario.agents, verdict, dual,
                                belief_rewards=None if ledger is None else rewards,
                                beliefs=ledger)

    if profile is not None and flags.certify:
        # the mechanism's own equilibrium notion; the report carries the
        # conditions evaluated above
        certify = certify_spe if config.mechanism.sequential else certify_ne
        result.certification = certify(config, scenario.agents, profile, epsilon,
                                       result.conditions, book=dual)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if result.outcome is not None and dual is not None:
            rows = reports.settlement_rows(scenario.agents, result.outcome)
            if fmt == "json":
                path = out / "settlement.json"
                path.write_text(reports.settlement_json(rows))
            else:
                path = out / "settlement.csv"
                path.write_text(reports.settlement_csv(rows))
            result.files.append(path)
            path = out / "ledger.csv"
            path.write_text(reports.ledger_csv(dual))
            result.files.append(path)
        if result.certification is not None:
            path = out / "certification.json"
            path.write_text(reports.certification_json(result.certification))
            result.files.append(path)
        path = out / "summary.txt"
        path.write_text(reports.summary_text(
            config, scenario.agents, result.conditions, result.outcome,
            result.certification, result.notes))
        result.files.append(path)
    return result
