"""Belief phase: peer-prediction scoring of reports and budget-balanced rewards.

Each agent files a binary information report (0 = expects provision, 1 =
expects no provision) plus a prediction of how frequent 1-reports will be.
Scores combine an information score and a prediction score through a
normalized binary quadratic rule, using the next agent in report order as
reference and the one after as peer (wrapping around). Rewards split a fixed
budget across the side that matched the realized verdict, weighted by score
over the prefix of earlier reporters, which makes equal-scoring early
reporters strictly better off than late ones.
The contribution utilities that add the reward to a branch are rows of the
payoff rule in ``mechanisms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import AgentProfile, BeliefSide, Verdict, plain_sum


# by information report; bound once, as an enum member lookup costs a few
# hundred ns on Python 3.11 and settlement and every split read each side
_SIDES = (BeliefSide.PROVISION_LIKELY, BeliefSide.REJECTION_LIKELY)


@dataclass(frozen=True)
class BeliefReport:
    agent_id: int
    information: int
    prediction: float
    tick: int = 0

    def __post_init__(self) -> None:
        if self.information not in (0, 1):
            raise ValueError(
                f"agent {self.agent_id}: information report must be 0 or 1"
            )
        if not 0.0 <= self.prediction <= 1.0:
            raise ValueError(
                f"agent {self.agent_id}: prediction must be within [0, 1]"
            )
        if self.tick < 0:
            raise ValueError(f"agent {self.agent_id}: report tick must be nonnegative")

    @property
    def side(self) -> BeliefSide:
        """Side membership as the mechanism learns it, from the report alone."""
        return _SIDES[self.information]


@dataclass
class BeliefLedger:
    """Frozen belief phase: ordered reports plus scores and weights, and
    flags for the degenerate splits settlement met."""

    reports: list[BeliefReport]
    scores: dict[int, float] = field(default_factory=dict)
    weights: dict[int, float] = field(default_factory=dict)
    empty_winning_side: bool = False
    zero_score_split: bool = False


def quadratic_score(p: float, outcome: int) -> float:
    """Normalized binary quadratic score in [0, 1]; strictly proper."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be within [0, 1], got {p}")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    if outcome == 1:
        return 1.0 - (1.0 - p) * (1.0 - p)
    return 1.0 - p * p


def sort_reports(reports: list[BeliefReport]) -> list[BeliefReport]:
    """Canonical report order: tick, ties broken by agent id."""
    return sorted(reports, key=lambda r: (r.tick, r.agent_id))


def rbts_scores(reports: list[BeliefReport]) -> dict[int, float]:
    """Score every report against its reference (next) and peer (next-next).

    The shadow prediction moves the reference agent's prediction toward the
    reporter's own information by the largest shift that stays inside [0, 1].
    Scores land in [0, 2] since each is a sum of two unit-range scores.
    Requires at least three reports.
    """
    n = len(reports)
    if n < 3:
        raise ValueError(f"belief scoring requires at least 3 reports, got {n}")
    scores: dict[int, float] = {}
    for i, rep in enumerate(reports):
        ref = reports[(i + 1) % n]
        peer = reports[(i + 2) % n]
        delta = min(ref.prediction, 1.0 - ref.prediction)
        shadow = ref.prediction + delta if rep.information == 1 else ref.prediction - delta
        scores[rep.agent_id] = (quadratic_score(shadow, peer.information)
                                + quadratic_score(rep.prediction, peer.information))
    return scores


def score_reports(reports: list[BeliefReport]) -> BeliefLedger:
    """Build a ledger with canonical ordering, scores, and prefix weights."""
    ordered = sort_reports(reports)
    ids = [r.agent_id for r in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate belief reports for one agent")
    ledger = BeliefLedger(reports=ordered)
    ledger.scores = rbts_scores(ordered)
    prefix = 0.0
    for rep in ordered:
        prefix += ledger.scores[rep.agent_id]
        ledger.weights[rep.agent_id] = (
            ledger.scores[rep.agent_id] / prefix if prefix > 0.0 else 0.0
        )
    return ledger


def _split(ledger: BeliefLedger, side: BeliefSide,
           budget: float) -> tuple[dict[int, float], float]:
    """One side's budget split and the weight total it was split by."""
    members = [r.agent_id for r in ledger.reports if r.side is side]
    total = plain_sum(ledger.weights[a] for a in members)
    if total <= 0.0:
        return {a: budget / len(members) for a in members}, total
    return {a: ledger.weights[a] / total * budget for a in members}, total


def side_rewards(ledger: BeliefLedger, side: BeliefSide, budget: float) -> dict[int, float]:
    """Budget split among one side's reporters by prefix-normalized weight.

    This is the reward each member would collect were its side to win; all
    of the budget is always handed out. Degenerate all-zero weights fall
    back to an equal split.
    """
    return _split(ledger, side, budget)[0]


def conditional_rewards(ledger: BeliefLedger, budget: float) -> dict[int, float]:
    """Each reporter's reward were its own reported side to win. The
    contribution bounds price this reward, and ``bbr_rewards`` pays the same
    split to the side that wins."""
    rewards: dict[int, float] = {}
    for side in BeliefSide:
        rewards.update(side_rewards(ledger, side, budget))
    return rewards


def bbr_rewards(ledger: BeliefLedger, winning_side: BeliefSide,
                budget: float) -> dict[int, float]:
    """Realized rewards: winning side splits the budget, losers get zero.

    An empty winning side leaves the reward undefined; everyone gets zero
    and the ledger is flagged so callers can surface it.
    """
    if budget <= 0:
        raise ValueError(f"belief budget must be positive, got {budget}")
    winners, total = _split(ledger, winning_side, budget)
    ledger.empty_winning_side = not winners
    ledger.zero_score_split = bool(winners) and total <= 0.0
    return {r.agent_id: winners.get(r.agent_id, 0.0) for r in ledger.reports}


def winning_side_for(verdict: Verdict) -> BeliefSide:
    """Map the campaign verdict to the rewarded side; expiry counts as the
    project not happening, so the rejection-minded side collects."""
    if verdict is Verdict.PROVISIONED:
        return BeliefSide.PROVISION_LIKELY
    return BeliefSide.REJECTION_LIKELY


def default_report(agent: AgentProfile) -> BeliefReport:
    """Truthful report at the agent's arrival: information from its side,
    prediction equal to its own probability of a no-provision outcome."""
    return BeliefReport(
        agent_id=agent.id,
        information=0 if agent.belief_side is BeliefSide.PROVISION_LIKELY else 1,
        prediction=agent.rejection_belief,
        tick=agent.arrival_belief,
    )

