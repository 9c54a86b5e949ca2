"""Belief phase: peer-prediction scoring of reports and budget-balanced rewards.

Each agent files a binary information report (0 = expects provision, 1 =
expects no provision) plus a prediction of how frequent 1-reports will be.
Scores combine an information score and a prediction score through a
normalized binary quadratic rule, using the next agent in report order as
reference and the one after as peer (wrapping around). The scored ledger is
the one record of the belief phase, and ``bbr_rewards`` splits the budget
once from it: each reporter's reward were its reported side to win, each
side's reporters sharing the whole budget by score over the prefix of
earlier reporters, which makes equal-scoring early reporters strictly
better off than late ones. The contribution bounds price that reward, and
settlement pays it, on the branch the reported side wins: the payoff rule's
``belief_paid`` term in ``mechanisms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import AgentProfile, BeliefSide, plain_sum


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
    """Frozen belief phase: ordered reports plus scores and weights."""

    reports: list[BeliefReport]
    scores: dict[int, float] = field(default_factory=dict)
    weights: dict[int, float] = field(default_factory=dict)


def quadratic_score(p: float, outcome: int) -> float:
    """Normalized binary quadratic score in [0, 1]; strictly proper."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be within [0, 1], got {p}")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    if outcome == 1:
        return 1.0 - (1.0 - p) * (1.0 - p)
    return 1.0 - p * p


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
    """Build a ledger with canonical ordering (tick, ties broken by agent
    id), scores, and prefix weights."""
    ordered = sorted(reports, key=lambda r: (r.tick, r.agent_id))
    ids = [r.agent_id for r in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate belief reports for one agent")
    scores = rbts_scores(ordered)
    weights, prefix = {}, 0.0
    for rep in ordered:
        prefix += scores[rep.agent_id]
        weights[rep.agent_id] = scores[rep.agent_id] / prefix if prefix > 0.0 else 0.0
    return BeliefLedger(ordered, scores, weights)


def side_rewards(ledger: BeliefLedger, side: BeliefSide, budget: float) -> dict[int, float]:
    """Budget split among one side's reporters by prefix-normalized weight.

    This is the reward each member would collect were its side to win; all
    of the budget is always handed out. Degenerate all-zero weights fall
    back to an equal split.
    """
    members = [r.agent_id for r in ledger.reports if r.side is side]
    total = plain_sum(ledger.weights[a] for a in members)
    if total <= 0.0:
        return {a: budget / len(members) for a in members}
    return {a: ledger.weights[a] / total * budget for a in members}


def bbr_rewards(ledger: BeliefLedger, budget: float) -> dict[int, float]:
    """The belief budget's one split: each reporter's reward were its own
    reported side to win, every side splitting the whole budget. The
    contribution bounds price this reward and settlement pays it, each on
    the branch the reported side wins; a side without reporters pays
    nobody."""
    if budget <= 0:
        raise ValueError(f"belief budget must be positive, got {budget}")
    rewards: dict[int, float] = {}
    for side in _SIDES:
        rewards.update(side_rewards(ledger, side, budget))
    return rewards


def reported_sides(ledger: BeliefLedger,
                   agents: list[AgentProfile]) -> dict[int, BeliefSide]:
    """Each agent's side as the mechanism learns it: its report's, or its
    belief side when it filed none."""
    reported = {r.agent_id: r.side for r in ledger.reports}
    return {a.id: reported.get(a.id, a.belief_side) for a in agents}


def belief_reports(agents: list[AgentProfile],
                   reports: list[BeliefReport] | None = None) -> list[BeliefReport]:
    """The explicit ``reports``, or every agent's truthful report when there
    are none: information from its belief side, prediction its own
    probability of a no-provision outcome, filed at its belief arrival."""
    if reports is not None:
        return reports
    return [BeliefReport(
        agent_id=a.id,
        information=0 if a.belief_side is BeliefSide.PROVISION_LIKELY else 1,
        prediction=a.rejection_belief,
        tick=a.arrival_belief,
    ) for a in agents]
