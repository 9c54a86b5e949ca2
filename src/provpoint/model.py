"""Core domain types: agents, campaign configuration, and settlement outcomes.

All currency amounts and probabilities are doubles; ticks are integers.
Belief-phase ticks and contribution-phase ticks live on separate clocks.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from .costfn import CostFunction


class Mechanism(enum.Enum):
    PPR = "PPR"
    PPS = "PPS"
    PPRN = "PPRN"
    PPSN = "PPSN"
    PPRX = "PPRx"
    PPSX = "PPSx"

    @cached_property
    def dual_market(self) -> bool:
        """Runs a provision market and a rejection market in parallel."""
        return self in (Mechanism.PPRN, Mechanism.PPSN)

    @cached_property
    def uses_securities(self) -> bool:
        """Refunds paid through cost-function security allocations."""
        return self in (Mechanism.PPS, Mechanism.PPSN, Mechanism.PPSX)

    @cached_property
    def two_phase(self) -> bool:
        """Has a belief phase before the contribution phase."""
        return self in (Mechanism.PPRX, Mechanism.PPSX)

    @cached_property
    def sequential(self) -> bool:
        """Equilibrium play is contribute-at-arrival rather than at deadline."""
        return self.uses_securities

    @cached_property
    def markets(self) -> tuple[Market, ...]:
        """The markets the mechanism runs, provision first."""
        return (Market.FOR, Market.AGAINST) if self.dual_market else (Market.FOR,)


class Market(enum.Enum):
    FOR = "for"
    AGAINST = "against"

    @property
    def other(self) -> "Market":
        return Market.AGAINST if self is Market.FOR else Market.FOR


class BeliefSide(enum.Enum):
    PROVISION_LIKELY = "provision_likely"
    REJECTION_LIKELY = "rejection_likely"


class Verdict(enum.Enum):
    PROVISIONED = "provisioned"
    REJECTED = "rejected"
    EXPIRED = "expired"


@dataclass(frozen=True)
class AgentProfile:
    """One agent's private information: valuation, belief offset, arrivals.

    ``belief_epsilon`` is the offset from an even-odds outlook; the derived
    provision probability is 1/2 + epsilon for a ``PROVISION_LIKELY`` agent
    and 1/2 - epsilon for a ``REJECTION_LIKELY`` one, so the two always sum
    to 1 and are never stored separately.
    """

    id: int
    valuation: float
    belief_epsilon: float = 0.0
    belief_side: BeliefSide = BeliefSide.PROVISION_LIKELY
    arrival_belief: int = 0
    arrival_contribution: int = 0

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"agent id must be nonnegative, got {self.id}")
        if not 0.0 <= self.belief_epsilon <= 0.5:
            raise ValueError(
                f"agent {self.id}: belief_epsilon must be within [0, 0.5], "
                f"got {self.belief_epsilon}"
            )
        for name in ("arrival_belief", "arrival_contribution"):
            if getattr(self, name) < 0:
                raise ValueError(f"agent {self.id}: {name} must be nonnegative, "
                                 f"got {getattr(self, name)}")

    @property
    def provision_belief(self) -> float:
        """Probability this agent assigns to the project being provisioned."""
        if self.belief_side is BeliefSide.PROVISION_LIKELY:
            return 0.5 + self.belief_epsilon
        return 0.5 - self.belief_epsilon

    @property
    def rejection_belief(self) -> float:
        return 1.0 - self.provision_belief


def derive_preference(agent: AgentProfile) -> Market:
    """True market preference: FOR iff valuation >= 0 (zero counts as positive)."""
    return Market.FOR if agent.valuation >= 0 else Market.AGAINST


def plain_sum(values: Iterable[float]) -> float:
    """``sum`` as before Python 3.12 compensated float rounding in it."""
    total = 0
    for value in values:
        total += value
    return total


def aggregate_valuations(agents: list[AgentProfile]) -> tuple[float, float, float]:
    """Return (net, total_for, total_against) aggregate valuations.

    ``total_for`` sums valuations of agents preferring provision,
    ``total_against`` sums the magnitudes for agents preferring rejection,
    and ``net = total_for - total_against``.
    """
    total_for = plain_sum(a.valuation for a in agents if a.valuation >= 0)
    total_against = plain_sum(-a.valuation for a in agents if a.valuation < 0)
    return total_for - total_against, total_for, total_against


@dataclass(frozen=True)
class CampaignConfig:
    """Mechanism selection plus the targets, budgets, and deadlines it needs.

    Fields not used by the selected mechanism must be left unset; validation
    rejects both missing-required and present-unused fields so scenario files
    cannot silently carry dead parameters.
    """

    mechanism: Mechanism
    provision_point: float | None = None
    provision_point_pair: tuple[float, float] | None = None
    refund_budget: float | None = None
    belief_budget: float | None = None
    contribution_budget: float | None = None
    deadline_contribution: int = 0
    deadline_belief: int | None = None
    cost_params: CostFunction | None = None

    def __post_init__(self) -> None:
        m = self.mechanism
        required: dict[str, bool] = {
            "provision_point": not m.dual_market,
            "provision_point_pair": m.dual_market,
            "refund_budget": m in (Mechanism.PPR, Mechanism.PPRN),
            "belief_budget": m.two_phase,
            "contribution_budget": m is Mechanism.PPRX,
            "deadline_belief": m.two_phase,
            "cost_params": m.uses_securities,
        }
        for name, needed in required.items():
            value = getattr(self, name)
            if needed and value is None:
                raise ValueError(f"{m.value} requires config field '{name}'")
            if not needed and value is not None:
                raise ValueError(f"{m.value} does not use config field '{name}'")
        if self.provision_point is not None and self.provision_point <= 0:
            raise ValueError("provision_point must be positive")
        if self.provision_point_pair is not None:
            h_for, h_against = self.provision_point_pair
            if h_for <= 0 or h_against <= 0:
                raise ValueError("both provision_point_pair targets must be positive")
            if not math.isfinite(h_for + h_against):
                raise ValueError("provision_point_pair targets must have a finite sum, "
                                 f"got {h_for} + {h_against}")
        for name in ("refund_budget", "belief_budget", "contribution_budget"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.deadline_contribution < 0:
            raise ValueError("deadline_contribution must be nonnegative")
        if self.deadline_belief is not None:
            if self.deadline_belief < 0:
                raise ValueError("deadline_belief must be nonnegative")
            if self.deadline_belief >= self.deadline_contribution:
                raise ValueError(
                    "deadline_belief must precede deadline_contribution "
                    f"({self.deadline_belief} >= {self.deadline_contribution})"
                )

    def target(self, market: Market) -> float:
        """Funding target for one market (single-market configs only have FOR)."""
        if self.provision_point_pair is not None:
            h_for, h_against = self.provision_point_pair
            return h_for if market is Market.FOR else h_against
        if market is Market.AGAINST:
            raise ValueError(f"{self.mechanism.value} has no rejection market")
        assert self.provision_point is not None
        return self.provision_point

    @property
    def bonus_budget(self) -> float | None:
        """Pool the refund-bonus family splits over refunded stakes; None
        for the securities family, whose refunds are securities."""
        if self.refund_budget is not None:
            return self.refund_budget
        return self.contribution_budget

    @property
    def target_sum(self) -> float:
        """Sum of all targets; the refund denominator scale for dual markets."""
        if self.provision_point_pair is not None:
            return self.provision_point_pair[0] + self.provision_point_pair[1]
        assert self.provision_point is not None
        return self.provision_point


def own_market(config: CampaignConfig, agent: AgentProfile) -> Market:
    """The market the agent's equilibrium play goes to: its preference's in
    the dual-market mechanisms, the one market otherwise."""
    return derive_preference(agent) if config.mechanism.dual_market else Market.FOR


@dataclass(frozen=True)
class ContributionRecord:
    """One accepted contribution and what it bought.

    ``securities`` is the refund-relevant allocation, priced at
    ``q_at_allocation`` (the min-leg issuance in the dual-market securities
    mechanism). Both stay zero for the refund-bonus family.
    """

    agent_id: int
    amount: float
    tick: int
    market: Market
    securities: float = 0.0
    q_at_allocation: float = 0.0

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ValueError("contribution amount must be nonnegative")
        if self.securities < 0:
            raise ValueError("allocated securities must be nonnegative")


@dataclass
class Payout:
    """One agent's settlement row, as ``settle`` decides it.

    ``refund`` is everything returned to the agent at settlement (returned
    contribution plus bonus for the refund-bonus family, security value for
    the securities family). ``realized`` nets the utility components.
    """

    valuation_term: float = 0.0
    contribution: float = 0.0
    refund: float = 0.0
    belief_reward: float = 0.0
    securities: float = 0.0
    side: Market | BeliefSide = Market.FOR

    @property
    def realized(self) -> float:
        return self.valuation_term - self.contribution + self.refund + self.belief_reward


@dataclass
class Outcome:
    """Campaign result: verdict, per-market totals, per-agent payouts."""

    verdict: Verdict
    total_for: float
    total_against: float
    payouts: dict[int, Payout] = field(default_factory=dict)
