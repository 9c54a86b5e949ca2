"""Market replay kernel, campaign engine, payoff rule and settlement.

Every mechanism races one or two markets to their targets, and a market's
state is fixed by the money it has raised: the book (``DualMarketState``)
is two targets, two raised totals and one ledger in play order.
``DualMarketState.play`` is the one function that advances a book (a play
of at least the remaining amount fills the market exactly, and a filled
market closes the book), and securities issuance is derived from the
raised total by ``CostFunction.issued_at``. The engine sorts an action
list into play order, (tick, agent id), replays it through ``play``,
records each accepted contribution in the ledger, discards everything
after the first fill, and hands the frozen book to ``settle``, the report
writers and the certifier; nothing replays or re-sorts it. The securities
family's prescribed followers each buy their security quantity at the
current price: ``DualMarketState.walk`` plays them one by one, under
``play``'s truncation rule, and sums their money per market in the same
pass. ``DualMarketState.follow`` answers where markets holding given money
go after one play and such followers, from prefix sums on a single market
(against the target's issuance, which the caller prices once) and by one
``walk`` under min-leg pricing, as the money the followers pay in. Both
take the money as plain floats (``closed_at`` and ``priced_at`` read a
state the same way), and the book lends only its targets and pricing, so a
state off the ledger is two numbers.

Payoffs follow one rule for all six mechanisms, and the payoff rule section
below holds all of it: ``returned``, ``belief_paid`` and ``payoff``, one
expression that each mechanism applies with some arguments fixed. An agent
receives its valuation exactly when the project is provisioned, pays its
contribution, gets money back (``returned``) unless its own market won, and in
PPRx and PPSx collects its belief reward on the branch its reported side
wins (``belief_paid``), its share of the belief budget's one split
(``beliefs.bbr_rewards``), which the certifier prices. ``settle`` pays each
ledger record what ``returned`` says and each agent what ``belief_paid``
says, and writes each agent's settlement row.

Verdict conventions:
  * a FOR-market fill provisions the project, an AGAINST-market fill rejects
    it, and hitting the deadline with neither filled expires the campaign;
  * on expiry both sides are refunded and nobody receives a valuation term
    (the project neither happened nor was its rejection certified).

Refund-bonus timing never matters (the bonus split only reads amounts), so
ticks are recorded in the ledger but do not enter ``payoff``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from math import expm1, log1p

from .beliefs import BeliefLedger, reported_sides
from .costfn import EXP_LIMIT, CostFunction
from .model import (
    AgentProfile,
    BeliefSide,
    CampaignConfig,
    ContributionRecord,
    Market,
    Outcome,
    Payout,
    Verdict,
    derive_preference,
)


# Bound once: every member lookup on an enum class costs a few hundred ns on
# Python 3.11, and the kernel's walks and the payoffs look them up per follower
# and per evaluation.
_FOR = Market.FOR
_PROVISIONED, _REJECTED = Verdict.PROVISIONED, Verdict.REJECTED
_PROVISION_LIKELY = BeliefSide.PROVISION_LIKELY


@dataclass
class DualMarketState:
    """Replay kernel: the provision and rejection markets of one campaign.

    The book is each market's ``target`` and the money it has ``raised``,
    both as (FOR, AGAINST), and the ``ledger`` of accepted contributions in
    play order; issuance, allocation prices and the verdict are derived
    from the money. ``cf`` is set for the securities family, and
    ``min_leg`` prices allocations at the smaller market's issuance (the
    dual-market securities mechanism).
    """

    target: tuple[float, float]
    cf: CostFunction | None = None
    min_leg: bool = False
    raised: list[float] = field(default_factory=lambda: [0.0, 0.0])
    ledger: list[ContributionRecord] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        """A target has been reached; the book accepts no further play."""
        return self.verdict is not None

    def closed_at(self, raised_for: float, raised_against: float) -> bool:
        """Whether these markets holding the given money are closed."""
        return raised_for >= self.target[0] or raised_against >= self.target[1]

    @property
    def verdict(self) -> Verdict | None:
        """The verdict a filled market decided; None while both are open."""
        if self.raised[0] >= self.target[0]:
            return _PROVISIONED
        if self.raised[1] >= self.target[1]:
            return _REJECTED
        return None

    def price_issuance(self, side: Market) -> float:
        """Issuance an allocation on ``side`` is priced at in this book."""
        return self.priced_at(side, self.raised[0], self.raised[1])

    def priced_at(self, side: Market, raised_for: float, raised_against: float) -> float:
        """Issuance an allocation on ``side`` is priced at once these markets
        hold the given money: with ``min_leg``, the smaller leg's, so a
        contribution earns the same on either side; zero without a cost
        function."""
        if self.cf is None:
            return 0.0
        if self.min_leg:
            leg = raised_for if raised_for <= raised_against else raised_against
        else:
            leg = raised_for if side is _FOR else raised_against
        return self.cf.issued_at(leg)

    def play(self, side: Market, amount: float) -> float:
        """Pay ``amount`` into ``side`` and return the amount accepted.

        This is the only place a ledger book advances. A play of at least
        the remaining amount is truncated to it and fills the market exactly
        (the total is assigned, not accumulated, so the fill is exact).
        """
        if amount < 0:
            raise ValueError("contribution amount must be nonnegative")
        if self.closed:
            raise ValueError("market closed: a target has already been reached")
        i = side is not _FOR
        remaining = self.target[i] - self.raised[i]
        if amount >= remaining:
            self.raised[i] = self.target[i]
            return remaining
        self.raised[i] += amount
        return amount

    def walk(self, raised: list[float], plays: list[tuple[Market, float]], first: int = 0,
             only: Market | None = None) -> tuple[list[float], tuple[float, float]]:
        """Walk the arrivals of ``plays`` from ``first`` on, each buying its
        security quantity on its market at ``priced_at``, until the book
        closes; with ``only``, the arrivals on that market alone. Each
        payment follows ``play``'s rule: a payment of at least the remaining
        amount fills the market exactly. Advances the money ``raised``
        (FOR, AGAINST) in place, on plain floats; this book lends its
        targets and pricing and is left as it is. Returns the money each
        walked arrival pays in, and their money per market (FOR, AGAINST),
        summed from 0.0 in walk order.

        A payment is ``contribution_for``'s closed form b * log1p(u * expm1(q
        / b)), operation for operation, with the priced leg's issuance and
        marginal price u (``price``) taken again only once that leg moves;
        one in its log-space range is ``contribution_for`` itself.
        """
        cf, min_leg = self.cf, self.min_leg
        b, fixed_leg = cf.liquidity, cf.fixed_leg
        target = self.target
        paid: list[float] = []
        money = [0.0, 0.0]
        if raised[0] >= target[0] or raised[1] >= target[1]:
            return paid, (0.0, 0.0)
        priced = issued = price = None
        for k in range(first, len(plays)):
            market, quantity = plays[k]
            if only is not None and market is not only:
                continue
            i = 0 if market is _FOR else 1
            leg = raised[i] if not min_leg or raised[i] <= raised[1 - i] else raised[1 - i]
            if leg != priced:
                priced, issued = leg, cf.issued_at(leg)
                # None where the price underflows: contribution_for's log space
                price = cf.price(issued) if (issued - fixed_leg) / b > -EXP_LIMIT else None
            y = quantity / b
            if price is not None and y < EXP_LIMIT:
                amount = b * log1p(price * expm1(y))
            else:
                amount = cf.contribution_for(quantity, issued)
            remaining = target[i] - raised[i]
            if amount >= remaining:
                amount, raised[i] = remaining, target[i]
            else:
                raised[i] += amount
            money[i] += amount
            paid.append(amount)
            if raised[i] >= target[i]:
                break  # this payment closes the book
        return paid, (money[0], money[1])

    def follow(self, raised_for: float, raised_against: float, side: Market, amount: float,
               plays: list[tuple[Market, float]], bought: dict[Market, list[float]],
               first: int, target_issued: float) -> tuple[float, tuple[float, float]]:
        """Where a play of ``amount`` on ``side`` and the followers' bounds
        take these markets from the money ``raised_for``, ``raised_against``.

        The followers are the arrivals of ``plays`` from ``first`` on, each
        buying its security quantity on its market, and ``bought[m][k]`` is
        the quantity the arrivals before ``k`` buy on market m
        (``prefix_sums``); ``target_issued`` is the issuance at ``side``'s
        target (``issued_at``), one number per market, which the caller
        prices once. Returns the amount accepted from the play and the
        money the followers pay into each market while the book is open, as
        (FOR, AGAINST). The play and the followers are paid on plain floats,
        under ``play``'s rule.

        On a single market a bound buys exactly its quantity at any
        issuance, so issuance after each follower is a prefix sum, and one
        bisect against ``target_issued`` finds the follower who closes the
        book. Under ``min_leg`` a bound is priced at the smaller leg, which
        the other market moves, so ``walk`` plays the followers one by one
        and sums their money.
        """
        cf = self.cf
        i = side is not _FOR
        target = self.target[i]
        after = [raised_for, raised_against]
        accepted = target - after[i]
        if amount >= accepted:
            after[i] = target
        else:
            accepted = amount
            after[i] += amount
        if self.closed_at(*after):
            return accepted, (0.0, 0.0)
        if self.min_leg:
            return accepted, self.walk(after, plays, first)[1]
        bought = bought[side]
        start = cf.issued_at(after[i])
        # a follower that buys nothing leaves the book open, even where
        # the money short of the target is too little to move the issuance
        end = bisect_left(bought, target_issued - start + bought[first],
                          bisect_right(bought, bought[first], first + 1))
        paid = (target - after[i] if end < len(bought)
                else cf.contribution_for(bought[-1] - bought[first], start))
        return accepted, (0.0, paid) if i else (paid, 0.0)


def prefix_sums(plays: list[tuple[Market, float]]) -> dict[Market, list[float]]:
    """Per market, the running total of the plays' second entries (a money
    amount or a security quantity): entry k is what plays before k put in."""
    return {market: list(accumulate((x if m is market else 0.0 for m, x in plays),
                                    initial=0.0))
            for market in Market}


def new_states(config: CampaignConfig) -> DualMarketState:
    """Empty markets for a config; single-market configs get an inert
    AGAINST leg with an unreachable target so the kernel stays uniform."""
    mech = config.mechanism
    if mech.dual_market:
        h_for, h_against = config.provision_point_pair  # type: ignore[misc]
    else:
        assert config.provision_point is not None
        h_for, h_against = config.provision_point, float("inf")
    return DualMarketState((h_for, h_against), config.cost_params, mech.dual_market)


# ---------------------------------------------------------------------------
# Payoff rule
# ---------------------------------------------------------------------------


def returned(market: Market, verdict: Verdict, amount: float, pool: float,
             budget: float | None, securities: float = 0.0) -> float:
    """Money handed back at settlement on a contribution of ``amount`` to
    ``market``: nothing when that market won; otherwise the stake plus its
    share ``amount / pool * budget`` of the bonus budget over the ``pool``
    of all contributions, none on an empty pool (refund-bonus family), or
    the ``securities`` it bought (securities family, which has no bonus
    budget)."""
    if verdict is (_PROVISIONED if market is _FOR else _REJECTED):
        return 0.0
    if budget is None:
        return securities
    return amount + (0.0 if pool <= 0.0 else amount / pool * budget)


def belief_paid(side: BeliefSide, provisioned: bool, reward: float) -> float:
    """The belief ``reward`` priced for a reporter of ``side`` on the branch
    that side wins, else nothing: the provision-likely side wins provision,
    the rejection-likely side rejection and expiry (no project)."""
    return reward if (side is _PROVISION_LIKELY) == provisioned else 0.0


def payoff(agent: AgentProfile, market: Market, side: BeliefSide, verdict: Verdict,
           amount: float, pool: float, budget: float | None, securities: float,
           reward: float) -> float:
    """The utility of paying ``amount`` into ``market`` under ``verdict``:
    ``returned`` reads the ``pool``, ``budget`` and ``securities``, and
    ``belief_paid`` the ``side`` and ``reward``. Each mechanism fixes some
    of them, as ``equilibrium.payoff_row`` reads off its properties."""
    provisioned = verdict is _PROVISIONED
    return ((agent.valuation if provisioned else 0.0) - amount
            + returned(market, verdict, amount, pool, budget, securities)
            + belief_paid(side, provisioned, reward))


# ---------------------------------------------------------------------------
# Campaign engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Action:
    """One intended play: agent contributes ``amount`` to ``market`` at ``tick``."""

    agent_id: int
    amount: float
    market: Market = Market.FOR
    tick: int = 0


def run_campaign(config: CampaignConfig,
                 actions: list[Action]) -> tuple[Verdict, DualMarketState]:
    """Replay actions in time order and race the markets to their targets.

    Sorts the list stably by (tick, agent id), the play order: simultaneous
    actions resolve in agent-id order, one agent's in list order. Processing
    stops the moment a target is reached: the crossing contribution is
    truncated so the winning total equals its target exactly and all later
    actions are discarded. Each accepted contribution is recorded with the
    allocation it bought at the issuance before it.
    """
    mech = config.mechanism
    dual = new_states(config)
    for action in sorted(actions, key=lambda a: (a.tick, a.agent_id)):
        if action.amount < 0:
            raise ValueError(f"agent {action.agent_id}: negative contribution")
        if action.tick > config.deadline_contribution:
            raise ValueError(
                f"agent {action.agent_id}: tick {action.tick} is past the "
                f"deadline {config.deadline_contribution}"
            )
        if not mech.dual_market and action.market is Market.AGAINST:
            raise ValueError(
                f"agent {action.agent_id}: {mech.value} has no rejection market"
            )
        q_price = dual.price_issuance(action.market)
        amount = dual.play(action.market, action.amount)
        dual.ledger.append(ContributionRecord(
            agent_id=action.agent_id,
            amount=amount,
            tick=action.tick,
            market=action.market,
            securities=(dual.cf.securities_for(amount, q_price)
                        if dual.cf is not None else 0.0),
            q_at_allocation=q_price,
        ))
        if dual.closed:
            break
    return dual.verdict or Verdict.EXPIRED, dual


def settle(config: CampaignConfig, agents: list[AgentProfile], verdict: Verdict,
           dual: DualMarketState, belief_rewards: dict[int, float] | None = None,
           beliefs: BeliefLedger | None = None) -> Outcome:
    """Apply the payoff rule to the frozen ledger, in one pass over it.

    Every agent collects its valuation exactly when the project is
    provisioned, including free riders without a ledger entry; each record
    pays back what ``returned`` says and adds its securities. An agent's
    side is the side it reported in PPRx and PPSx (its belief side without
    a report), the market it paid into in PPRN and PPSN (``for`` if both,
    its preferred market if neither), and ``for`` in PPR and PPS. Two-phase
    mechanisms supply the belief budget's split (``bbr_rewards``) and the
    scored ``beliefs`` holding the reports, and each agent collects what
    ``belief_paid`` says; others supply neither.
    """
    mech = config.mechanism
    if (belief_rewards is not None, beliefs is not None) != (mech.two_phase,) * 2:
        raise ValueError(f"{mech.value} settlement takes belief_rewards and beliefs "
                         + ("both" if mech.two_phase else "neither"))
    rewards = belief_rewards or {}
    total_for, total_against = dual.raised
    pool = total_for + total_against
    budget = config.bonus_budget

    contributed = {a.id: 0.0 for a in agents}
    refunded = dict(contributed)
    securities = dict(contributed)
    paid_into: dict[int, Market] = {}
    for rec in dual.ledger:
        if rec.agent_id not in contributed:
            raise ValueError(f"ledger references unknown agent {rec.agent_id}")
        contributed[rec.agent_id] += rec.amount
        refunded[rec.agent_id] += returned(rec.market, verdict, rec.amount,
                                           pool, budget, rec.securities)
        securities[rec.agent_id] += rec.securities
        if paid_into.setdefault(rec.agent_id, rec.market) is not rec.market:
            paid_into[rec.agent_id] = _FOR
    if mech.two_phase:
        sides = reported_sides(beliefs, agents)  # type: ignore[arg-type]
    elif mech.dual_market:
        sides = {a.id: derive_preference(a) for a in agents} | paid_into
    else:
        sides = dict.fromkeys(contributed, _FOR)
    provisioned = verdict is Verdict.PROVISIONED
    payouts = {a.id: Payout(a.valuation if provisioned else 0.0, contributed[a.id], refunded[a.id],
                            belief_paid(sides[a.id], provisioned, rewards.get(a.id, 0.0)),
                            securities[a.id], sides[a.id])
               for a in agents}
    return Outcome(verdict=verdict, total_for=total_for,
                   total_against=total_against, payouts=payouts)
