"""Equilibrium bounds, constructed profiles, existence checks, certification.

Each mechanism's theory gives a closed-form cap on what an agent is willing
to contribute: ``refund_cap``, or the payment for ``security_quantity``.
Both are the belief-phase mechanism's; the paper builds PPRx and PPSx by
adding belief rewards to PPR and PPS, so the base caps are theirs at even
odds and no reward. ``construct_profile`` turns those caps into a concrete
play (scaled so the winning side's total meets its target exactly), and
``certify`` searches for profitable unilateral deviations, holding everyone
else's contributed amounts fixed, under the mechanism's equilibrium notion:
Nash for the deadline mechanisms (PPR, PPRN, PPRx), subgame-perfect for the
arrival ones (PPS, PPSN, PPSx). An agent's best contribution is exact: its
expected utility is piecewise in the amount (``_Evaluator``), so the maximum
is at a piece's endpoint, its left limit or its stationary point. The
utilities it weighs are the one payoff rule, ``mechanisms.payoff``, with the
arguments a mechanism fixes read off its properties (``payoff_row``), and
each mechanism's existence inequalities are its row of ``CONDITIONS``.

Deviation semantics
-------------------
A deviation is scored by expected utility under the deviating agent's own
outcome beliefs, with the outcome distribution tied to the post-deviation
totals:

* while the agent's own market reaches its target, the race (or, in a
  single market, the residual doubt about provision) is priced by the
  agent's beliefs: an even split for the symmetric mechanisms, the agent's
  own win probability for the belief-phase mechanisms;
* when the agent's contribution leaves its own market short, its side
  cannot win: the alternative outcome is certain, which is what blocks
  free riding at pivotal slots. It is provision when that can still fill,
  for a rejection-side slot, and expiry otherwise: only provision pays
  differently from expiry, charging a rejection-side play its valuation
  (a ``for`` play gets the same back under rejection as under expiry);
* contributions beyond a market's remaining capacity are truncated, exactly
  as the engine truncates them, so over-contributing cannot buy extra refund
  share; once a target is met the book is closed and the only legal play is
  zero.

At a slot whose own side does not fill even at the prescribed play (a
losing-side arrival mid-race, or a probed off-path state), the theory's
optimality claim is only within its strategy set, so the search there stays
inside [0, bound]; refund allocations keep growing past the bound at such
slots and chasing them is outside the certified claim. Slots whose side
fills are searched over the full [0, |valuation| + reward] range.

Market flips are not checked, so PPRN's and PPSN's true-preference claim is
not certified: at fixed totals and even odds the half-sum of the PROVISIONED
and REJECTED utilities is the same on either market (0.5 * (v - x + share),
0.5 * (v - 2x + s)), and what else a flipped agent faces is not defined.
Timing deviations are vacuous in both families, so the certifier searches
none. Refund-bonus timing never enters utilities. In the securities family
a delay changes only the issuance the same amount is priced at, and it
gains nothing: money only rises, so a later slot's priced issuance is never
lower (on PPSN's smaller leg too); an LMSR allocation never rises with
issuance (``securities_for``); and every securities utility is
nondecreasing in the allocation. A delayed play of the same amount
therefore buys at most what the on-time play buys.

In the securities family a bound buys exactly its security quantity, so
``construct_profile`` (from empty markets) and ``certify`` (at its
subgame-perfect probe states) walk followers through the kernel
(``DualMarketState.walk`` and ``follow``), without a bound or a play per
follower.

PPSN prices a follower at the smaller leg, which the other market moves,
so ``follow`` walks its followers one by one. ``certify`` first brackets
their race (``_follower_race``): every price on the way lies between the
price at the state's smaller leg and the price at the smaller target, so
per-market prefix sums of the quantities q and of expm1(q / b) bound each
market's money, and bisects find where it surely fills and before which it
cannot. A state whose own market surely ends short of its met band takes no
walk and no sweep: no amount up to the bound meets the target, and the
alternative branch alone rises up to the bound, so the prescribed play is
the best. A state whose own market surely fills first is placed without the
walk, its own market's money the target less what the play leaves, and is
certified where the slot's gain bracket certifies it, with a margin widened
by the walk's rounding over the price (``_race_certifies``). Everything else
takes the exact walk and sweep: a state the bracket cannot tell, a gain
bound inside the margin, a quantity of ``EXP_LIMIT`` liquidities or more,
and every state of a run whose epsilon is at most the margin, such as
``--epsilon 0``. So every reported deviation and every report byte comes
from the walk.

A securities slot's sweep (``_Evaluator.sweep``) first tries its gain
bracket (``_Evaluator.bracket``), a closed-form bound on the gain of a play
that either leaves the own market short at the bound or meets it, and runs
the exact search (``_Evaluator.best``) only where the bound does not fit
under epsilon less a rounding margin. A certified slot reports nothing, so
no report byte comes from the bracket either.

Each certification reads the checked play off the engine's book of it into
one record (``_path``: the play order and the money each agent found, in
one pass over the ledger, with no second replay) and builds one evaluator
per agent from it (``_slots``), placed at the agent's on-path slot with
its bound. Each indifference check of the report is its slot's two utility
rows, the own branch's and the alternative's, evaluated at the bound with
every target filled (``_Evaluator.indifference``), so it checks the bound
against the payoff rule that settlement pays. Both notions check the
on-path slots the same way (``_Evaluator.check``); the subgame-perfect one
adds off-path probe states. The evaluator computes once what every slot of
its agent shares (weights, ``payoff_row``'s rows, ``_met``'s threshold,
the cost function); a slot is plain numbers. For an arrival mechanism
``certify`` places it at each of the agent's off-path probe states in turn,
each a (FOR, AGAINST) pair of money raised, so a probe state builds no book
and no per-state object.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import zip_longest

from .mechanisms import (
    Action,
    DualMarketState,
    new_states,
    payoff,
    prefix_sums,
    run_campaign,
)
from .beliefs import bbr_rewards, belief_reports, score_reports
from .costfn import EXP_LIMIT, CostFunction
from .model import (
    AgentProfile,
    BeliefSide,
    CampaignConfig,
    Market,
    Mechanism,
    Verdict,
    aggregate_valuations,
    own_market,
    plain_sum,
)

MET_REL_TOL = 1e-9  # a total short of its target by this share of it is met
STRICT_MARGIN = 1e-9  # keeps strict-inequality bounds strictly interior

# Bound once for the payoff rows, the caps and the evaluator: every member
# lookup on an enum class costs a few hundred ns on Python 3.11.
_FOR, _AGAINST = Market.FOR, Market.AGAINST
_PROVISIONED, _REJECTED, _EXPIRED = Verdict.PROVISIONED, Verdict.REJECTED, Verdict.EXPIRED
_PROVISION_LIKELY = BeliefSide.PROVISION_LIKELY

# One name per mechanism for the one payoff rule. The benchmark's tracer
# (perfbench/tracing.py) counts payoff evaluations by wrapping these names on
# this module, and ``payoff_row`` looks them up as it builds a row.
ppr_utility = pprn_utility = pps_utility = ppsn_utility = pprx_utility = ppsx_utility = payoff


# ---------------------------------------------------------------------------
# One cap per family
# ---------------------------------------------------------------------------


def _own_win_weight(config: CampaignConfig, agent: AgentProfile) -> float:
    """Belief weight on the agent's own market winning while it stays in the
    race: even odds for the symmetric mechanisms, the agent's own provision
    probability for the belief-phase ones (whose one market is provision)."""
    if config.mechanism.two_phase:
        return agent.provision_belief
    return 0.5


def refund_cap(config: CampaignConfig, agent: AgentProfile, side: BeliefSide,
               reward: float) -> float:
    """The refund family's cap, PPRx's: where a just-met pot and a refunded
    stake with its bonus share are indifferent at the agent's provision
    belief ``p`` (``_own_win_weight``: 1/2 in PPR and PPRN), the pot the
    targets' sum and the budget the refund-bonus pool. The belief reward
    sits on the branch the reported ``side`` wins; a rejection-likely
    report nets it out, clamped at zero."""
    p = _own_win_weight(config, agent)
    q = 1.0 - p
    pot = config.target_sum
    if side is _PROVISION_LIKELY:
        numerator = p * (abs(agent.valuation) + reward)
    else:
        numerator = p * abs(agent.valuation) - q * reward
    return max(0.0, numerator / (q * config.bonus_budget + p * pot) * pot)


def security_quantity(agent: AgentProfile, side: BeliefSide, reward: float) -> float:
    """The securities a securities-family bound buys, PPSx's: the
    valuation's magnitude plus the belief reward on a provision-likely
    report, minus it otherwise, clamped at zero."""
    signed = reward if side is _PROVISION_LIKELY else -reward
    return max(abs(agent.valuation) + signed, 0.0)


# ---------------------------------------------------------------------------
# One payoff row builder and one conditions table
# ---------------------------------------------------------------------------


def payoff_row(config: CampaignConfig, agent: AgentProfile, market: Market, reward: float,
               side: BeliefSide, verdict: Verdict) -> Callable[..., float]:
    """The utility of a contribution to ``market`` under ``verdict``, as
    ``u(amount, securities, total_for, total_against)``: ``payoff`` with the
    arguments the mechanism fixes read off its properties. The market is
    ``for`` outside a dual market; the budget is the config's bonus budget;
    the pool is 0 without a budget (securities family), both totals in a
    dual market with one (PPRN), the FOR total otherwise; the belief
    ``reward`` on the reported ``side`` counts only in a two-phase
    mechanism. The bound is the amount at which the own branch's row and
    the alternative's are indifferent (``_Evaluator.indifference``).

    The row calls ``payoff`` by its mechanism's ``*_utility`` name, looked up
    on this module as the row is built, so a wrapper installed on that name
    before the row is built sees each call."""
    mech = config.mechanism
    rule = globals()[f"{mech.value.lower()}_utility"]
    if not mech.dual_market:
        market = _FOR
    if not mech.two_phase:
        reward = 0.0
    budget = config.bonus_budget
    if budget is None:
        return lambda amount, securities, total_for, total_against: rule(
            agent, market, side, verdict, amount, 0.0, None, securities, reward)
    if mech.dual_market:
        return lambda amount, securities, total_for, total_against: rule(
            agent, market, side, verdict, amount, total_for + total_against, budget,
            securities, reward)
    return lambda amount, securities, total_for, total_against: rule(
        agent, market, side, verdict, amount, total_for, budget, securities, reward)


_SIDE_NAMES = {_FOR: "provision", _AGAINST: "rejection"}


def _below_valuations(config: CampaignConfig, totals: dict[Market, float]) -> list:
    """Each market's target strictly below its side's valuations."""
    return [(f"{_SIDE_NAMES[m]}_valuation_exceeds_target", config.target(m),
             totals[m], True) for m in config.mechanism.markets]


# Table entries too long for a lambda; PPS and PPSN share theirs.
def _securities_conditions(config, net, totals):
    cf = config.cost_params
    return _below_valuations(config, totals) + [
        (f"{_SIDE_NAMES[m]}_securities_affordable",
         cf.inverse_cost(config.target(m) + cf.cost(0.0)), totals[m], True)
        for m in config.mechanism.markets]


def _belief_conditions(config, net):
    return [("target_within_valuation_plus_belief_budget", config.provision_point,
             net + config.belief_budget, False),
            ("belief_budget_positive", 0.0, config.belief_budget, True)]


# Each mechanism's existence inequalities, ``conditions(config, net, totals)``
# as ``(name, lhs, rhs, strict)`` with ``totals`` the valuations per market.
# They differ between a base mechanism and its belief-phase one, so each
# mechanism has its own.
CONDITIONS: dict[Mechanism, Callable[..., list[tuple[str, float, float, bool]]]] = {
    Mechanism.PPR: lambda config, net, totals: [
        *_below_valuations(config, totals),
        ("refund_budget_positive", 0.0, config.refund_budget, True),
        ("refund_budget_below_cap", config.refund_budget,
         totals[_FOR] - config.provision_point, True)],
    Mechanism.PPRN: lambda config, net, totals: [
        *_below_valuations(config, totals),
        ("refund_budget_positive", 0.0, config.refund_budget, True),
        *((f"refund_budget_below_{_SIDE_NAMES[m]}_cap", config.refund_budget,
           config.target_sum * (totals[m] - config.target(m)) / config.target(m),
           True) for m in config.mechanism.markets)],
    Mechanism.PPS: _securities_conditions,
    Mechanism.PPSN: _securities_conditions,
    Mechanism.PPRX: lambda config, net, totals: [
        *_belief_conditions(config, net),
        ("contribution_budget_positive", 0.0, config.contribution_budget, True)],
    Mechanism.PPSX: lambda config, net, totals: _belief_conditions(config, net),
}


def contribution_bound(config: CampaignConfig, agent: AgentProfile, *,
                       issued: float = 0.0, belief_reward: float = 0.0,
                       side: BeliefSide | None = None) -> float:
    """The mechanism's bound at the given issuance context: its refund cap,
    or the payment at ``issued`` for its security quantity; the belief
    reward is on the branch the reported ``side`` (by default the belief
    side) wins."""
    side = side or agent.belief_side
    if config.mechanism.uses_securities:
        return config.cost_params.contribution_for(
            security_quantity(agent, side, belief_reward), issued)
    return refund_cap(config, agent, side, belief_reward)


@dataclass(frozen=True)
class ConditionCheck:
    """One existence inequality with both sides evaluated numerically."""

    name: str
    satisfied: bool
    lhs: float
    rhs: float


def check_conditions(config: CampaignConfig,
                     agents: list[AgentProfile]) -> list[ConditionCheck]:
    """Evaluate every equilibrium-existence inequality for the mechanism."""
    net, total_for, total_against = aggregate_valuations(agents)
    rows = CONDITIONS[config.mechanism](config, net,
                                        {_FOR: total_for, _AGAINST: total_against})
    return [ConditionCheck(name, lhs < rhs if strict else lhs <= rhs, lhs, rhs)
            for name, lhs, rhs, strict in rows]


# ---------------------------------------------------------------------------
# Profile construction
# ---------------------------------------------------------------------------


@dataclass
class EquilibriumProfile:
    """A concrete candidate play: each agent's ``Action`` by agent id, and
    in PPRx and PPSx its belief reward (``bbr_rewards``) and reported side.
    An infeasible profile carries the ``reason`` it could not be built.
    """

    entries: dict[int, Action] = field(default_factory=dict)
    reason: str | None = None
    belief_rewards: dict[int, float] = field(default_factory=dict)
    sides: dict[int, BeliefSide] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.reason is None

    def total(self, market: Market) -> float:
        return plain_sum(e.amount for e in self.entries.values() if e.market is market)

    def plays(self) -> list[Action]:
        """The nonzero plays; ``run_campaign`` puts them in play order."""
        return [a for a in self.entries.values() if a.amount > 0.0]


def _fill_side(agents: list[AgentProfile], bounds: dict[int, float], target: float,
               strict: bool) -> dict[int, float] | None:
    """Scale bounds proportionally so the side sums to ``target`` exactly.

    Returns None when the bounds cannot cover the target (or cannot while
    staying strictly interior, for the strict-inequality mechanisms), a NaN
    sum included. The last agent in id order with a positive bound absorbs
    the float residue so the sum is exact; an agent whose bound is 0 plays 0.
    """
    total = plain_sum(bounds[a.id] for a in agents)
    limit = total * (1.0 - STRICT_MARGIN) if strict else total
    if not limit >= target:
        return None
    scale = target / total
    amounts = {a.id: scale * bounds[a.id] for a in agents}
    ordered = sorted(amounts)
    absorber = max(i for i in ordered if bounds[i] > 0.0)
    residue = target - plain_sum(amounts[i] for i in ordered if i != absorber)
    # the residue can dip a few ulps negative when the partial sums overshoot
    amounts[absorber] = max(0.0, residue)
    return amounts


def construct_profile(config: CampaignConfig, agents: list[AgentProfile],
                      belief_rewards: dict[int, float] | None = None,
                      sides: dict[int, BeliefSide] | None = None) -> EquilibriumProfile:
    """Build the canonical equilibrium play from the closed-form bounds.

    Deadline mechanisms scale every agent's bound proportionally so the
    filled side meets its target exactly; arrival mechanisms replay arrivals,
    each agent contributing its bound clipped to the remaining target, until
    a target fills. Infeasibility (bounds cannot reach the target) is
    reported, never silently scaled up. Belief rewards default to the split
    of truthful reports, and sides to the agents' belief sides.
    """
    mech = config.mechanism
    profile = EquilibriumProfile()
    if mech.two_phase:
        if len(agents) < 3:
            raise ValueError("belief-phase mechanisms require at least 3 agents")
        if belief_rewards is None:
            belief_rewards = bbr_rewards(score_reports(belief_reports(agents)),
                                         config.belief_budget)  # type: ignore[arg-type]
        profile.belief_rewards = dict(belief_rewards)
        profile.sides = {a.id: (sides or {}).get(a.id, a.belief_side) for a in agents}
    rewards, sides = profile.belief_rewards, profile.sides

    if not mech.sequential:
        # everyone delays to the deadline; each side's bounds scale to its target
        bounds = {a.id: contribution_bound(config, a, belief_reward=rewards.get(a.id, 0.0),
                                           side=sides.get(a.id)) for a in agents}
        fills = {}
        for market in mech.markets:
            side = [a for a in agents if own_market(config, a) is market]
            # the dual-market fills stay strictly interior to their bounds
            fills[market] = (_fill_side(side, bounds, config.target(market),
                                        strict=mech.dual_market) if side else None)
        if None in fills.values():
            sides = ", ".join(f"{_SIDE_NAMES[m]} side {'ok' if fill else 'short'}"
                              for m, fill in fills.items())
            profile.reason = (
                f"bounds cannot fill both targets: {sides}" if mech.dual_market
                else f"bounds sum to {plain_sum(bounds.values()):.6g}, below the "
                     f"provision point {config.provision_point:.6g}")
            return profile
        for market, fill in fills.items():
            for agent_id, amount in fill.items():
                profile.entries[agent_id] = Action(
                    agent_id, amount, market, config.deadline_contribution)
        return profile

    # Securities family: the prescribed play walked from empty markets;
    # arrivals after the book closes play zero.
    order = sorted(agents, key=lambda a: (a.arrival_contribution, a.id))
    plays = _plays(config, order, profile)
    raised = [0.0, 0.0]
    book = new_states(config)
    amounts, _ = book.walk(raised, plays)
    for agent, (market, _), amount in zip_longest(order, plays, amounts, fillvalue=0.0):
        profile.entries[agent.id] = Action(agent.id, amount, market,
                                           agent.arrival_contribution)
    if not book.closed_at(*raised):
        profile.reason = ("arrival-order bounds exhaust all agents with no target "
                          f"reached (raised {raised[0]:.6g} / {raised[1]:.6g})")
    return profile


def _plays(config: CampaignConfig, order: list[AgentProfile],
           profile: EquilibriumProfile) -> list[tuple[Market, float]]:
    """For each agent of ``order``, its own market (the one its equilibrium
    play goes to) and the security quantity its bound buys there
    (``security_quantity``, at the profile's belief reward and side): what
    the kernel's walks play."""
    rewards, sides = profile.belief_rewards, profile.sides
    return [(own_market(config, a), security_quantity(a, sides.get(a.id, a.belief_side),
                                                      rewards.get(a.id, 0.0)))
            for a in order]


@dataclass
class _Play:
    """The certification's one record of the checked play, read off the
    engine's ``book`` of it (``_path``): the play ``order`` (entry tick,
    then id), the money (FOR, AGAINST) each agent of it ``found`` raised
    and, for a sequential mechanism, the order's ``plays`` as the kernel
    walks followers (``_plays``) and their ``prefix_sums``, ``bought``;
    for PPSN also ``race``, each market's (FOR, AGAINST) prefix sums of the
    plays' quantities q and of expm1(q / b), which bracket the followers'
    race (``_race_sums``)."""

    book: DualMarketState
    order: list[AgentProfile]
    found: list[tuple[float, float]]
    plays: list[tuple[Market, float]] | None
    bought: dict[Market, list[float]] | None
    race: tuple[tuple[list[float], list[float]], ...] | None = None


_NOT_IN_BOOK = "agent {}: the book does not hold the profile's play"


def _path(config: CampaignConfig, agents: list[AgentProfile], profile: EquilibriumProfile,
          book: DualMarketState) -> _Play:
    """The record of the profile's play as the engine's ``book`` of it
    settled, in one pass over the ledger, which holds the accepted plays in
    play order: a record moves the money by the amount it accepted, and the
    last one sets it to the book's, because a fill assigns the target. A
    zero play or a play after the close moves nothing. Raises ValueError
    naming the agent unless each nonzero play made while the book is open
    has its record, on its market and of its amount (the closing record may
    be smaller), and no record is left unread."""
    order = sorted(agents, key=lambda a: (profile.entries[a.id].tick, a.id))
    ledger, closed = book.ledger, book.closed
    k, money, found = 0, [0.0, 0.0], []
    for agent in order:
        found.append((money[0], money[1]))
        entry = profile.entries[agent.id]
        if k < len(ledger) and ledger[k].agent_id == agent.id:
            record = ledger[k]
            if record.market is not entry.market or not (record.amount == entry.amount or (
                    closed and k == len(ledger) - 1 and record.amount < entry.amount)):
                raise ValueError(_NOT_IN_BOOK.format(agent.id))
            k += 1
            if k == len(ledger):
                money = book.raised
            else:
                money[record.market is not _FOR] += record.amount
        elif entry.amount > 0.0 and (k < len(ledger) or not closed):
            raise ValueError(_NOT_IN_BOOK.format(agent.id))
    if k < len(ledger):
        raise ValueError(_NOT_IN_BOOK.format(ledger[k].agent_id))
    plays = bought = race = None
    if config.mechanism.sequential:
        plays = _plays(config, order, profile)
        bought = prefix_sums(plays)
        if config.mechanism.dual_market:
            race = _race_sums(config.cost_params, plays, bought)
    return _Play(book, order, found, plays, bought, race)


def _race_sums(cf: CostFunction, plays: list[tuple[Market, float]],
               bought: dict[Market, list[float]]
               ) -> tuple[tuple[list[float], list[float]], ...] | None:
    """Per market (FOR, AGAINST), the plays' prefix sums of their security
    quantities q (``bought``) and of expm1(q / b), in ``prefix_sums``'
    layout: what ``_follower_race`` bounds followers' payments by. None
    where some q / b reaches ``EXP_LIMIT``, past which the walk pays in log
    space, or a sum overflows."""
    b = cf.liquidity
    if any(quantity / b >= EXP_LIMIT for _, quantity in plays):
        return None
    grown = prefix_sums([(market, math.expm1(quantity / b)) for market, quantity in plays])
    if not all(math.isfinite(grown[market][-1]) for market in Market):
        return None
    return tuple((bought[market], grown[market]) for market in Market)


# ---------------------------------------------------------------------------
# Deviation search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Deviation:
    agent_id: int
    kind: str
    detail: str
    utility_gain: float


@dataclass(frozen=True)
class IndifferenceCheck:
    """Both sides of the bound's defining equation, at the bound: the own
    branch's utility (``lhs``) and the alternative's (``rhs``)."""

    agent_id: int
    bound: float
    lhs: float
    rhs: float

    @property
    def clamped(self) -> bool:
        """The bound sits at zero because even there the alternative pays
        more: the equation has no nonnegative root."""
        return self.bound == 0.0 and self.lhs < self.rhs


@dataclass
class EquilibriumReport:
    mechanism: str
    profile: EquilibriumProfile
    kind: str  # the equilibrium notion certified: "Nash" or "subgame-perfect"
    conditions: list[ConditionCheck] = field(default_factory=list)
    deviations: list[Deviation] = field(default_factory=list)
    indifference: list[IndifferenceCheck] = field(default_factory=list)
    epsilon: float = 0.0
    notes: list[str] = field(default_factory=list)
    expected_verdict: Verdict | None = None  # the engine's, on a feasible profile

    @property
    def feasible(self) -> bool:
        return self.profile.feasible

    @property
    def certified(self) -> bool:
        return self.feasible and not self.deviations

    def to_dict(self) -> dict:
        """The report as JSON values: one row per agent of the profile with
        its play and its bound's indifference check (null without one)."""
        checks = {c.agent_id: (c.bound, c.lhs, c.rhs, c.clamped)
                  for c in self.indifference}
        return {
            "kind": self.kind,
            "mechanism": self.mechanism,
            "certified": self.certified,
            "epsilon": self.epsilon,
            "profile": {
                "feasible": self.profile.feasible,
                "reason": self.profile.reason,
                "expected_verdict": (self.expected_verdict.value
                                     if self.expected_verdict else None),
            },
            "agents": [
                {"id": i, "market": e.market.value, "amount": e.amount, "tick": e.tick,
                 **dict(zip(("bound", "lhs", "rhs", "clamped"), checks.get(i, (None,) * 4)))}
                for i, e in sorted(self.profile.entries.items())
            ],
            "conditions": [
                {"name": c.name, "satisfied": c.satisfied, "lhs": c.lhs, "rhs": c.rhs}
                for c in self.conditions
            ],
            "deviations": [
                {"agent": d.agent_id, "kind": d.kind, "detail": d.detail,
                 "utility_gain": d.utility_gain}
                for d in self.deviations
            ],
            "notes": list(self.notes),
        }


def _met(total: float, target: float) -> bool:
    return total >= target - MET_REL_TOL * target


def _state_prefix(state: tuple[float, float] | None) -> str:
    """An SPE probe state's name in a deviation's detail, its money raised;
    none for a Nash slot."""
    return "" if state is None else (
        f"[state raised_for={state[0]:.6g} raised_against={state[1]:.6g}] ")


EXPIRY_CORNER_NOTE = ("rejection-side sweep skipped at states where the "
                      "provision side cannot fill (expiry corner)")


class _Evaluator:
    """One agent's expected utility on one market as a function of its
    amount x, at the slot ``place`` puts it at: its prescribed amount,
    everyone else's money per market, the issuance its allocation is priced
    at, its bound, and whether provision can still fill without it.

    At a slot eu is piecewise in x:

    * on [0, pivot) the own market stays short and eu is the alternative
      branch alone, nondecreasing in x in every mechanism (a refund share
      x / (O + x) * B or an allocation minus its payment, plus constants);
    * on [pivot, capacity] the own market counts as met and eu is the
      weighted two-branch mix, concave in x (the own branch is linear in
      x, the alternative concave);
    * past capacity eu is constant, because the engine truncates the play.

    The outcome distribution is tied to the post-deviation totals: while
    the agent's own market reaches its target the race is priced by its
    beliefs; otherwise the alternative is certain: provision when it can
    still fill, for a rejection-side slot (the ``for`` coalition's play
    is not stopped by this agent), expiry otherwise. A ``for`` slot's
    alternative row is expiry's (module docstring).
    """

    __slots__ = ("agent", "market", "reward", "side", "for_market", "target", "met_from",
                 "own_weight", "alt_weight", "own", "expired", "provision", "cf",
                 "sweep_cap", "pool_weight", "priced_at",
                 "amount", "others_for", "others_against", "issued", "bound",
                 "provision_viable", "closed", "others", "capacity", "pivot", "alt")

    def __init__(self, config: CampaignConfig, agent: AgentProfile, market: Market,
                 reward: float, side: BeliefSide) -> None:
        self.agent, self.market, self.reward, self.side = agent, market, reward, side
        self.for_market = for_market = market is _FOR
        self.target = target = config.target(market)
        self.met_from = target - MET_REL_TOL * target  # _met's threshold
        own_weight = _own_win_weight(config, agent)
        if not for_market:
            own_weight = 1.0 - own_weight
        self.own_weight, self.alt_weight = own_weight, 1.0 - own_weight
        self.own = payoff_row(config, agent, market, reward, side,
                              _PROVISIONED if for_market else _REJECTED)
        self.expired = payoff_row(config, agent, market, reward, side, _EXPIRED)
        # an ``against`` slot, which only a dual market has (``config.target``)
        self.provision = (self.expired if for_market else
                          payoff_row(config, agent, market, reward, side, _PROVISIONED))
        self.cf = cf = config.cost_params  # set exactly for the securities family
        self.sweep_cap = abs(agent.valuation) + reward
        # The mix's slope is -own_weight + alt_weight * (alternative's
        # slope), and the alternative's slope falls with x. Refund family:
        # the share x / (O + x) * B of the pool O the others paid in (a
        # single-market book holds nothing on AGAINST) has slope
        # B * O / (O + x)^2. Securities family: the mix is -x + alt_weight *
        # allocation(x) + constants, and the allocation's slope is one over
        # the post-purchase price, so the slope vanishes where that price
        # equals alt_weight, at issuance ``priced_at``.
        self.pool_weight = self.priced_at = None
        alt_weight = self.alt_weight
        if 0.0 < alt_weight < 1.0:
            if cf is None:
                self.pool_weight = alt_weight * config.bonus_budget
            else:
                self.priced_at = cf.fixed_leg + cf.liquidity * math.log(alt_weight / own_weight)

    def place(self, amount: float, others_for: float, others_against: float,
              issued: float, bound: float, provision_viable: bool, closed: bool = False) -> None:
        """Put the evaluator at a slot; ``provision_viable``: provision can
        still fill without the agent (read on ``against`` alone); ``closed``:
        a target was already met when the agent moved."""
        self.amount, self.others_for, self.others_against = amount, others_for, others_against
        self.issued, self.bound = issued, bound
        self.provision_viable, self.closed = provision_viable, closed
        self.others = others = others_for if self.for_market else others_against
        self.capacity = max(0.0, self.target - others)
        met_from = self.met_from
        # the least x at which the own market counts as met; the difference
        # is exact unless others < met_from / 2, and then a few ulps of
        # pivot are enough for eu to count the pivot as met
        pivot = met_from - others
        while others + pivot < met_from:
            pivot = math.nextafter(pivot, math.inf)
        self.pivot = pivot
        self.alt = self.provision if provision_viable else self.expired

    def eu(self, amount: float, *, alt_only: bool = False) -> float:
        """Expected utility of playing ``amount`` with the allocation priced
        at the slot's issuance; ``alt_only`` scores the alternative branch
        alone. The amount is truncated to the market's remaining capacity,
        as the engine truncates it."""
        # max(0.0, min(amount, capacity)), NaN included, without the two calls
        capacity = self.capacity
        effective = capacity if capacity < amount else amount
        if not effective > 0.0:
            effective = 0.0
        # one allocation serves both branches; only the securities utilities read it
        cf = self.cf
        securities = 0.0 if cf is None else cf.securities_for(effective, self.issued)
        if self.for_market:
            total_for, total_against = self.others_for + effective, self.others_against
        else:
            total_for, total_against = self.others_for, self.others_against + effective
        alt = self.alt
        if not alt_only and self.others + effective >= self.met_from:
            return (self.own_weight * self.own(effective, securities, total_for, total_against)
                    + self.alt_weight * alt(effective, securities, total_for, total_against))
        return alt(effective, securities, total_for, total_against)

    def stationary(self) -> float | None:
        """Where the mix's slope changes sign, if anywhere."""
        if self.pool_weight is not None:
            pool = self.others_for + self.others_against
            return math.sqrt(self.pool_weight * pool / self.own_weight) - pool
        priced_at, issued = self.priced_at, self.issued
        if priced_at is None or priced_at <= issued:
            return None
        return self.cf.contribution_for(priced_at - issued, issued)

    def top(self) -> float:
        """The search range's top: |valuation| + reward where the own market
        fills at the prescribed play, else the bound (never below the play)."""
        amount = self.amount
        if self.others + amount >= self.met_from:
            return max(self.sweep_cap, amount)
        return max(self.bound, amount)

    def best(self, top: float) -> tuple[float, float, float]:
        """The supremum of eu over [0, top], the x where it is reached, and
        eu at the prescribed play, which lies in [0, top]. The supremum is
        the alternative branch's left limit at the pivot, or the best of 0,
        ``top``, the pivot, the stationary point and the prescribed play.
        The capacity needs no evaluation: eu there equals eu at ``top`` when
        top is past it, and is clipped to ``top`` otherwise. Past the
        capacity eu is constant, so of the points in ascending order only
        the first at or past it is scored. A left limit is approached by
        plays just below the pivot."""
        eu, pivot, amount, capacity = self.eu, self.pivot, self.amount, self.capacity
        best_x, best = 0.0, -math.inf
        if pivot > 0.0:
            best_x = min(pivot, top)
            best = eu(best_x, alt_only=True)
        # 0, top and the prescribed play lie in [0, top]; the pivot and the
        # stationary point are clipped to it
        points = {0.0, top, min(max(pivot, 0.0), top), amount}
        stationary = self.stationary()
        if stationary is not None:
            points.add(min(max(stationary, 0.0), top))
        past = False
        for x in sorted(points):
            if not past:
                value = eu(x)
                past = x >= capacity
            if x == amount:
                base = value
            if value > best:
                best_x, best = x, value
        return best_x, best, base

    def bracket(self, epsilon: float, slack: float = 0.0) -> bool:
        """Whether a closed-form bound on the placed securities slot's gain
        certifies it, so that ``best`` need not run; ``slack`` widens the
        rounding margin for a caller whose placement the exact one may
        differ from by rounding. With w the own branch's weight and u the
        marginal price at the slot's issuance:

        * short: a play of at least the bound that leaves the own market
          short. The search stays inside [0, play], where only the
          alternative branch is in play, and it is nondecreasing, so the
          gain is 0;
        * met: a play a (truncated at the capacity) at which the own market
          counts as met. Short of the pivot the alternative branch is at
          most its value at a, so the left limit gains at most w * (alt(a)
          - own(a)). On [pivot, a] the mix falls at most at slope w (the own
          branch falls at slope 1, and an allocation rises at least as fast
          as its payment, the price being below 1), and on (a, capacity] it
          rises at most at slope 1 / u; both pieces are at most the met band
          long. So the gain is at most w * max(0, alt(a) - own(a)) +
          band * (w + 1 / u), alt(a) and own(a) read off the slot's own
          payoff rows and one ``securities_for``, as ``eu`` prices a. A
          pivot at or below 0 has no left limit, and the first term drops.

        The margin covers the rounding. Every utility the search or the
        bound reads sums terms of at most (|valuation| + reward + 2 T) / u
        over the target T (an amount up to T, an allocation up to T / u),
        and rounds by at most 2**-45 of that; the pivot and the capacity are
        within two ulps of T of their exact values. 2**-40 times that size
        covers the six utilities (the search's best and base, each a mix of
        two, and the bound's two), and 2**-48 of epsilon the rounding of the
        comparison and of the search's own best - base. The bracket declines
        where epsilon does not exceed the margin, as at ``--epsilon 0``,
        where a number it reads is not finite, and where u is not
        positive."""
        cf = self.cf
        if cf is None:
            return False
        issued, amount, others = self.issued, self.amount, self.others
        u = cf.price(issued)
        if not u > 0.0:
            return False
        margin = (2.0 ** -40 * (self.sweep_cap + 2.0 * self.target) / u
                  + 2.0 ** -48 * epsilon + slack)
        if not (epsilon > margin and math.isfinite(margin + issued + others + amount
                                                   + self.bound)):
            return False
        met_from = self.met_from
        if others + amount < met_from:
            return amount >= self.bound
        capacity = self.capacity  # a truncated as eu truncates it
        effective = capacity if capacity < amount else amount
        if not effective > 0.0:
            effective = 0.0
        if others + effective < met_from:
            return False
        w = self.own_weight
        gain = (self.target - met_from) * (w + 1.0 / u)
        if self.pivot > 0.0:  # the alternative branch's left limit
            securities = cf.securities_for(effective, issued)
            if self.for_market:
                total_for, total_against = self.others_for + effective, self.others_against
            else:
                total_for, total_against = self.others_for, self.others_against + effective
            gap = (self.alt(effective, securities, total_for, total_against)
                   - self.own(effective, securities, total_for, total_against))
            if not math.isfinite(gap):
                return False
            gain += w * max(gap, 0.0)
        return gain <= epsilon - margin

    def indifference(self, config: CampaignConfig) -> IndifferenceCheck:
        """The placed slot's bound against its defining equation, stated on
        the agent's own market (an explicit play may be off it): the own
        branch's and the alternative's utility rows at the bound, with every
        target filled and, in the securities family, the securities the
        bound buys at the slot's issuance. Only PPRx's bound weighs the two
        branches, by the agent's beliefs."""
        market, bound = own_market(config, self.agent), self.bound
        rows = self if market is self.market else _Evaluator(config, self.agent, market,
                                                             self.reward, self.side)
        securities = 0.0 if self.cf is None else self.cf.securities_for(bound, self.issued)
        totals = config.provision_point_pair or (config.provision_point, 0.0)
        lhs = rows.own(bound, securities, *totals)
        rhs = rows.provision(bound, securities, *totals)
        if config.mechanism is Mechanism.PPRX:
            lhs, rhs = rows.own_weight * lhs, rows.alt_weight * rhs
        return IndifferenceCheck(self.agent.id, bound, lhs, rhs)

    def corner(self, report: EquilibriumReport, provision_viable: bool) -> bool:
        """Whether a slot is the expiry corner, which ``report`` then notes:
        with the provision side dead, a rejection-side agent's choice is out
        of the equilibrium claims' reach, so the corner is noted, not swept."""
        if self.for_market or provision_viable:
            return False
        if EXPIRY_CORNER_NOTE not in report.notes:
            report.notes.append(EXPIRY_CORNER_NOTE)
        return True

    def check(self, report: EquilibriumReport, epsilon: float,
              state: tuple[float, float] | None = None) -> None:
        """Add the placed slot's profitable deviations to ``report``: a
        nonzero play at a closed book; at an open one (unless it is the
        expiry corner) those ``sweep`` finds."""
        if self.closed:
            # zero is the only legal play, so a nonzero prescription is itself
            # the defect to report
            if self.amount > epsilon:
                report.deviations.append(Deviation(
                    self.agent.id, "contribution", _state_prefix(state)
                    + f"market closed but profile prescribes x={self.amount:.6g}",
                    self.amount))
            return
        if not self.corner(report, self.provision_viable):
            self.sweep(report, epsilon, state)

    def sweep(self, report: EquilibriumReport, epsilon: float,
              state: tuple[float, float] | None) -> None:
        """Add the placed slot's best contribution, exact over its pieces,
        when it gains more than epsilon; an SPE probe ``state`` names the
        deviation. A slot the gain ``bracket`` certifies has none, and is
        not searched. Delays are not searched (vacuous: module docstring)."""
        if self.bracket(epsilon):
            return
        best_x, best, base = self.best(self.top())
        if best - base > epsilon:
            report.deviations.append(Deviation(
                self.agent.id, "contribution", _state_prefix(state)
                + f"x={best_x:.6g} on {self.market.value} (was {self.amount:.6g})",
                best - base))


def _slots(config: CampaignConfig, agents: list[AgentProfile],
           profile: EquilibriumProfile, play: _Play) -> list[_Evaluator]:
    """One evaluator per agent, placed at its decision slot against
    everyone else's amounts at settlement, capped at its bound at the
    slot's issuance. Sequential mechanisms' slots see the markets as their
    agents found them on the profile's ``play``, in its order, and PPSN's
    provision coalition walks as the record's ``plays``; deadline mechanisms'
    agents all move at once, against empty markets. Only an open
    rejection-side slot asks ``_provision_fills``."""
    sequential, final = config.mechanism.sequential, play.book
    if sequential:
        order, found = play.order, play.found
    else:
        order, found = agents, [(0.0, 0.0)] * len(agents)
    final_for = profile.total(Market.FOR)
    final_against = profile.total(Market.AGAINST)
    slots = []
    for idx, (agent, raised) in enumerate(zip(order, found)):
        entry = profile.entries[agent.id]
        others_for = final_for - (entry.amount if entry.market is Market.FOR else 0.0)
        others_against = final_against - (
            entry.amount if entry.market is Market.AGAINST else 0.0)
        closed = final.closed_at(*raised)
        provision_viable = entry.market is _AGAINST and not closed and (
            _met(others_for, config.target(_FOR)) or sequential and _provision_fills(
                final, *raised, play.plays, idx + 1, play.bought))
        issued = final.priced_at(entry.market, *raised)
        reward = profile.belief_rewards.get(agent.id, 0.0)
        side = profile.sides.get(agent.id, agent.belief_side)
        slot = _Evaluator(config, agent, entry.market, reward, side)
        slot.place(entry.amount, others_for, others_against, issued,
                   contribution_bound(config, agent, issued=issued, belief_reward=reward,
                                      side=side),
                   provision_viable, closed)
        slots.append(slot)
    return slots


def tolerance(config: CampaignConfig, epsilon: float | None) -> float:
    """The certifier's deviation tolerance, ``epsilon`` (-0.0 as 0.0) or by
    default a millionth of the larger target; a ValueError unless finite
    and >= 0."""
    if epsilon is None:
        epsilon = max(config.provision_point_pair or (config.provision_point,)) * 1e-6
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    return epsilon + 0.0


# ---------------------------------------------------------------------------
# Off-path probe states (sequential mechanisms)
# ---------------------------------------------------------------------------


def _provision_fills(book: DualMarketState, raised_for: float, raised_against: float,
                     plays: list[tuple[Market, float]], first: int,
                     bought: dict[Market, list[float]]) -> bool:
    """Whether provision can still fill without a rejection-side agent: the
    ``for`` coalition among the arrivals of ``plays`` from ``first`` on,
    playing its prescribed strategy from the open state where ``book``'s
    markets hold the given money, reaches its target (the ``against``
    market frozen; issuance coupling priced at the frozen leg). ``bought``
    is ``prefix_sums`` of the plays' quantities. The priced min leg only
    rises, and a payment is convex in the quantity and zero at zero, so the
    coalition's money is at least its quantity Q times the marginal price
    at the lowest issuance and at most the payment for Q at the highest:
    only a remaining target inside that band, widened by ``MET_REL_TOL`` of
    the target, is walked."""
    cf, target = book.cf, book.target[0]
    quantity = bought[_FOR][-1] - bought[_FOR][first]
    need, slack = target - raised_for, MET_REL_TOL * target
    if cf.price(cf.issued_at(min(raised_against, raised_for))) * quantity >= need + slack:
        return True
    if cf.contribution_for(quantity, cf.issued_at(min(raised_against, target))) < need - slack:
        return False
    walked = [raised_for, raised_against]
    book.walk(walked, plays, first, only=_FOR)
    return walked[0] >= target


RACE_PASSES = (1, 8, 64)  # the blocks of each of _follower_race's passes


def _follower_race(book: DualMarketState, after_for: float, after_against: float,
                   own_market: Market, first: int,
                   sums: tuple[tuple[list[float], list[float]], ...], low: float,
                   high: float) -> bool | None:
    """How the PPSN followers' race from the open markets holding
    ``after_for``, ``after_against`` ends, decided without a walk: True when
    ``own_market`` surely fills first, False when it surely ends short of
    its met band (``MET_REL_TOL``), None when the bracket cannot tell.

    The followers are the arrivals of the plays from ``first`` on, and
    ``sums`` holds each market's prefix sums of their quantities q and of
    expm1(q / b) (``_race_sums``). A payment b * log1p(u * expm1(q / b)) at
    marginal price u is at least u * q (the price only rises along a
    purchase) and at most b * u * expm1(q / b) (log1p(x) <= x). While the
    book is open the priced min leg only rises, from the starting state's
    smaller leg to at most the smaller target, so every price lies between
    ``low`` and ``high``, the prices there, and a run of followers pays
    between the lower price times their quantity and b times the upper
    price times their summed expm1. Within a block of followers the lower
    price is the one at the least min leg the money bounds allow where the
    block starts, and the upper one at the largest they allow where it
    ends. Block by block, one bisect per bound and market finds the index
    by which the market surely fills, and the one before which it cannot.
    The own market fills first when it surely fills before the rival can;
    it ends short when even its largest money, up to where the rival surely
    fills, leaves it short of the band. The first pass is one block priced
    at ``low`` and ``high``, with no pricing call; a state a pass leaves
    undecided is bracketed again in more blocks (``RACE_PASSES``), up to
    where the passes before found the book surely closed. Each need is
    widened by the band plus the walk's rounding, (m + 5) * 2**-48 of the
    target over m followers, and each difference of prefix sums by theirs,
    (n + 2) * 2**-52 of the total over n plays."""
    cf = book.cf
    b = cf.liquidity
    i = own_market is not _FOR
    after, target = (after_for, after_against), book.target
    need = (target[0] - after_for, target[1] - after_against)
    n = len(sums[0][0]) - 1
    widen = MET_REL_TOL + (n - first + 5) * 2.0 ** -48
    rounding = (n + 2) * 2.0 ** -52
    stop = n
    for blocks in RACE_PASSES:
        least, most = [0.0, 0.0], [0.0, 0.0]  # each market's money bounds at ``start``
        sure, reach = [n + 1, n + 1], [n + 1, n + 1]
        start, floor = first, low
        for j in range(1, blocks + 1):
            end = first + (stop - first) * j // blocks
            if end == start:
                continue
            ceiling = high
            if blocks > 1:
                leg = min(after[m] + most[m] + b * high * (e[end] - e[start] + rounding * e[-1])
                          for m, (_, e) in enumerate(sums))
                if leg < min(target):
                    ceiling = cf.price(cf.issued_at(leg))
            paid_high = b * ceiling
            for m in (0, 1):
                q, e = sums[m]
                if sure[m] > n:
                    k = bisect_left(q, q[start] + rounding * q[-1]
                                    + (need[m] + widen * target[m] - least[m]) / floor,
                                    start, end + 1)
                    if k <= end:
                        sure[m] = k
                if reach[m] > n:
                    k = bisect_left(e, e[start] - rounding * e[-1]
                                    + (need[m] - widen * target[m] - most[m]) / paid_high,
                                    start, end + 1)
                    if k <= end:
                        reach[m] = k
            if sure[i] < reach[1 - i]:
                return True
            if sure[1 - i] <= n:  # the rival surely fills in this block: the own market's most
                e = sums[i][1]
                most[i] += paid_high * (e[sure[1 - i]] - e[start] + rounding * e[-1])
                break
            for m in (0, 1):
                q, e = sums[m]
                least[m] += floor * max(0.0, q[end] - q[start] - rounding * q[-1])
                most[m] += paid_high * (e[end] - e[start] + rounding * e[-1])
            start = end
            if blocks > 1:
                floor = cf.price(cf.issued_at(min(after[0] + least[0], after[1] + least[1])))
        if most[i] < need[i] - (MET_REL_TOL + widen) * target[i]:
            return False
        stop = min(stop, *sure)
    return None


def _race_certifies(slot: _Evaluator, play: _Play, state: tuple[float, float], bound: float,
                    issued: float, first: int, high: float, provision_viable: bool,
                    epsilon: float) -> bool:
    """Whether the followers' race bracket (``_follower_race``) certifies
    the open PPSN probe ``state``, where ``slot`` (on the agent's own market)
    plays its ``bound`` at ``issued``, without ``follow``'s walk. False
    sends the state to the exact walk and sweep.

    A short own market certifies unswept: no amount up to the bound meets
    the target, the search then stays inside [0, bound], and the
    alternative branch alone is nondecreasing in the amount, so the sweep's
    best is its value at the bound, the prescribed play. An own market that
    fills first is placed with the others' money on it the state's plus the
    target less the money the play leaves (the securities rows read no
    total, so the rival's money does not matter), and certifies where the
    slot's gain ``bracket`` does, its margin widened by the walk's rounding.
    The walk's exact money on it differs from that by its rounding alone,
    d, at most (m + 5) * 2**-52 of the target T over m followers (two
    running sums of at most T, one closing difference and two additions).
    Under 4.5 million followers d stays inside the met band, so the
    prescribed play meets the target either way (past that every state is
    walked). Moving the others' money by d moves the truncated play by at
    most d, and the bracket's alt - own by at most d / u for u the marginal
    price at ``issued`` (an allocation's slope is one over the price after
    it, never below u); the widening, 2**-40 * (m + 5) * T / u, covers that
    many times over. Where ``epsilon`` does not exceed it, as at
    ``--epsilon 0``, every state is walked."""
    book = play.book
    i = slot.market is not _FOR
    target = slot.target
    after = state[i] + bound
    low = book.cf.price(issued)
    if not (bound < target - state[i] and after < target and low > 0.0):
        return False  # the play closes the book (follow walks nobody), or no price to bound
    followers = len(play.plays) - first
    slack = 2.0 ** -40 * (followers + 5) * target / low  # the walk's rounding
    if epsilon <= slack or (followers + 5) * 2.0 ** -52 >= MET_REL_TOL:
        return False
    race = _follower_race(book, *((state[0], after) if i else (after, state[1])), slot.market,
                          first, play.race, low, high)
    if race is None:
        return False
    if not race:
        return True
    others = state[i] + (target - after)
    slot.place(bound, *((state[0], others) if i else (others, state[1])), issued, bound,
               provision_viable)
    return slot.bracket(epsilon, slack)


def _probe_states(config: CampaignConfig, raised_for: float, raised_against: float,
                  bound: float, own_market: Market) -> list[tuple[float, float]]:
    """The on-path money (FOR, AGAINST) first, then synthetic
    remaining-target states, including one just short of ``bound``, the
    on-path slot's cap, engineered to trigger the late-arrival clipping
    branch: eight states at most, each the money raised per market."""
    target = config.target(own_market)
    own = [(1.0 - fraction) * target for fraction in (1.0, 0.8, 0.6, 0.4, 0.2)]
    if bound > 0.0:
        own.append(max(0.0, target - 0.5 * bound))
    for_market = own_market is Market.FOR
    states = [(raised_for, raised_against)] + [
        (x, raised_against) if for_market else (raised_for, x) for x in own]
    if config.mechanism.dual_market:
        half = 0.5 * config.target(own_market.other)
        states.append((raised_for, half) if for_market else (half, raised_against))
    # as dict keys, repeated states drop out and the first of each keeps its place
    return list(dict.fromkeys(states))


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def certify(config: CampaignConfig, agents: list[AgentProfile],
            profile: EquilibriumProfile, epsilon: float | None = None,
            conditions: list[ConditionCheck] | None = None, *,
            book: DualMarketState | None = None) -> EquilibriumReport:
    """Search every agent's unilateral deviations against the fixed profile,
    under the mechanism's own equilibrium notion: Nash for the deadline
    mechanisms, subgame-perfect for the sequential (arrival) ones.

    Certifies when no agent's contribution gains more than epsilon at its
    on-path slot and, in a sequential mechanism, at each of its off-path
    probe states, where the agent and its followers play their bounds
    (one-shot deviations over a finite horizon, followers' plays rolled
    out and then held fixed). A retiming gains nothing (module docstring),
    so none is searched. The report carries ``conditions``, the caller's
    ``check_conditions`` result, or evaluates them when none is given.
    ``book`` is the engine's book of the profile's play, from
    ``run_campaign``; without one the profile's ``plays`` are run here.
    """
    epsilon = tolerance(config, epsilon)
    sequential = config.mechanism.sequential
    report = EquilibriumReport(
        mechanism=config.mechanism.value,
        profile=profile,
        kind="subgame-perfect" if sequential else "Nash",
        conditions=(check_conditions(config, agents) if conditions is None
                    else conditions),
        epsilon=epsilon,
    )
    band = MET_REL_TOL * max(config.provision_point_pair or (config.provision_point,))
    if epsilon < band:
        report.notes.append(
            f"epsilon {epsilon:.6g} is below the met band {band:.6g} ({MET_REL_TOL:g} of "
            "the larger target): a total that short of its target counts as met, so "
            "gains inside the band are tolerance, not deviations")
    if not profile.feasible:
        return report
    if book is None:
        _, book = run_campaign(config, profile.plays())
    play = _path(config, agents, profile, book)
    report.expected_verdict = book.verdict or Verdict.EXPIRED
    slots = _slots(config, agents, profile, play)
    report.indifference = [slot.indifference(config) for slot in slots]
    if not sequential:
        report.notes.append(
            "timing deviations vacuous: refund schedule is time-invariant")
        for slot in slots:
            slot.check(report, epsilon)
        return report
    # off the path, followers play their bounds: each buys its security
    # quantity, so the kernel walks them by it (by prefix sum where it
    # can); each market's target issuance, where a single market's walk
    # closes, and each agent's quantity are fixed for the whole
    # certification
    found, plays, bought = play.found, play.plays, play.bought
    cf = config.cost_params
    target_issued = {m: cf.issued_at(config.target(m)) for m in config.mechanism.markets}
    # PPSN brackets the followers' race first (_race_certifies), its
    # prices between each state's smaller leg and the smaller target
    high = cf.price(cf.issued_at(min(book.target))) if play.race else None
    for idx, ((own_market, quantity), slot) in enumerate(zip(plays, slots)):
        closes_at = target_issued[own_market]
        on_path, *off_path = _probe_states(config, *found[idx], slot.bound, own_market)
        slot.check(report, epsilon, on_path)
        if slot.market is not own_market:  # an explicit play off the agent's preference
            slot = _Evaluator(config, slot.agent, own_market, slot.reward, slot.side)
        for state in off_path:
            if book.closed_at(*state):
                continue  # an arrival at a closed book plays zero
            provision_viable = own_market is _AGAINST and _provision_fills(
                book, *state, plays, idx + 1, bought)
            if slot.corner(report, provision_viable):
                continue
            issued = book.priced_at(own_market, *state)
            # the bound: the agent's security quantity, at this issuance
            bound = cf.contribution_for(quantity, issued)
            if high is not None and _race_certifies(slot, play, state, bound, issued, idx + 1,
                                                    high, provision_viable, epsilon):
                continue
            # paid: the followers' money per market, for the totals
            prescribed, paid = book.follow(*state, own_market, bound, plays, bought,
                                           idx + 1, closes_at)
            slot.place(prescribed, state[0] + paid[0], state[1] + paid[1], issued, bound,
                       provision_viable)
            slot.sweep(report, epsilon, state)
    return report


# The benchmark's tracer (perfbench/tracing.py) wraps the runner's two
# imported names for the certifier; both are ``certify``, until the
# program-owned trace of ROADMAP item 19 retires them.
certify_ne = certify_spe = certify
