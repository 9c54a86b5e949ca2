"""Equilibrium bounds, constructed profiles, existence checks, certification.

Each mechanism's theory gives a closed-form cap on what an agent is willing
to contribute. ``construct_profile`` turns those caps into a concrete play
(scaled so the winning side's total meets its target exactly), and the
certifiers search for profitable unilateral deviations, holding everyone
else's contributed amounts fixed. An agent's best contribution is exact:
its expected utility is piecewise in the amount (``_Pieces``), so the
maximum is at a piece's endpoint, its left limit or its stationary point.

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
  cannot win: the alternative outcome is certain (the rival market's
  verdict when that market fills, expiry otherwise), which is what blocks
  free riding at pivotal slots;
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
Refund-bonus timing never enters utilities, so timing deviations are vacuous
for that family; for the securities family the delay walk reprices the
allocation at the later slot. Utilities never fall as the allocation grows,
and waits never fall, so a delay is two numbers, the issuances after the
first and after the last wait: the one that allocates more is scored, and
reported as the slot's one timing deviation when it gains.

In the securities family a bound buys exactly the rules row's security
quantity, so ``construct_profile`` (from empty markets) and the SPE
certifier (at its off-path probe states) walk followers through the kernel
(``DualMarketState.walk`` and ``follow``), without a bound or a play per
follower.

Each certification replays the checked play once (``_path``) and builds
each agent's on-path slot, with its bound, once from it (``_slots``). The
report's indifference checks, each at its bound, are read off those slots,
and both certifiers check them the same way (``_check_slot``).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import zip_longest

from .mechanisms import (
    Action,
    DualMarketState,
    Waits,
    new_states,
    prefix_sums,
    ppr_utility,
    pprn_utility,
    pps_utility,
    ppsn_utility,
)
from .beliefs import (
    conditional_rewards,
    default_report,
    pprx_utility,
    ppsx_utility,
    score_reports,
)
from .model import (
    AgentProfile,
    BeliefSide,
    CampaignConfig,
    Market,
    Mechanism,
    Verdict,
    aggregate_valuations,
    own_market,
)

MET_REL_TOL = 1e-9  # a total short of its target by this share of it is met
STRICT_MARGIN = 1e-9  # keeps strict-inequality bounds strictly interior

# Bound once for the utilities and the rules rows: every member lookup on an
# enum class costs a few hundred ns on Python 3.11.
_FOR, _AGAINST = Market.FOR, Market.AGAINST
_PROVISIONED = Verdict.PROVISIONED


# ---------------------------------------------------------------------------
# Closed-form contribution bounds and the securities they buy
# ---------------------------------------------------------------------------


def bound_ppr(agent: AgentProfile, provision_point: float, refund_budget: float) -> float:
    """Single-market refund-bonus cap: indifference at a just-filled pot."""
    return provision_point / (refund_budget + provision_point) * max(agent.valuation, 0.0)


def bound_pprn(agent: AgentProfile, target_for: float, target_against: float,
               refund_budget: float) -> float:
    """Dual-market refund-bonus cap, identical in form for both preferences."""
    total = target_for + target_against
    return total / (refund_budget + total) * abs(agent.valuation)


def securities_pps(agent: AgentProfile) -> float:
    """Securities a PPS agent's bound buys: its valuation, floored at zero."""
    return max(agent.valuation, 0.0)


def securities_ppsn(agent: AgentProfile) -> float:
    """Securities a PPSN agent's bound buys: its valuation's magnitude, on
    the market of its preference."""
    return abs(agent.valuation)


def securities_ppsx(agent: AgentProfile, belief_reward: float) -> float:
    """Securities a PPSx agent's bound buys: the belief reward folded into
    the valuation (added when provision-minded, netted out otherwise),
    clamped at zero."""
    if agent.belief_side is BeliefSide.PROVISION_LIKELY:
        quantity = agent.valuation + belief_reward
    else:
        quantity = agent.valuation - belief_reward
    return max(quantity, 0.0)


def bound_pprx(agent: AgentProfile, provision_point: float, contribution_budget: float,
               belief_reward: float) -> float:
    """Belief-weighted refund-bonus cap; the rejection-minded variant nets the
    belief reward out and clamps at zero since contributions cannot be negative."""
    p = agent.provision_belief
    q = 1.0 - p
    if agent.belief_side is BeliefSide.PROVISION_LIKELY:
        numerator = p * (agent.valuation + belief_reward)
    else:
        numerator = p * agent.valuation - q * belief_reward
    denominator = q * contribution_budget + p * provision_point
    return max(0.0, numerator / denominator * provision_point)


# ---------------------------------------------------------------------------
# One rules row per mechanism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rules:
    """What one mechanism's theory says, each entry a function of the config:

    * ``bound(config, agent, issued, reward)``: the refund family's
      contribution cap;
    * ``utility(config, agent, market, reward, verdict)``: the utility of a
      contribution to ``market`` under ``verdict``, as
      ``u(amount, securities, total_for, total_against)``, where only the
      securities utilities read the ``securities`` the amount buys;
    * ``indifference(config, agent, bound, issued, reward)``: the bound's
      defining equation at the bound, with denominators at the filled
      targets, as ``(lhs, rhs, clamped)``;
    * ``conditions(config, net, totals)``: the existence inequalities as
      ``(name, lhs, rhs, strict)``, ``totals`` the valuations per market;
    * ``securities(config, agent, reward)``: the securities family's
      security quantity, in place of a cap: the bound is the payment for it
      at the issuance (``cf.contribution_for``), and the kernel walks
      followers by it (``DualMarketState.walk`` and ``follow``).

    Entries call the ``*_utility`` functions by this module's names when
    they run, so wrappers on those names see each call.
    """

    utility: Callable[..., Callable[..., float]]
    indifference: Callable[..., tuple[float, float, bool]]
    conditions: Callable[..., list[tuple[str, float, float, bool]]]
    bound: Callable[..., float] | None = None
    securities: Callable[..., float] | None = None


_SIDE_NAMES = {_FOR: "provision", _AGAINST: "rejection"}


def _below_valuations(config: CampaignConfig, totals: dict[Market, float]) -> list:
    """Each market's target strictly below its side's valuations."""
    return [(f"{_SIDE_NAMES[m]}_valuation_exceeds_target", config.target(m),
             totals[m], True) for m in config.mechanism.markets]


# Row entries too long for a lambda; PPS and PPSN share theirs.
def _pprn_indifference(config, agent, bound, issued, reward):
    share = bound / config.target_sum * config.refund_budget
    if own_market(config, agent) is _FOR:
        return agent.valuation - bound, share, False
    return -bound, agent.valuation + share, False


def _securities_indifference(config, agent, bound, issued, reward):
    allocated = config.cost_function.securities_for(bound, issued)
    if own_market(config, agent) is _FOR:
        return agent.valuation - bound, allocated - bound, False
    return -bound, agent.valuation + allocated - bound, False


def _securities_conditions(config, net, totals):
    cf = config.cost_function
    return _below_valuations(config, totals) + [
        (f"{_SIDE_NAMES[m]}_securities_affordable",
         cf.inverse_cost(config.target(m) + cf.opening_cost), totals[m], True)
        for m in config.mechanism.markets]


def _pprx_indifference(config, agent, bound, issued, reward):
    p = agent.provision_belief
    q = 1.0 - p
    theta = agent.valuation
    share = bound / config.provision_point * config.contribution_budget
    if agent.belief_side is BeliefSide.PROVISION_LIKELY:
        return p * (theta - bound + reward), q * share, False
    return (p * (theta - bound), q * (share + reward),
            bound == 0.0 and p * theta - q * reward < 0)


def _ppsx_indifference(config, agent, bound, issued, reward):
    allocated = config.cost_function.securities_for(bound, issued)
    theta = agent.valuation
    if agent.belief_side is BeliefSide.PROVISION_LIKELY:
        return theta + reward - bound, allocated - bound, False
    return (theta - bound, allocated - bound + reward,
            bound == 0.0 and theta - reward < 0)


def _belief_conditions(config, net):
    return [("target_within_valuation_plus_belief_budget", config.provision_point,
             net + config.belief_budget, False),
            ("belief_budget_positive", 0.0, config.belief_budget, True)]


RULES: dict[Mechanism, Rules] = {
    Mechanism.PPR: Rules(
        bound=lambda config, agent, issued, reward: bound_ppr(
            agent, config.provision_point, config.refund_budget),
        utility=lambda config, agent, market, reward, verdict: (
            lambda amount, securities, total_for, total_against: ppr_utility(
                agent, amount, total_for, config.refund_budget,
                verdict is _PROVISIONED)),
        indifference=lambda config, agent, bound, issued, reward: (
            agent.valuation - bound,
            bound / config.provision_point * config.refund_budget, False),
        conditions=lambda config, net, totals: [
            *_below_valuations(config, totals),
            ("refund_budget_positive", 0.0, config.refund_budget, True),
            ("refund_budget_below_cap", config.refund_budget,
             totals[_FOR] - config.provision_point, True)]),
    Mechanism.PPRN: Rules(
        bound=lambda config, agent, issued, reward: bound_pprn(
            agent, *config.provision_point_pair, config.refund_budget),
        utility=lambda config, agent, market, reward, verdict: (
            lambda amount, securities, total_for, total_against: pprn_utility(
                agent, market, amount, total_for, total_against,
                config.refund_budget, verdict)),
        indifference=_pprn_indifference,
        conditions=lambda config, net, totals: [
            *_below_valuations(config, totals),
            ("refund_budget_positive", 0.0, config.refund_budget, True),
            *((f"refund_budget_below_{_SIDE_NAMES[m]}_cap", config.refund_budget,
               config.target_sum * (totals[m] - config.target(m)) / config.target(m),
               True) for m in config.mechanism.markets)]),
    Mechanism.PPS: Rules(
        utility=lambda config, agent, market, reward, verdict: (
            lambda amount, securities, total_for, total_against: pps_utility(
                agent, amount, securities, verdict is _PROVISIONED)),
        indifference=_securities_indifference,
        conditions=_securities_conditions,
        securities=lambda config, agent, reward: securities_pps(agent)),
    Mechanism.PPSN: Rules(
        utility=lambda config, agent, market, reward, verdict: (
            lambda amount, securities, total_for, total_against: ppsn_utility(
                agent, market, amount, securities, verdict)),
        indifference=_securities_indifference,
        conditions=_securities_conditions,
        securities=lambda config, agent, reward: securities_ppsn(agent)),
    Mechanism.PPRX: Rules(
        bound=lambda config, agent, issued, reward: bound_pprx(
            agent, config.provision_point, config.contribution_budget, reward),
        utility=lambda config, agent, market, reward, verdict: (
            lambda amount, securities, total_for, total_against: pprx_utility(
                agent, agent.belief_side, amount, total_for,
                config.contribution_budget, reward, verdict is _PROVISIONED)),
        indifference=_pprx_indifference,
        conditions=lambda config, net, totals: [
            *_belief_conditions(config, net),
            ("contribution_budget_positive", 0.0, config.contribution_budget, True)]),
    Mechanism.PPSX: Rules(
        utility=lambda config, agent, market, reward, verdict: (
            lambda amount, securities, total_for, total_against: ppsx_utility(
                agent, agent.belief_side, amount, securities, reward,
                verdict is _PROVISIONED)),
        indifference=_ppsx_indifference,
        conditions=lambda config, net, totals: _belief_conditions(config, net),
        securities=lambda config, agent, reward: securities_ppsx(agent, reward)),
}


def contribution_bound(config: CampaignConfig, agent: AgentProfile, *,
                       issued: float = 0.0, belief_reward: float = 0.0) -> float:
    """The mechanism's bound at the given issuance context."""
    row = RULES[config.mechanism]
    if row.securities is not None:
        return config.cost_function.contribution_for(
            row.securities(config, agent, belief_reward), issued)
    return row.bound(config, agent, issued, belief_reward)


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
    rows = RULES[config.mechanism].conditions(
        config, net, {_FOR: total_for, _AGAINST: total_against})
    return [ConditionCheck(name, lhs < rhs if strict else lhs <= rhs, lhs, rhs)
            for name, lhs, rhs, strict in rows]


# ---------------------------------------------------------------------------
# Profile construction
# ---------------------------------------------------------------------------


@dataclass
class EquilibriumProfile:
    """A concrete candidate play: each agent's ``Action`` by agent id. An
    infeasible profile carries the ``reason`` it could not be built.
    """

    entries: dict[int, Action] = field(default_factory=dict)
    reason: str | None = None
    belief_rewards: dict[int, float] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.reason is None

    def total(self, market: Market) -> float:
        return sum(e.amount for e in self.entries.values() if e.market is market)


def _fill_side(agents: list[AgentProfile], bounds: dict[int, float], target: float,
               strict: bool) -> dict[int, float] | None:
    """Scale bounds proportionally so the side sums to ``target`` exactly.

    Returns None when the bounds cannot cover the target (or cannot while
    staying strictly interior, for the strict-inequality mechanisms). The
    last agent in id order absorbs the float residue so the sum is exact.
    """
    total = sum(bounds[a.id] for a in agents)
    limit = total * (1.0 - STRICT_MARGIN) if strict else total
    if limit < target:
        return None
    scale = target / total
    amounts = {a.id: scale * bounds[a.id] for a in agents}
    ordered = sorted(a.id for a in agents)
    residue = target - sum(amounts[i] for i in ordered[:-1])
    # the residue can dip a few ulps negative when the partial sums overshoot
    amounts[ordered[-1]] = max(0.0, residue)
    return amounts


def construct_profile(config: CampaignConfig, agents: list[AgentProfile],
                      belief_rewards: dict[int, float] | None = None) -> EquilibriumProfile:
    """Build the canonical equilibrium play from the closed-form bounds.

    Deadline mechanisms scale every agent's bound proportionally so the
    filled side meets its target exactly; arrival mechanisms replay arrivals,
    each agent contributing its bound clipped to the remaining target, until
    a target fills. Infeasibility (bounds cannot reach the target) is
    reported, never silently scaled up.
    """
    mech = config.mechanism
    profile = EquilibriumProfile()
    if mech.two_phase:
        if len(agents) < 3:
            raise ValueError("belief-phase mechanisms require at least 3 agents")
        if belief_rewards is None:
            truthful = score_reports([default_report(a) for a in agents])
            belief_rewards = conditional_rewards(truthful, config.belief_budget)  # type: ignore[arg-type]
        profile.belief_rewards = dict(belief_rewards)
    rewards = profile.belief_rewards

    if not mech.sequential:
        # everyone delays to the deadline; each side's bounds scale to its target
        bounds = {a.id: contribution_bound(config, a, belief_reward=rewards.get(a.id, 0.0))
                  for a in agents}
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
                else f"bounds sum to {sum(bounds.values()):.6g}, below the "
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
    arrivals = _arrivals(config, order, rewards)
    book = new_states(config)
    amounts = book.walk(_plays(config, arrivals))
    for (agent, market, _), amount in zip_longest(arrivals, amounts, fillvalue=0.0):
        profile.entries[agent.id] = Action(agent.id, amount, market,
                                           agent.arrival_contribution)
    if book.verdict is None:
        profile.reason = ("arrival-order bounds exhaust all agents with no target "
                          f"reached (raised {book.market_for.raised:.6g} / "
                          f"{book.market_against.raised:.6g})")
    return profile


def _arrivals(config: CampaignConfig, order: list[AgentProfile],
              rewards: dict[int, float]) -> list[tuple[AgentProfile, Market, float]]:
    """Each agent of ``order`` with its own market (the one its equilibrium
    play goes to) and belief reward, looked up once per walk rather than
    once per step."""
    return [(a, own_market(config, a), rewards.get(a.id, 0.0)) for a in order]


def _plays(config: CampaignConfig,
           arrivals: list[tuple[AgentProfile, Market, float]]) -> list[tuple[Market, float]]:
    """Each arrival's market and the security quantity its bound buys there
    (the rules row's ``securities``): what the kernel's walks play."""
    securities = RULES[config.mechanism].securities
    return [(market, securities(config, agent, reward))
            for agent, market, reward in arrivals]


_Path = tuple[list[AgentProfile], list[tuple[float, float]], DualMarketState]


def _path(config: CampaignConfig, agents: list[AgentProfile],
          profile: EquilibriumProfile) -> _Path:
    """The profile's plays replayed once, as the engine plays them: the
    play order (entry tick, then id), the money (FOR, AGAINST) each agent
    of it found raised, and the book after the last play. A play at a
    closed book is discarded. ``final.at(*raised)`` is the ledger-free
    book an agent found; it is built only where it is read, so the
    verdict alone costs no book per agent."""
    order = sorted(agents, key=lambda a: (profile.entries[a.id].tick, a.id))
    book = new_states(config)
    found = []
    for agent in order:
        found.append((book.market_for.raised, book.market_against.raised))
        if not book.closed:
            entry = profile.entries[agent.id]
            book.play(entry.market, entry.amount)
    return order, found, book


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
    """Both sides of the bound's defining equation, at the bound."""

    agent_id: int
    bound: float
    lhs: float
    rhs: float
    clamped: bool = False


@dataclass
class EquilibriumReport:
    mechanism: str
    profile: EquilibriumProfile
    conditions: list[ConditionCheck] = field(default_factory=list)
    deviations: list[Deviation] = field(default_factory=list)
    indifference: list[IndifferenceCheck] = field(default_factory=list)
    epsilon: float = 0.0
    notes: list[str] = field(default_factory=list)
    kind: str = "Nash"  # the certifier that produced it
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
            "feasible": self.feasible,
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


def _own_win_weight(config: CampaignConfig, agent: AgentProfile) -> float:
    """Belief weight on the agent's own market winning while it stays in the
    race: even odds for the symmetric mechanisms, the agent's own provision
    probability for the belief-phase ones (whose one market is provision)."""
    if config.mechanism.two_phase:
        return agent.provision_belief
    return 0.5


def _met(total: float, target: float) -> bool:
    return total >= target - MET_REL_TOL * target


@dataclass(frozen=True)
class _Slot:
    """One agent's decision context against a fixed everyone-else play."""

    agent: AgentProfile
    market: Market
    amount: float
    others_for: float
    others_against: float
    issued: float = 0.0  # issuance the agent's allocation is priced at
    belief_reward: float = 0.0
    bound: float = 0.0  # strategy-set cap at this slot's issuance
    closed: bool = False  # a target was already met when this agent moved
    rival_viable: bool = False  # the other market fills without this agent

    def others_on(self, market: Market) -> float:
        return self.others_for if market is Market.FOR else self.others_against

    def side_fills(self, config: CampaignConfig) -> bool:
        """Whether this agent's own market reaches its target at the
        prescribed play; decides the certified search range."""
        return _met(self.others_on(self.market) + self.amount,
                    config.target(self.market))

    def sweep_top(self, config: CampaignConfig) -> float:
        if self.side_fills(config):
            return max(abs(self.agent.valuation) + self.belief_reward, self.amount)
        return max(self.bound, self.amount)


@dataclass(frozen=True)
class _Pieces:
    """A slot's expected utility as a function of the amount x, piece by
    piece; everything else is fixed for the slot:

    * on [0, pivot) the own market stays short and eu is the alternative
      branch alone, nondecreasing in x in every mechanism (a refund share
      x / (O + x) * B or an allocation minus its payment, plus constants);
    * on [pivot, capacity] the own market counts as met and eu is the
      weighted two-branch mix, concave in x (the own branch is linear in
      x, the alternative concave);
    * past capacity eu is constant, because the engine truncates the play.

    ``eu(amount, issued=slot.issued, alt_only=False)`` is the evaluator;
    ``alt_only`` scores the alternative branch alone. ``clip(amount)`` is
    the amount the engine accepts (truncated to the capacity), the one eu
    scores. ``stationary()`` is where the mix's slope changes sign, if
    anywhere.
    """

    pivot: float  # the least x at which the own market counts as met
    clip: Callable[[float], float]
    stationary: Callable[[], float | None]
    eu: Callable[..., float]

    def best(self, top: float, amount: float) -> tuple[float, float, float]:
        """The supremum of eu over [0, top], the x where it is reached, and
        eu at ``amount``, the prescribed play, which lies in [0, top]. The
        supremum is the alternative branch's left limit at the pivot, or the
        best of 0, ``top``, the pivot, the stationary point and ``amount``.
        The capacity needs no evaluation: eu there equals eu at ``top`` when
        top is past it, and is clipped to ``top`` otherwise. A left limit is
        approached by plays just below the pivot."""
        eu = self.eu
        best_x, best = 0.0, -math.inf
        if self.pivot > 0.0:
            best_x = min(self.pivot, top)
            best = eu(best_x, alt_only=True)
        points = [0.0, top, self.pivot, amount]
        stationary = self.stationary()
        if stationary is not None:
            points.append(stationary)
        for x in sorted({min(max(x, 0.0), top) for x in points}):
            value = eu(x)
            if x == amount:
                base = value
            if value > best:
                best_x, best = x, value
        return best_x, best, base


def _pieces(config: CampaignConfig, slot: _Slot) -> _Pieces:
    """The slot's evaluator and its piece structure.

    The amount is truncated to the market's remaining capacity, and
    ``issued`` reprices the allocation of a delayed contribution. The
    outcome distribution is tied to the post-deviation totals: while the
    agent's own market reaches its target the race is priced by its
    beliefs; otherwise the alternative is certain. The alternative is the
    rival market's verdict when that side can still fill (its own
    coalition's play is not stopped by this agent), expiry otherwise.
    Everything but the amount and the issuance is fixed for the slot and
    computed here once.
    """
    agent, market, reward = slot.agent, slot.market, slot.belief_reward
    for_market = market is Market.FOR
    others_for, others_against = slot.others_for, slot.others_against
    others = slot.others_on(market)
    target = config.target(market)
    capacity = max(0.0, target - others)
    met_from = target - MET_REL_TOL * target  # _met's threshold
    pivot = met_from - others
    # the difference is exact unless others < met_from / 2, and then a few
    # ulps of pivot are enough for eu to count the pivot as met
    while others + pivot < met_from:
        pivot = math.nextafter(pivot, math.inf)
    own_verdict = Verdict.PROVISIONED if for_market else Verdict.REJECTED
    if config.mechanism.dual_market and slot.rival_viable:
        alt_verdict = Verdict.REJECTED if for_market else Verdict.PROVISIONED
    else:
        alt_verdict = Verdict.EXPIRED
    own_weight = _own_win_weight(config, agent)
    if not for_market:
        own_weight = 1.0 - own_weight
    alt_weight = 1.0 - own_weight
    utility = RULES[config.mechanism].utility
    own = utility(config, agent, market, reward, own_verdict)
    alt = utility(config, agent, market, reward, alt_verdict)
    cf = config.cost_function  # set exactly for the securities family

    def stationary() -> float | None:
        # The mix's slope is -own_weight + alt_weight * (alternative's
        # slope), and the alternative's slope falls with x. Refund family:
        # the share x / (O + x) * B of the pool O the others paid in (a
        # single-market book holds nothing on AGAINST) has slope
        # B * O / (O + x)^2. Securities family: the mix is -x + alt_weight *
        # allocation(x) + constants, and the allocation's slope is one over
        # the post-purchase price, so the slope vanishes where that price
        # equals alt_weight.
        if not 0.0 < alt_weight < 1.0:
            return None
        if cf is None:
            pool = others_for + others_against
            return math.sqrt(alt_weight * config.bonus_budget * pool / own_weight) - pool
        priced_at = cf.fixed_leg + cf.liquidity * math.log(alt_weight / own_weight)
        if priced_at <= slot.issued:
            return None
        return cf.contribution_for(priced_at - slot.issued, slot.issued)

    def clip(amount: float) -> float:
        return max(0.0, min(amount, capacity))

    def eu(amount: float, issued: float = slot.issued, alt_only: bool = False) -> float:
        effective = clip(amount)
        # one allocation serves both branches; only the securities utilities read it
        securities = 0.0 if cf is None else cf.securities_for(effective, issued)
        if for_market:
            total_for, total_against = others_for + effective, others_against
        else:
            total_for, total_against = others_for, others_against + effective
        if not alt_only and others + effective >= met_from:
            return (own_weight * own(effective, securities, total_for, total_against)
                    + alt_weight * alt(effective, securities, total_for, total_against))
        return alt(effective, securities, total_for, total_against)

    return _Pieces(pivot, clip, stationary, eu)


EXPIRY_CORNER_NOTE = ("rejection-side sweep skipped at states where the "
                      "provision side cannot fill (expiry corner)")


def _check_slot(config: CampaignConfig, slot: _Slot, report: EquilibriumReport,
                epsilon: float, prefix: str = "",
                waits: Waits | None = None) -> None:
    """Add one slot's profitable deviations to ``report``: a nonzero play at
    a closed book; at an open one (unless it is the expiry corner) the best
    contribution, exact over the slot's pieces, and, given the ``waits`` of
    an SPE probe state, the delays."""
    if slot.closed:
        # zero is the only legal play, so a nonzero prescription is itself
        # the defect to report
        if slot.amount > epsilon:
            report.deviations.append(Deviation(
                slot.agent.id, "contribution",
                prefix + f"market closed but profile prescribes x={slot.amount:.6g}",
                slot.amount))
        return
    if (config.mechanism.dual_market and slot.market is Market.AGAINST
            and not slot.rival_viable):
        # with the provision side dead, a rejection-side agent is choosing
        # between forfeiting its stake and an expiry refund; the equilibrium
        # claims do not reach this corner, so it is noted, not swept
        if EXPIRY_CORNER_NOTE not in report.notes:
            report.notes.append(EXPIRY_CORNER_NOTE)
        return
    # the sweep and the delay walk share the pieces and the base
    pieces = _pieces(config, slot)
    best_x, best, base = pieces.best(slot.sweep_top(config), slot.amount)
    if best - base > epsilon:
        report.deviations.append(Deviation(
            slot.agent.id, "contribution",
            prefix + f"x={best_x:.6g} on {slot.market.value} (was {slot.amount:.6g})",
            best - base))
    if waits is not None:
        report.deviations.extend(
            _delay_deviations(config, slot, pieces, base, waits, epsilon, prefix))


def _slots(config: CampaignConfig, agents: list[AgentProfile],
           profile: EquilibriumProfile, path: _Path) -> list[_Slot]:
    """One decision slot per agent against everyone else's amounts at
    settlement, capped at its bound at the slot's issuance. Sequential
    mechanisms' slots see the markets as their agents found them on the
    profile's ``path``, in its play order; deadline mechanisms' agents all
    move at once, against empty markets."""
    sequential = config.mechanism.sequential
    if sequential:
        order, found, final = path
        books = [final.at(*raised) for raised in found]
        plays = _plays(config, _arrivals(config, order, profile.belief_rewards))
        bought = prefix_sums(plays)
    else:
        order, books = agents, [new_states(config)] * len(agents)
    final_for = profile.total(Market.FOR)
    final_against = profile.total(Market.AGAINST)
    slots = []
    for idx, (agent, book) in enumerate(zip(order, books)):
        entry = profile.entries[agent.id]
        others_for = final_for - (entry.amount if entry.market is Market.FOR else 0.0)
        others_against = final_against - (
            entry.amount if entry.market is Market.AGAINST else 0.0)
        rival_viable = False
        if config.mechanism.dual_market:
            rival = entry.market.other
            rival_total = others_against if rival is Market.AGAINST else others_for
            rival_viable = _met(rival_total, config.target(rival)) or (
                sequential and _rival_fills(book, entry.market, plays, idx + 1, bought))
        issued = book.price_issuance(entry.market)
        reward = profile.belief_rewards.get(agent.id, 0.0)
        slots.append(_Slot(
            agent=agent,
            market=entry.market,
            amount=entry.amount,
            others_for=others_for,
            others_against=others_against,
            issued=issued,
            belief_reward=reward,
            bound=contribution_bound(config, agent, issued=issued, belief_reward=reward),
            closed=book.closed,
            rival_viable=rival_viable,
        ))
    return slots


def _base_report(config: CampaignConfig, agents: list[AgentProfile],
                 profile: EquilibriumProfile, epsilon: float | None,
                 conditions: list[ConditionCheck] | None
                 ) -> tuple[EquilibriumReport, float, _Path | None, list[_Slot]]:
    """The report before the search (conditions, and each slot's bound
    and indifference check), the profile's ``path`` and the agents' slots
    on it; an infeasible profile has neither."""
    if epsilon is None:
        # the default tolerance is a millionth of the larger target
        epsilon = max(config.provision_point_pair or (config.provision_point,)) * 1e-6
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    report = EquilibriumReport(
        mechanism=config.mechanism.value,
        profile=profile,
        conditions=(check_conditions(config, agents) if conditions is None
                    else conditions),
        epsilon=epsilon,
    )
    if not profile.feasible:
        report.notes.append(profile.reason)
        return report, epsilon, None, []
    path = _path(config, agents, profile)
    report.expected_verdict = path[2].verdict or Verdict.EXPIRED
    slots = _slots(config, agents, profile, path)
    indifference = RULES[config.mechanism].indifference
    report.indifference = [IndifferenceCheck(
        slot.agent.id, slot.bound,
        *indifference(config, slot.agent, slot.bound, slot.issued, slot.belief_reward))
        for slot in slots]
    return report, epsilon, path, slots


def certify_ne(config: CampaignConfig, agents: list[AgentProfile],
               profile: EquilibriumProfile, epsilon: float | None = None,
               conditions: list[ConditionCheck] | None = None) -> EquilibriumReport:
    """Search every agent's unilateral deviations against the fixed profile.

    Certifies when at no agent's on-path slot a contribution or
    (vacuously, for the refund-bonus family) a retiming gains more than
    epsilon. The report carries ``conditions``, the caller's
    ``check_conditions`` result, or evaluates them when none is given.
    """
    report, eps, path, slots = _base_report(config, agents, profile, epsilon, conditions)
    if path is None:
        return report
    if not config.mechanism.sequential:
        report.notes.append(
            "timing deviations vacuous: refund schedule is time-invariant")
    for slot in slots:
        _check_slot(config, slot, report, eps)
    return report


# ---------------------------------------------------------------------------
# Subgame-perfect certification (securities family)
# ---------------------------------------------------------------------------


def _rival_fills(book: DualMarketState, own_market: Market,
                 plays: list[tuple[Market, float]], first: int,
                 bought: dict[Market, list[float]]) -> bool:
    """Whether the rival market's coalition among the arrivals of ``plays``
    from ``first`` on, playing its prescribed strategy from this state,
    still reaches its target (the agent's own side frozen; issuance
    coupling priced at the frozen leg). ``bought`` is ``prefix_sums`` of the
    plays' quantities. The priced min leg only rises, and a payment is
    convex in the quantity and zero at zero, so the coalition's money is at
    least its quantity Q times the marginal price at the lowest issuance
    and at most the payment for Q at the highest: only a remaining target
    inside that band, widened by ``MET_REL_TOL`` of the target, is walked."""
    rival = own_market.other
    state, cf = book.market(rival), book.cf
    if not book.closed:
        quantity = bought[rival][-1] - bought[rival][first]
        leg = book.market(own_market).raised
        need, slack = state.remaining, MET_REL_TOL * state.target
        if cf.price(cf.issued_at(min(leg, state.raised))) * quantity >= need + slack:
            return True
        if cf.contribution_for(quantity, cf.issued_at(min(leg, state.target))) < need - slack:
            return False
    book = book.copy()
    book.walk(plays, first, only=rival)
    return book.market(rival).met


def _probe_states(config: CampaignConfig, on_path: DualMarketState, bound: float,
                  own_market: Market) -> list[DualMarketState]:
    """On-path markets (first) plus synthetic remaining-target states,
    including one just short of ``bound``, the on-path slot's cap, engineered
    to trigger the late-arrival clipping branch: eight states at most."""
    target = config.target(own_market)
    raised = {Market.FOR: on_path.market_for.raised,
              Market.AGAINST: on_path.market_against.raised}
    states = [raised] + [{**raised, own_market: (1.0 - fraction) * target}
                         for fraction in (1.0, 0.8, 0.6, 0.4, 0.2)]
    if bound > 0.0:
        states.append({**raised, own_market: max(0.0, target - 0.5 * bound)})
    if config.mechanism.dual_market:
        other = own_market.other
        states.append({**raised, other: 0.5 * config.target(other)})
    # as dict keys, repeated states drop out and the first of each keeps its place
    unique = list({(state[Market.FOR], state[Market.AGAINST]): None for state in states})
    return [on_path.at(*state) for state in unique]


def _state_prefix(state: DualMarketState) -> str:
    """A probe state's name in a deviation's detail: its money raised."""
    return (f"[state raised_for={state.market_for.raised:.6g} "
            f"raised_against={state.market_against.raised:.6g}] ")


def certify_spe(config: CampaignConfig, agents: list[AgentProfile],
                profile: EquilibriumProfile, epsilon: float | None = None,
                conditions: list[ConditionCheck] | None = None) -> EquilibriumReport:
    """Verify the prescribed play is a best response at every probed
    subgame state, walking arrivals with followers' plays rolled out and
    then held fixed (one-shot deviations over a finite horizon).

    Each agent's on-path slot is ``certify_ne``'s, with the path's later
    plays as its waits; at its off-path probe states, placed by that slot's
    bound, the agent and its followers play their bounds. Covers
    contribution deviations and delay: repricing the agent's allocation
    after the first or the last later arrival that leaves the book open.
    ``conditions`` is as for ``certify_ne``.
    """
    if not config.mechanism.sequential:
        raise ValueError(f"{config.mechanism.value} has no sequential subgame "
                         "structure; use certify_ne")
    report, eps, path, slots = _base_report(config, agents, profile, epsilon, conditions)
    report.kind = "subgame-perfect"
    if path is None:
        return report
    order, found, final = path
    books = [final.at(*raised) for raised in found]
    arrivals = _arrivals(config, order, profile.belief_rewards)
    # on the path, the later plays are the profile's: closing is the play
    # after which the book is closed (len(order) if none), and no play before
    # it is truncated, so the money each play found is their prefix sum
    closing = next((k for k, book in enumerate([*books[1:], final]) if book.closed),
                   len(order))
    found = [*found, (final.market_for.raised, final.market_against.raised)]
    # off the path, followers play their bounds: each buys its security
    # quantity, so the kernel walks them by it (by prefix sum where it can)
    plays = _plays(config, arrivals)
    bought = prefix_sums(plays)
    for idx, ((agent, own_market, reward), slot) in enumerate(zip(arrivals, slots)):
        on_path, *off_path = _probe_states(config, books[idx], slot.bound, own_market)
        # waits: the later plays that leave the book open, and the issuance
        # the delayed contribution is priced at after the first and the last
        count = closing - idx - 1
        waits = (0, 0.0, 0.0) if count <= 0 else (count, *(on_path.issued_with(
            slot.market, [x - y for x, y in zip(found[k], found[idx + 1])])
            for k in (idx + 2, closing)))
        _check_slot(config, slot, report, eps, _state_prefix(on_path), waits)
        for state in off_path:
            if state.closed:
                continue  # an arrival at a closed book plays zero
            issued = state.price_issuance(own_market)
            bound = contribution_bound(config, agent, issued=issued, belief_reward=reward)
            # paid: the followers' money per market, for the totals
            prescribed, paid, waits = state.follow(own_market, bound, plays, bought, idx + 1)
            _check_slot(config, _Slot(
                agent=agent, market=own_market, amount=prescribed,
                others_for=state.market_for.raised + paid[0],
                others_against=state.market_against.raised + paid[1],
                issued=issued, belief_reward=reward, bound=bound,
                rival_viable=config.mechanism.dual_market and _rival_fills(
                    state, own_market, plays, idx + 1, bought),
            ), report, eps, _state_prefix(state), waits)
    return report


def _delay_deviations(config: CampaignConfig, slot: _Slot, pieces: _Pieces,
                      base: float, waits: Waits, epsilon: float,
                      prefix: str) -> list[Deviation]:
    """Reprice the prescribed contribution after later arrivals;
    allocations never improve with waiting, so a gain is a defect worth
    reporting. ``waits`` counts the later plays that leave the book open
    once the agent has played (past the one that closes it no later slot
    exists for the contribution) and gives the issuance the contribution is
    priced at after the first and after the last of them.

    Waits never fall (raised money and the min leg only grow), an
    allocation is monotone in issuance and every securities utility is
    nondecreasing in it, so of the first wait and the last, the one that
    allocates more gains at least as much as any wait: it is the one timing
    deviation reported, when its gain exceeds epsilon."""
    count, first, last = waits
    if not count:
        return []
    effective = pieces.clip(slot.amount)
    securities_for = config.cost_function.securities_for
    waited, issued = max((1, first), (count, last),
                         key=lambda wait: securities_for(effective, wait[1]))
    gain = pieces.eu(slot.amount, issued) - base
    if gain <= epsilon:
        return []
    return [Deviation(slot.agent.id, "timing",
                      prefix + f"delay past {waited} later arrivals", gain)]


# ---------------------------------------------------------------------------
# Analysis helpers
# ---------------------------------------------------------------------------


def contribution_ordering_gap(config: CampaignConfig, optimist: AgentProfile,
                              pessimist: AgentProfile, *, issued: float = 0.0,
                              belief_reward: float = 0.0) -> tuple[float, float, float]:
    """Bound gap between a matched provision-minded / rejection-minded pair.

    The pair must agree on valuation, belief offset, and arrival, and sit on
    opposite sides; the gap is positive whenever the belief reward is
    positive (or, for the refund-bonus variant, the beliefs are strictly
    asymmetric), showing optimists are asked to contribute more.
    """
    if not config.mechanism.two_phase:
        raise ValueError("ordering gap applies to the belief-phase mechanisms only")
    if optimist.belief_side is not BeliefSide.PROVISION_LIKELY:
        raise ValueError("first agent must be provision-minded")
    if pessimist.belief_side is not BeliefSide.REJECTION_LIKELY:
        raise ValueError("second agent must be rejection-minded")
    if optimist.valuation != pessimist.valuation:
        raise ValueError("pair must share the same valuation")
    if optimist.belief_epsilon != pessimist.belief_epsilon:
        raise ValueError("pair must share the same belief offset")
    if optimist.arrival_contribution != pessimist.arrival_contribution:
        raise ValueError("pair must share the same arrival")
    upper = contribution_bound(config, optimist, issued=issued,
                               belief_reward=belief_reward)
    lower = contribution_bound(config, pessimist, issued=issued,
                               belief_reward=belief_reward)
    return upper, lower, upper - lower


def combined_mechanism_gap(agent: AgentProfile, reward_securities: float) -> float:
    """Expected-utility edge of contributing with (vs against) one's true
    preference when a dual-market securities run naively adds belief rewards.

    Equals (rejection belief - provision belief) * securities for a
    provision-minded agent: nonpositive, so such an agent prefers the lying
    side whenever it holds securities and any belief asymmetry; mirrored for
    rejection-minded agents.
    """
    if reward_securities < 0:
        raise ValueError("securities must be nonnegative")
    return (1.0 - 2.0 * agent.provision_belief) * reward_securities + 0.0
