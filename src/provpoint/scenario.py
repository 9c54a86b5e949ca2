"""Scenario files: parsing, validation, serialization, seeded generation.

A scenario is a JSON document with a mandatory ``version`` field, the
campaign config, the agent list, optional explicit plays and belief reports,
the analysis switch, and a seed. Validation happens entirely at parse time and
error messages name the offending field and the violated invariant.

Generated scenarios come from a template (mechanism, agent count, valuation
and belief-offset ranges) with targets and budgets chosen so the existence
conditions hold by construction; generation is reproducible per seed using
the stdlib Mersenne Twister (``random.Random``).
"""

from __future__ import annotations

import enum
import json
import math
import random
import sys
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache, partial
from pathlib import Path

from .beliefs import BeliefReport, bbr_rewards, belief_reports, score_reports
from .costfn import CostFunction
from .equilibrium import check_conditions, construct_profile, contribution_bound
from .mechanisms import Action
from .model import (
    AgentProfile,
    BeliefSide,
    CampaignConfig,
    Market,
    Mechanism,
    aggregate_valuations,
    own_market,
    plain_sum,
)

SCENARIO_VERSION = 1
MAX_AGENT_COUNT = 100_000  # gen's largest template: a bound on what it allocates


class ScenarioError(ValueError):
    """Malformed scenario file or violated invariant."""


@dataclass(frozen=True)
class AnalysisFlags:
    certify: bool = False  # Nash, or subgame-perfect if the mechanism is sequential


@dataclass
class Scenario:
    config: CampaignConfig
    agents: list[AgentProfile]
    explicit_actions: list[Action] | None = None
    explicit_reports: list[BeliefReport] | None = None
    analysis: AnalysisFlags = field(default_factory=AnalysisFlags)
    seed: int = 0


def _name(root: str, *path) -> str:
    """The name of the field at ``path`` below ``root`` (an index as
    ``[i]``, a field as ``.name``): ``scenario.agents[3].id``. Each reader
    gets field ``key`` of the record at path ``at``, returns a value of the
    exact type at once, and formats the field's name only to raise."""
    return root + "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)


def _enum_value(enum_cls, raw, at: tuple, key):
    """The member of ``enum_cls`` whose value is the JSON string ``raw``."""
    if type(raw) is str and raw in enum_cls._value2member_map_:
        return enum_cls._value2member_map_[raw]
    valid = ", ".join(e.value for e in enum_cls)
    raise ScenarioError(f"{_name(*at, key)}: '{raw}' is not one of: {valid}")


_FLOAT_MAX = sys.float_info.max


def _number(raw, at: tuple, key) -> float:
    """A numeric field as a float: a JSON number, not a boolean, a string,
    NaN or an infinity; -0.0 reads as 0.0 (``+ 0.0`` moves no other float)."""
    if type(raw) is float and -_FLOAT_MAX <= raw <= _FLOAT_MAX:  # NaN fails
        return raw + 0.0
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"{_name(*at, key)}: expected a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{_name(*at, key)}: must be finite")
    return value


def _integer(raw, at: tuple, key) -> int:
    """An integer field (ids, ticks, the seed): a JSON number without a
    fractional part, not a boolean, a string, NaN or an infinity."""
    if type(raw) is int:
        return raw
    if isinstance(raw, float) and not math.isfinite(raw):
        raise ScenarioError(f"{_name(*at, key)}: must be finite")
    if isinstance(raw, bool) or not (
            isinstance(raw, int) or isinstance(raw, float) and raw.is_integer()):
        raise ScenarioError(f"{_name(*at, key)}: expected an integer, got {raw!r}")
    return int(raw)


def _flag(raw, at: tuple, key) -> bool:
    """An analysis switch: JSON true or false, nothing else."""
    if not isinstance(raw, bool):
        raise ScenarioError(f"{_name(*at, key)}: expected true or false, got {raw!r}")
    return raw


def _pair(raw, at: tuple, key) -> tuple[float, float]:
    """A list of exactly two numbers: a range or a pair of targets."""
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise ScenarioError(
            f"{_name(*at, key)}: expected a list of two numbers, got {raw!r}")
    return _number(raw[0], (*at, key), 0), _number(raw[1], (*at, key), 1)


def _records(cls, raw, at: tuple, key) -> list:
    """A list of ``cls`` records, entry ``i`` named ``<key>[i]``. Lists
    occur only at the top level, so ``at`` is the root alone."""
    if not isinstance(raw, list):
        raise ScenarioError(f"{_name(*at, key)}: expected a list, got {raw!r}")
    (root,) = at
    return [_record(cls, entry, root, key, i) for i, entry in enumerate(raw)]


def _reader(hint):
    """The reader of a field annotated ``hint`` (``X | None`` reads as X)."""
    if isinstance(hint, types.UnionType):
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if typing.get_origin(hint) is tuple:
        return _pair
    if typing.get_origin(hint) is list:
        return partial(_records, *typing.get_args(hint))
    if is_dataclass(hint):
        return lambda raw, at, key: _record(hint, raw, *at, key)
    if issubclass(hint, enum.Enum):
        return partial(_enum_value, hint)
    return {int: _integer, float: _number, bool: _flag}[hint]


def _or_default(default, read, raw, at: tuple, key):
    """``raw`` read by ``read``, or ``default`` when ``raw`` is null."""
    return default if raw is None else read(raw, at, key)


@cache
def _fields(cls) -> tuple[frozenset[str], tuple]:
    """The field names of dataclass ``cls``, and (name, default, reader)
    per field; a field without a default (MISSING) is required. A field
    with a default factory (an immutable record) takes one value the
    factory builds, when absent or null."""
    hints = typing.get_type_hints(cls)
    entries = []
    for f in fields(cls):
        default, read = f.default, _reader(hints[f.name])
        if f.default_factory is not MISSING:
            default = f.default_factory()
            read = partial(_or_default, default, read)
        entries.append((f.name, default, read))
    return frozenset(name for name, _, _ in entries), tuple(entries)


def _record(cls, raw, *at):
    """Dataclass ``cls`` built from the JSON object ``raw``, the record at
    path ``at``. A missing field takes its default, null is absent for a
    field whose default is None, and a key that is not a field is refused;
    every error names the field."""
    names, entries = _fields(cls)
    if not isinstance(raw, dict):
        raise ScenarioError(f"{_name(*at)}: expected an object, got {raw!r}")
    if not names.issuperset(raw):
        key = next(key for key in raw if key not in names)
        raise ScenarioError(f"{_name(*at)}.{key}: unknown field")
    values = []
    for name, default, read in entries:
        value = raw.get(name, default)
        if value is not default:  # the default itself is taken as it is
            value = read(value, at, name)
        elif value is MISSING:
            raise ScenarioError(f"{_name(*at)}: missing required field '{name}'")
        values.append(value)
    try:
        return cls(*values)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{_name(*at)}: {exc}") from None


def parse_scenario_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario: top level must be an object")
    if "version" not in data:
        raise ScenarioError("scenario: missing required field 'version'")
    version = data["version"]
    if version != SCENARIO_VERSION or isinstance(version, bool):
        raise ScenarioError(
            f"scenario.version: expected {SCENARIO_VERSION}, got {version!r}")
    scenario = _record(Scenario, {k: v for k, v in data.items() if k != "version"},
                       "scenario")
    validate_scenario(scenario)
    return scenario


def validate_scenario(scenario: Scenario) -> None:
    """Cross-field invariants the dataclass validators cannot see alone."""
    config, agents = scenario.config, scenario.agents
    if not agents:
        raise ScenarioError("scenario.agents: expected a nonempty list")
    known = {a.id for a in agents}
    if len(known) != len(agents):
        raise ScenarioError("scenario.agents: agent ids must be unique")
    mech = config.mechanism
    if mech.two_phase and len(agents) < 3:
        raise ScenarioError(
            f"scenario.agents: {mech.value} belief scoring requires at least "
            f"3 agents, got {len(agents)}")
    for a in agents:  # each context is formatted only to raise
        if a.arrival_contribution > config.deadline_contribution:
            raise ScenarioError(
                f"scenario.agents[id={a.id}].arrival_contribution: {a.arrival_contribution} "
                f"is past the contribution deadline {config.deadline_contribution}")
        if mech.two_phase and a.arrival_belief > config.deadline_belief:  # type: ignore[operator]
            raise ScenarioError(
                f"scenario.agents[id={a.id}].arrival_belief: {a.arrival_belief} is past "
                f"the belief deadline {config.deadline_belief}")
        if mech.dual_market and a.belief_epsilon != 0.0:
            raise ScenarioError(
                f"scenario.agents[id={a.id}].belief_epsilon: {mech.value} models "
                "symmetric beliefs; the offset must be 0")
        if not mech.dual_market and a.valuation < 0:
            raise ScenarioError(
                f"scenario.agents[id={a.id}].valuation: {mech.value} admits "
                "nonnegative valuations only")
    for i, action in enumerate(scenario.explicit_actions or []):
        context = f"scenario.explicit_actions[{i}]"
        if action.agent_id not in known:
            raise ScenarioError(f"{context}.agent_id: unknown agent {action.agent_id}")
        if action.amount < 0:
            raise ScenarioError(f"{context}.amount: must be nonnegative")
        if action.tick < 0:
            raise ScenarioError(f"{context}.tick: must be nonnegative, got {action.tick}")
        if action.tick > config.deadline_contribution:
            raise ScenarioError(
                f"{context}.tick: {action.tick} is past the contribution "
                f"deadline {config.deadline_contribution}")
        if not mech.dual_market and action.market is Market.AGAINST:
            raise ScenarioError(
                f"{context}.market: {mech.value} has no rejection market")
    if scenario.explicit_reports is not None:
        if not mech.two_phase:
            raise ScenarioError(
                f"scenario.explicit_reports: {mech.value} has no belief phase")
        if len(scenario.explicit_reports) < 3:
            raise ScenarioError(
                "scenario.explicit_reports: belief scoring requires at least 3 "
                f"reports, got {len(scenario.explicit_reports)}")
        reported: set[int] = set()
        for i, rep in enumerate(scenario.explicit_reports):
            context = f"scenario.explicit_reports[{i}]"
            if rep.agent_id not in known:
                raise ScenarioError(f"{context}.agent_id: unknown agent {rep.agent_id}")
            if rep.agent_id in reported:
                raise ScenarioError(
                    f"{context}.agent_id: duplicate report for agent {rep.agent_id}")
            reported.add(rep.agent_id)
            if rep.tick > config.deadline_belief:  # type: ignore[operator]
                raise ScenarioError(
                    f"{context}.tick: {rep.tick} is past the belief deadline "
                    f"{config.deadline_belief}")


def read_json(path: str | Path):
    """The JSON document in the file ``path``; an unreadable file, bytes
    that are not UTF-8, malformed JSON or JSON nested too deeply to decode
    is a ScenarioError that names the file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise ScenarioError(f"{path}: not valid JSON (nested too deeply)") from None


def parse_scenario(path: str | Path) -> Scenario:
    return parse_scenario_dict(read_json(path))


def _plain(value):
    """``value`` as JSON data: dataclasses as objects without their unset
    (None) fields, enums by value, tuples as lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)
                if getattr(value, f.name) is not None}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    return {"version": SCENARIO_VERSION, **_plain(scenario)}


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioTemplate:
    """Declarative recipe for random scenarios with valid-by-construction
    targets; explicit target overrides bypass the auto-sizing and fail fast
    when they cannot satisfy the existence conditions."""

    mechanism: Mechanism
    agent_count: int
    valuation_range: tuple[float, float] = (5.0, 20.0)
    epsilon_range: tuple[float, float] = (0.0, 0.25)
    negative_share: float = 0.4
    rejection_share: float = 0.4
    fill_fraction: float = 0.45
    provision_point: float | None = None
    provision_point_pair: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        mech = self.mechanism
        # each market needs an agent, and belief scoring three reports
        least = 3 if mech.two_phase else 2 if mech.dual_market else 1
        if self.agent_count < least:
            raise ScenarioError(
                f"template.agent_count: {mech.value} needs {least} or more agents")
        if self.agent_count > MAX_AGENT_COUNT:
            raise ScenarioError(f"template.agent_count: at most {MAX_AGENT_COUNT} agents")
        for name, value in (("provision_point", self.provision_point),
                            ("provision_point_pair", self.provision_point_pair)):
            if value is None:
                continue
            if (name == "provision_point_pair") != mech.dual_market:
                raise ScenarioError(f"template.{name}: {mech.value} does not use this field")
            if min(value if mech.dual_market else (value,)) <= 0:
                raise ScenarioError(f"template.{name}: targets must be positive")
        low, high = self.valuation_range
        if not 0 < low <= high:
            raise ScenarioError("template.valuation_range: need 0 < low <= high")
        if not 0.0 < self.fill_fraction <= 0.9:
            raise ScenarioError("template.fill_fraction: must lie in (0, 0.9]")
        for name in ("negative_share", "rejection_share"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ScenarioError(f"template.{name}: must lie in [0, 1]")
        low, high = self.epsilon_range
        if not 0.0 <= low <= high <= 0.5:
            raise ScenarioError("template.epsilon_range: need 0 <= low <= high <= 0.5")


def template_from_dict(data: dict) -> ScenarioTemplate:
    """Parse a ``gen`` template with the scenario parser's type rules,
    naming ``template.<field>`` in any error; a missing optional field takes
    ``ScenarioTemplate``'s default."""
    return _record(ScenarioTemplate, data, "template")


def _draw_agents(template: ScenarioTemplate, rng: random.Random) -> list[AgentProfile]:
    mech = template.mechanism
    n = template.agent_count
    low, high = template.valuation_range
    agents = []
    for i in range(n):
        magnitude = rng.uniform(low, high)
        negative = mech.dual_market and rng.random() < template.negative_share
        if mech.dual_market and i == 0:
            negative = False  # guarantee each side is inhabited
        if mech.dual_market and i == 1 and n > 1:
            negative = True
        eps_low, eps_high = template.epsilon_range
        epsilon = rng.uniform(eps_low, eps_high) if mech.two_phase else 0.0
        side = BeliefSide.PROVISION_LIKELY
        if mech.two_phase and rng.random() < template.rejection_share:
            side = BeliefSide.REJECTION_LIKELY
        agents.append(AgentProfile(
            id=i,
            valuation=-magnitude if negative else magnitude,
            belief_epsilon=epsilon,
            belief_side=side,
            arrival_belief=rng.randrange(n),
            arrival_contribution=rng.randrange(n),
        ))
    return agents


def generate_scenario(template: ScenarioTemplate, seed: int) -> Scenario:
    """Draw a scenario from the template, shrinking targets until the
    existence conditions hold and the equilibrium profile is feasible.

    Should that fail for PPRx, a second round halves the contribution
    budget instead, at the template's fill: every PPRx bound divides by
    q * budget + p * target, so a smaller budget raises the bounds, where a
    smaller fill can leave them as far short of the target. A template the
    first round sizes never reaches the second."""
    rng = random.Random(seed)
    agents = _draw_agents(template, rng)
    explicit_targets = (template.provision_point is not None
                        or template.provision_point_pair is not None)
    fill = template.fill_fraction
    budget_scale = 1.0
    for _ in range(10):
        scenario, last_error, headroom_short = _sized(template, agents, seed, fill,
                                                      budget_scale)
        if scenario is not None:
            return scenario
        if explicit_targets:
            break
        if headroom_short:
            budget_scale *= 0.5  # a smaller side budget restores headroom
        else:
            fill *= 0.7
    if template.mechanism is Mechanism.PPRX and not explicit_targets:
        budget_scale = 1.0
        for _ in range(10):
            budget_scale *= 0.5
            scenario, _, _ = _sized(template, agents, seed, template.fill_fraction,
                                    budget_scale)
            if scenario is not None:
                return scenario
    raise ScenarioError(f"template infeasible: {last_error}")


def _sized(template: ScenarioTemplate, agents: list[AgentProfile], seed: int,
           fill: float, budget_scale: float) -> tuple[Scenario | None, str, bool]:
    """The scenario sized at ``fill`` and ``budget_scale`` when its
    conditions hold and its profile is feasible with headroom; otherwise
    None, the reason, and whether only the headroom fell short."""
    config, rewards = _size_config(template, agents, fill, budget_scale)
    scenario = Scenario(
        config=config, agents=agents, seed=seed,
        analysis=AnalysisFlags(certify=True),
    )
    validate_scenario(scenario)
    failed = [c.name for c in check_conditions(config, agents) if not c.satisfied]
    if failed:
        return None, f"conditions violated: {', '.join(failed)}", False
    profile = construct_profile(config, agents, rewards)
    if profile.feasible and _headroom_ok(config, agents, profile):
        return scenario, "", False
    if profile.feasible:
        return None, "insufficient bound headroom over the target", True
    return None, f"profile infeasible: {profile.reason}", False


def _headroom_ok(config: CampaignConfig, agents: list[AgentProfile],
                 profile) -> bool:
    """Scaled refund-bonus contributions must sit clear of the point where
    walking away beats the filled pot, which needs the bounds to cover the
    target plus the contribution budget."""
    if config.contribution_budget is None:
        return True
    total = plain_sum(
        contribution_bound(config, a,
                           belief_reward=profile.belief_rewards.get(a.id, 0.0))
        for a in agents)
    return total >= config.provision_point + config.contribution_budget  # type: ignore[operator]


def _size_config(template: ScenarioTemplate, agents: list[AgentProfile], fill: float,
                 budget_scale: float = 1.0) -> tuple[CampaignConfig, dict[int, float]]:
    """Targets at ``fill`` of each market's capacity unless the template
    sets them, and the belief split of truthful reports the bounds price
    (empty for one-phase mechanisms). Capacity is the side's valuations for
    PPR and PPRN, else its bounds at zero issuance under a probe target of
    the net valuation. The securities family's liquidity scales with total
    valuations, keeping issuance slopes moderate so arrival-order bounds
    retain headroom."""
    mech = template.mechanism
    n = len(agents)
    net, total_for, total_against = aggregate_valuations(agents)
    deadline = n
    extra: dict = {}  # the fields only some mechanisms use
    rewards: dict[int, float] = {}
    if mech.two_phase:  # budgets scale with the aggregate valuation
        extra["belief_budget"] = 0.3 * net
        rewards = bbr_rewards(score_reports(belief_reports(agents)), extra["belief_budget"])
        extra["deadline_belief"] = max(n - 1, max(a.arrival_belief for a in agents))
        deadline = max(deadline, extra["deadline_belief"] + 1)
    if mech.uses_securities:
        extra["cost_params"] = CostFunction(liquidity=max(1.0, total_for + total_against))
    if mech is Mechanism.PPRX:
        extra["contribution_budget"] = 0.15 * net * budget_scale

    def config(targets: tuple[float, ...]) -> CampaignConfig:
        return CampaignConfig(mechanism=mech, deadline_contribution=deadline, **extra,
                              **({"provision_point_pair": targets} if mech.dual_market
                                 else {"provision_point": targets[0]}))

    capacity = {Market.FOR: total_for, Market.AGAINST: total_against}
    if mech.uses_securities or mech.two_phase:
        probe = config((max(net, 1.0),) * 2)
        capacity = {m: plain_sum(contribution_bound(probe, a, belief_reward=rewards.get(a.id, 0.0))
                                 for a in agents if own_market(probe, a) is m)
                    for m in mech.markets}
    explicit = template.provision_point_pair or (
        None if template.provision_point is None else (template.provision_point,))
    targets = explicit or tuple(fill * capacity[m] for m in mech.markets)
    if explicit is None and "contribution_budget" in extra:
        # keep the bounds' headroom over the target where it can be kept
        headroom = min(targets[0], capacity[Market.FOR] - 1.2 * extra["contribution_budget"])
        targets = (headroom,) if headroom > 0 else targets
    if min(targets) <= 0:  # only reward-adjusted bounds can sum to zero
        raise ScenarioError("template infeasible: reward-adjusted bounds sum to zero")
    if mech is Mechanism.PPR:
        extra["refund_budget"] = 0.5 * max(total_for - targets[0], 1e-6)
    elif mech is Mechanism.PPRN:
        cap = plain_sum(targets) * min((capacity[m] - h) / h
                                 for m, h in zip(mech.markets, targets))
        extra["refund_budget"] = max(0.4 * cap, 1e-9)
    return config(targets), rewards
