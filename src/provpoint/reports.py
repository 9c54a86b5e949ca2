"""Report emission: settlement tables, ledger export, certification JSON.

Everything here is deterministic for a fixed input: keys are sorted, floats
use their shortest round-trip representation, and no timestamps or host
details are embedded, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from operator import itemgetter

from .equilibrium import EquilibriumReport
from .mechanisms import DualMarketState
from .model import AgentProfile, CampaignConfig, Outcome

SETTLEMENT_COLUMNS = ["id", "side", "x", "securities", "refund",
                      "belief_reward", "realized_utility"]
LEDGER_COLUMNS = ["tick", "agent", "market", "amount", "securities",
                  "Q_at_allocation"]


def settlement_rows(agents: list[AgentProfile], outcome: Outcome,
                    sides: dict[int, str],
                    securities: dict[int, float]) -> list[dict]:
    rows = []
    for agent in sorted(agents, key=lambda a: a.id):
        payout = outcome.payouts[agent.id]
        rows.append({
            "id": agent.id,
            "side": sides[agent.id],
            "x": payout.contribution,
            "securities": securities.get(agent.id, 0.0),
            "refund": payout.refund,
            "belief_reward": payout.belief_reward,
            "realized_utility": payout.realized,
        })
    return rows


def _csv_text(columns: list[str], rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*(map(itemgetter(c), rows) for c in columns)))
    return buffer.getvalue()


def settlement_csv(rows: list[dict]) -> str:
    return _csv_text(SETTLEMENT_COLUMNS, rows)


# a flat row's fields one per line, at the indent of a row inside an
# indent=2 list; no indent is set, so the C encoder does the work
_encode_row = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": ")).encode


def settlement_json(rows: list[dict]) -> str:
    """The bytes of ``json.dumps(rows, indent=2, sort_keys=True) + "\\n"``
    for rows of scalars, one C-encoder call per row."""
    if not rows:
        return "[]\n"
    return "[\n" + ",\n".join(
        "  {\n    " + _encode_row(row)[1:-1] + "\n  }" if row else "  {}"
        for row in rows) + "\n]\n"


def ledger_rows(dual: DualMarketState) -> list[dict]:
    records = dual.market_for.ledger + dual.market_against.ledger
    records.sort(key=lambda r: (r.tick, r.agent_id))
    return [{
        "tick": r.tick,
        "agent": r.agent_id,
        "market": r.market.value,
        "amount": r.amount,
        "securities": r.securities,
        "Q_at_allocation": r.q_at_allocation,
    } for r in records]


def ledger_csv(dual: DualMarketState) -> str:
    return _csv_text(LEDGER_COLUMNS, ledger_rows(dual))


_encode = json.JSONEncoder(sort_keys=True).encode  # the C encoder: no indent


def certification_json(report: EquilibriumReport) -> str:
    """The report with sorted keys, one line per field, and one line per
    element of a list field (agent row, condition, deviation, note)."""
    lines = []
    for key, value in sorted(report.to_dict().items()):
        if isinstance(value, list) and value:
            text = "[\n" + ",\n".join(map(_encode, value)) + "\n]"
        else:
            text = _encode(value)
        lines.append(f"{_encode(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    line = "  ".join(f"{{:<{w}}}" for w in widths).format
    return "\n".join(line(*cells).rstrip()
                     for cells in [headers, ["-" * w for w in widths], *rows])


def conditions_table(report_conditions) -> str:
    rows = [[c.name, "yes" if c.satisfied else "NO", f"{c.lhs:.9g}", f"{c.rhs:.9g}"]
            for c in report_conditions]
    return _table(["condition", "satisfied", "lhs", "rhs"], rows)


def summary_text(config: CampaignConfig, agents: list[AgentProfile],
                 conditions, outcome: Outcome | None,
                 report: EquilibriumReport | None,
                 notes: list[str] | None = None) -> str:
    parts = [f"mechanism: {config.mechanism.value}"]
    for note in notes or []:
        parts.append(f"note: {note}")
    if config.provision_point is not None:
        parts.append(f"provision point: {config.provision_point!r}")
    if config.provision_point_pair is not None:
        h_for, h_against = config.provision_point_pair
        parts.append(f"provision point: {h_for!r}  rejection point: {h_against!r}")
    for name in ("refund_budget", "belief_budget", "contribution_budget"):
        value = getattr(config, name)
        if value is not None:
            parts.append(f"{name}: {value!r}")
    parts.append(f"agents: {len(agents)}")
    parts.append("")
    parts.append("existence conditions:")
    parts.append(conditions_table(conditions))
    if outcome is not None:
        parts.append("")
        parts.append(f"verdict: {outcome.verdict.value}")
        parts.append(f"raised for: {outcome.total_for!r}  "
                     f"against: {outcome.total_against!r}")
        rows = [[str(a.id),
                 f"{outcome.payouts[a.id].contribution:.9g}",
                 f"{outcome.payouts[a.id].refund:.9g}",
                 f"{outcome.payouts[a.id].belief_reward:.9g}",
                 f"{outcome.payouts[a.id].realized:.9g}"]
                for a in sorted(agents, key=lambda a: a.id)]
        parts.append(_table(["agent", "x", "refund", "belief_reward", "utility"],
                            rows))
    if report is not None:
        parts.append("")
        verdict = "certified" if report.certified else (
            "infeasible" if not report.feasible else "DEVIATIONS FOUND")
        parts.append(f"{report.kind} certification: {verdict}")
        parts.append(f"epsilon: {report.epsilon!r}")
        if report.indifference:
            rows = [[str(c.agent_id), f"{c.bound:.9g}"]
                    for c in sorted(report.indifference, key=lambda c: c.agent_id)]
            parts.append(_table(["agent", "contribution bound"], rows))
        for dev in report.deviations[:20]:
            parts.append(f"  deviation: agent {dev.agent_id} {dev.kind} "
                         f"{dev.detail} gain={dev.utility_gain:.6g}")
        for note in report.notes:
            parts.append(f"  note: {note}")
    parts.append("")
    return "\n".join(parts)


def misreport_gap_rows(epsilons: list[float], securities: list[float]) -> list[dict]:
    """Expected gain of truthful play vs lying, for a provision-minded agent
    holding the given securities, over a belief-offset grid."""
    from .equilibrium import combined_mechanism_gap
    from .model import BeliefSide

    rows = []
    for eps in epsilons:
        agent = AgentProfile(id=0, valuation=1.0, belief_epsilon=eps,
                             belief_side=BeliefSide.PROVISION_LIKELY)
        for quantity in securities:
            rows.append({
                "epsilon": eps,
                "securities": quantity,
                "truthful_minus_lying": combined_mechanism_gap(agent, quantity),
            })
    return rows


def misreport_gap_table(rows: list[dict]) -> str:
    body = [[f"{r['epsilon']:.2f}", f"{r['securities']:.9g}",
             f"{r['truthful_minus_lying']:.9g}"] for r in rows]
    return _table(["epsilon", "securities", "truthful_minus_lying"], body)


def misreport_gap_csv(rows: list[dict]) -> str:
    return _csv_text(["epsilon", "securities", "truthful_minus_lying"], rows)
