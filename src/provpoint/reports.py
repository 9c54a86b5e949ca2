"""Report emission: settlement tables, ledger export, certification JSON.

Everything here is deterministic for a fixed input: keys are sorted, floats
use their shortest round-trip representation, and no timestamps or host
details are embedded, so identical runs produce byte-identical files.

Each row of a per-agent table is one ``%`` format of a tuple, and the bytes
are those ``csv`` and ``json`` write for the same rows. Both write ``repr``
of an int or a finite float, which is ``%r``. ``csv`` writes ``repr`` of an
infinite or NaN float too, and ``settlement_json`` respells ``inf`` and
``nan`` as ``json`` does (``Infinity``, ``NaN``): no key or side value holds
either, and a finite float's repr holds no letter but ``e``. The text cells
are the enum values ``for``, ``against``, ``provision_likely`` and
``rejection_likely``, which neither format quotes or escapes.
"""

from __future__ import annotations

import json
from operator import attrgetter, itemgetter

from .equilibrium import EquilibriumReport
from .mechanisms import DualMarketState
from .model import AgentProfile, CampaignConfig, Market, Outcome

SETTLEMENT_COLUMNS = ["id", "side", "x", "securities", "refund",
                      "belief_reward", "realized_utility"]
LEDGER_COLUMNS = ["tick", "agent", "market", "amount", "securities",
                  "Q_at_allocation"]
MISREPORT_GAP_COLUMNS = ["epsilon", "securities", "truthful_minus_lying"]
_AGAINST = Market.AGAINST


def settlement_rows(agents: list[AgentProfile], outcome: Outcome) -> list[tuple]:
    """Each agent's payout as one tuple, by id, in ``SETTLEMENT_COLUMNS`` order."""
    rows = []
    for agent in sorted(agents, key=attrgetter("id")):
        payout = outcome.payouts[agent.id]
        rows.append((agent.id, payout.side.value, payout.contribution, payout.securities,
                     payout.refund, payout.belief_reward, payout.realized))
    return rows


def _csv_text(columns: list[str], row: str, rows: list[tuple]) -> str:
    return ",".join(columns) + "\n" + "".join(map(row.__mod__, rows))


def settlement_csv(rows: list[tuple]) -> str:
    return _csv_text(SETTLEMENT_COLUMNS, "%r,%s,%r,%r,%r,%r,%r\n", rows)


# a settlement row's fields in sorted-key order, and the template of one
# object of json.dumps(rows, indent=2, sort_keys=True)
_KEYS = sorted(SETTLEMENT_COLUMNS)
_by_key = itemgetter(*map(SETTLEMENT_COLUMNS.index, _KEYS))
_JSON_ROW = "  {\n" + ",\n".join(
    f'    "{key}": ' + ('"%s"' if key == "side" else "%r") for key in _KEYS) + "\n  }"


def settlement_json(rows: list[tuple]) -> str:
    """The bytes of ``json.dumps(rows, indent=2, sort_keys=True) + "\\n"``
    for the rows as dicts keyed by ``SETTLEMENT_COLUMNS``."""
    if not rows:
        return "[]\n"
    text = "[\n" + ",\n".join(map(_JSON_ROW.__mod__, map(_by_key, rows))) + "\n]\n"
    return text.replace("inf", "Infinity").replace("nan", "NaN")


def ledger_csv(dual: DualMarketState) -> str:
    """The ledger by (tick, agent id), an agent's provision record first."""
    records = sorted(dual.ledger, key=lambda r: (r.tick, r.agent_id, r.market is _AGAINST))
    return _csv_text(LEDGER_COLUMNS, "%r,%r,%s,%r,%r,%r\n", [
        (r.tick, r.agent_id, r.market.value, r.amount, r.securities, r.q_at_allocation)
        for r in records])


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


def more_deviations(report: EquilibriumReport, shown: int) -> list[str]:
    """The line closing a deviation list cut after ``shown`` entries, which
    counts the rest (``certification.json`` lists them all); none when the
    list is whole."""
    total = len(report.deviations)
    return ([f"  ... {total - shown} more deviations (certification.json lists all {total})"]
            if total > shown else [])


def _table(headers: list[str], rows: list[tuple[str, ...]]) -> str:
    """Left-aligned columns two spaces apart: one template pads a row's
    cells, and trailing spaces are stripped."""
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    line = "  ".join(f"%-{w}s" for w in widths).__mod__
    return "\n".join([line(cells).rstrip() for cells in
                      [tuple(headers), tuple("-" * w for w in widths), *rows]])


def conditions_table(report_conditions) -> str:
    rows = [(c.name, "yes" if c.satisfied else "NO", f"{c.lhs:.9g}", f"{c.rhs:.9g}")
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
        rows = []
        for agent in sorted(agents, key=attrgetter("id")):
            payout = outcome.payouts[agent.id]
            rows.append((str(agent.id), f"{payout.contribution:.9g}",
                         f"{payout.refund:.9g}", f"{payout.belief_reward:.9g}",
                         f"{payout.realized:.9g}"))
        parts.append(_table(["agent", "x", "refund", "belief_reward", "utility"],
                            rows))
    if report is not None:
        parts.append("")
        verdict = "certified" if report.certified else (
            "infeasible" if not report.feasible else "DEVIATIONS FOUND")
        parts.append(f"{report.kind} certification: {verdict}")
        parts.append(f"epsilon: {report.epsilon!r}")
        if report.indifference:
            rows = [(str(c.agent_id), f"{c.bound:.9g}")
                    for c in sorted(report.indifference, key=attrgetter("agent_id"))]
            parts.append(_table(["agent", "contribution bound"], rows))
        for dev in report.deviations[:20]:
            parts.append(f"  deviation: agent {dev.agent_id} {dev.kind} "
                         f"{dev.detail} gain={dev.utility_gain:.6g}")
        parts.extend(more_deviations(report, 20))
        for note in report.notes:
            parts.append(f"  note: {note}")
    parts.append("")
    return "\n".join(parts)


def misreport_gap_rows(epsilons: list[float], securities: list[float]) -> list[tuple]:
    """Expected gain of truthful play vs lying, for a provision-minded agent
    holding the given securities, over a belief-offset grid: one tuple per
    point in ``MISREPORT_GAP_COLUMNS`` order.

    When a dual-market securities run naively adds belief rewards, the gain
    is (rejection belief - provision belief) * securities, with provision
    belief 0.5 + eps: nonpositive, so a provision-minded agent holding
    securities prefers the lying side whenever its beliefs are asymmetric.
    """
    rows = []
    for eps in epsilons:
        for quantity in securities:
            # + 0.0 turns the -0.0 of a zero quantity into 0.0
            rows.append((eps, quantity, (1.0 - 2.0 * (0.5 + eps)) * quantity + 0.0))
    return rows


def misreport_gap_table(rows: list[tuple]) -> str:
    return _table(MISREPORT_GAP_COLUMNS, [
        (f"{eps:.2f}", f"{quantity:.9g}", f"{gap:.9g}") for eps, quantity, gap in rows])


def misreport_gap_csv(rows: list[tuple]) -> str:
    return _csv_text(MISREPORT_GAP_COLUMNS, "%r,%r,%r\n", rows)
