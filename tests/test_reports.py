"""The report writers against the standard library's own renderings.

Each per-agent table row is one ``%`` template applied to a tuple, written
for speed; each writer must still produce exactly the bytes of the
straightforward implementation over the same rows as dicts:
``json.dumps(..., indent=2, sort_keys=True)`` and ``csv.DictWriter``, and
for the text tables a per-cell ``ljust`` table (kept below as the
reference for ``_table``). The rows are drawn from what the program can
hand a writer: non-negative int ids and ticks, the ``Market`` and
``BeliefSide`` values, and any float, non-finite ones included.
"""

import csv
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from provpoint import reports
from provpoint.mechanisms import Action, DualMarketState, run_campaign
from provpoint.model import (
    BeliefSide,
    CampaignConfig,
    ContributionRecord,
    Market,
    Mechanism,
)

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, math.inf,
                  -math.inf, math.nan]
AWKWARD_TEXT = ['', '"', "'", "\\", "\n", "\r\n", "\t", ",", 'a "quoted", line\n',
                "é", " ", "\U0001f600", "\x00", "\x7f"]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                   st.floats(allow_nan=True, allow_infinity=True))
ids = st.integers(min_value=0, max_value=10**30)
sides = st.sampled_from([v.value for v in (*Market, *BeliefSide)])
settlement_rows = st.lists(
    st.tuples(ids, sides, floats, floats, floats, floats, floats), max_size=6)


def as_dicts(columns, rows):
    return [dict(zip(columns, row)) for row in rows]


@settings(max_examples=200)
@given(settlement_rows)
@example([])
@example([(0, "for", 1.5, 0.0, -0.0, 5e-324, 1e308)])
@example([(1, "against", math.inf, -math.inf, math.nan, -1e308, 0.1),
          (2, "provision_likely", *SPECIAL_FLOATS[:5]),
          (3, "rejection_likely", *SPECIAL_FLOATS[5:])])
def test_settlement_json_is_the_stdlib_rendering(rows):
    assert (reports.settlement_json(rows)
            == json.dumps(as_dicts(reports.SETTLEMENT_COLUMNS, rows),
                          indent=2, sort_keys=True) + "\n")


def _dictwriter_csv(columns, rows):
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in as_dicts(columns, rows):
        writer.writerow(row)
    return buffer.getvalue()


@settings(max_examples=200)
@given(settlement_rows)
@example([])
@example([(1, "against", math.inf, -math.inf, math.nan, -1e308, 0.1)])
def test_csv_text_matches_dictwriter(rows):
    # the settlement table, and the demo's table of three float columns
    assert (reports.settlement_csv(rows)
            == _dictwriter_csv(reports.SETTLEMENT_COLUMNS, rows))
    gaps = [row[2:5] for row in rows]
    assert (reports.misreport_gap_csv(gaps)
            == _dictwriter_csv(reports.MISREPORT_GAP_COLUMNS, gaps))


unsigned = floats.filter(lambda v: not v < 0)  # a record refuses a negative
records = st.builds(ContributionRecord, agent_id=ids, amount=unsigned,
                    tick=st.integers(min_value=0, max_value=10**6),
                    market=st.sampled_from(Market), securities=unsigned,
                    q_at_allocation=floats)


@settings(max_examples=200)
@given(st.lists(records, max_size=8))
@example([])
@example([ContributionRecord(1, math.inf, 2, Market.AGAINST, math.nan, -math.inf),
          ContributionRecord(0, 5e-324, 2, Market.FOR, -0.0, 1e308)])
def test_ledger_csv_matches_dictwriter(ledger):
    dual = DualMarketState((1.0, 1.0), ledger=ledger)
    # the reference: the provision records, then the rejection records,
    # sorted stably by (tick, agent id)
    ordered = sorted([r for r in ledger if r.market is Market.FOR]
                     + [r for r in ledger if r.market is Market.AGAINST],
                     key=lambda r: (r.tick, r.agent_id))
    rows = [(r.tick, r.agent_id, r.market.value, r.amount, r.securities,
             r.q_at_allocation) for r in ordered]
    assert reports.ledger_csv(dual) == _dictwriter_csv(reports.LEDGER_COLUMNS, rows)


def test_ledger_csv_lists_an_agents_provision_record_first():
    # one agent, one tick, the rejection play first: the provision record
    # is written first
    config = CampaignConfig(mechanism=Mechanism.PPRN, provision_point_pair=(10.0, 5.0),
                            refund_budget=5.0, deadline_contribution=10)
    _, dual = run_campaign(config, [Action(0, 1.0, Market.AGAINST, 1),
                                    Action(0, 2.0, Market.FOR, 1)])
    assert reports.ledger_csv(dual).splitlines()[1:] == [
        "1,0,for,2.0,0.0,0.0", "1,0,against,1.0,0.0,0.0"]


def _ljust_table(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


text = st.one_of(st.sampled_from(AWKWARD_TEXT), st.text(max_size=12))


@st.composite
def text_tables(draw):
    headers = draw(st.lists(text, min_size=1, max_size=6))
    row = st.tuples(*[text] * len(headers))
    return headers, draw(st.lists(row, max_size=6))


@settings(max_examples=200)
@given(text_tables())
@example((["agent", "x"], []))
@example(([""], [("",)]))
@example((["a", "b"], [("{0}", "{}"), ("trailing  ", " "), ("%s", "%%")]))
def test_table_matches_the_ljust_table(table):
    headers, rows = table
    assert reports._table(headers, rows) == _ljust_table(headers, rows)


def test_misreport_gap_rows():
    # (rejection belief - provision belief) * securities for a
    # provision-minded agent at offset eps, and 0.0, not -0.0, at no securities
    rows = reports.misreport_gap_rows([0.1, 0.0], [3.0, 0.0])
    assert [row[:2] for row in rows] == [(0.1, 3.0), (0.1, 0.0), (0.0, 3.0), (0.0, 0.0)]
    gaps = [row[2] for row in rows]
    assert gaps[0] == pytest.approx(-0.6)
    assert gaps[1:] == [0.0, 0.0, 0.0]
    assert all(math.copysign(1.0, gap) == 1.0 for gap in gaps[1:])
