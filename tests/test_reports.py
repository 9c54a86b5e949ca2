"""The report writers against the standard library's own renderings.

``settlement_json``, ``_csv_text`` and ``_table`` are written for speed; each
must still produce exactly the bytes of the straightforward implementation:
``json.dumps(..., indent=2, sort_keys=True)``, ``csv.DictWriter``, and a
per-cell ``ljust`` table (kept below as the reference).
"""

import csv
import io
import json
import math

from hypothesis import example, given, settings, strategies as st

from provpoint import reports

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, math.inf,
                  -math.inf, math.nan]
AWKWARD_TEXT = ['', '"', "'", "\\", "\n", "\r\n", "\t", ",", 'a "quoted", line\n',
                "é", " ", "\U0001f600", "\x00", "\x7f"]

text = st.one_of(st.sampled_from(AWKWARD_TEXT), st.text(max_size=12))
scalars = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**30, max_value=10**30),
    st.booleans(),
    st.none(),
    text,
)
flat_rows = st.lists(st.dictionaries(text, scalars, max_size=8), max_size=6)


@settings(max_examples=200)
@given(flat_rows)
@example([])
@example([{}])
@example([{}, {"x": 1.0}, {}])
@example([{"x": v} for v in SPECIAL_FLOATS])
@example([{s: s for s in AWKWARD_TEXT}])
@example([{"id": 0, "side": "for", "x": 1.5, "securities": 0.0, "refund": -0.0,
           "belief_reward": 5e-324, "realized_utility": 1e308}])
def test_settlement_json_is_the_stdlib_rendering(rows):
    assert (reports.settlement_json(rows)
            == json.dumps(rows, indent=2, sort_keys=True) + "\n")


def _dictwriter_csv(columns, rows):
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


@st.composite
def csv_tables(draw):
    columns = draw(st.lists(text, min_size=1, max_size=7, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({c: scalars for c in columns}),
                         max_size=6))
    return columns, rows


@settings(max_examples=200)
@given(csv_tables())
@example((reports.SETTLEMENT_COLUMNS, []))
@example((["only"], [{"only": 1.0}, {"only": "a,b"}]))
def test_csv_text_matches_dictwriter(table):
    columns, rows = table
    assert reports._csv_text(columns, rows) == _dictwriter_csv(columns, rows)


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


@st.composite
def text_tables(draw):
    headers = draw(st.lists(text, min_size=1, max_size=6))
    row = st.lists(text, min_size=len(headers), max_size=len(headers))
    return headers, draw(st.lists(row, max_size=6))


@settings(max_examples=200)
@given(text_tables())
@example((["agent", "x"], []))
@example(([""], [[""]]))
@example((["a", "b"], [["{0}", "{}"], ["trailing  ", " "]]))
def test_table_matches_the_ljust_table(table):
    headers, rows = table
    assert reports._table(headers, rows) == _ljust_table(headers, rows)
