"""Byte-for-byte reports of the shipped scenarios.

``tests/golden/<verb>/<scenario>/`` holds every file ``provpoint <verb>``
writes for ``scenarios/<scenario>.json``. A changed byte here is a change
in what the program reports and must be documented as such; refresh the
files only for a deliberate fix.
"""

from pathlib import Path

import pytest

from provpoint.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))


@pytest.mark.parametrize("verb", ["run", "certify"])
@pytest.mark.parametrize("name", SCENARIOS)
def test_reports_match_golden(verb, name, tmp_path, capsys):
    main([verb, "--scenario", str(ROOT / "scenarios" / f"{name}.json"),
          "--out", str(tmp_path)])
    capsys.readouterr()
    expected_dir = GOLDEN / verb / name
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in expected_dir.iterdir())
    for file_name in written:
        assert ((tmp_path / file_name).read_bytes()
                == (expected_dir / file_name).read_bytes()), file_name


def test_golden_covers_every_shipped_scenario():
    assert len(SCENARIOS) == 5
    files = [p for p in GOLDEN.rglob("*") if p.is_file()]
    assert len(files) == 39
