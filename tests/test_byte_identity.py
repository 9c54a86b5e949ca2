"""Every report byte over a fixed corpus, pinned by SHA-256.

``tests/byte_identity.json`` holds, for each corpus input and each of
``run --format csv``, ``run --format json`` and ``certify``, the exit code
and the SHA-256 of stdout and of every file written. The corpus:

* the five shipped scenarios;
* one ``gen`` scenario per mechanism at n = 6, 64 and 256 (seed 1); the
  generated input is hashed too;
* the two inputs of ROADMAP item 13: ``pprn_six_agents`` with agent 0's
  valuation at 1e308, and ``ppsn_four_arrivals`` with liquidity 1e-320;
* ``demo``, which reads no scenario: its exit code and the SHA-256 of its
  stdout and of ``demo.csv``.

The test regenerates each input's outputs and compares the hashes. A
changed hash is a change in what the program writes: a change that makes
one on purpose names each changed entry in ``CHANGES.md`` and rewrites the
manifest with

    PYTHONPATH=src python3 tests/test_byte_identity.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from provpoint.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "byte_identity.json"
SHIPPED = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))
MECHANISMS = ("PPR", "PPS", "PPRN", "PPSN", "PPRx", "PPSx")
GENERATED = {f"gen-{m}-n{n}": (m, n) for m in MECHANISMS for n in (6, 64, 256)}
# name: (shipped scenario, path of the number set, value)
EXTREME = {
    "pprn_six_agents-valuation-1e308": ("pprn_six_agents", ("agents", 0, "valuation"), 1e308),
    "ppsn_four_arrivals-liquidity-1e-320": (
        "ppsn_four_arrivals", ("config", "cost_params", "liquidity"), 1e-320),
}
CORPUS = [*SHIPPED, *GENERATED, *EXTREME, "demo"]
INVOCATIONS = {"run_csv": ["run", "--format", "csv"],
               "run_json": ["run", "--format", "json"],
               "certify": ["certify"]}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def call(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue()


def outputs(argv: list[str], out: Path) -> dict:
    """The exit code of one call writing to ``out``, and the hashes of its
    stdout and of every file it wrote."""
    code, stdout = call([*argv, "--out", str(out)])
    return {"exit": code, "stdout": sha256(stdout.encode()),
            "files": {p.name: sha256(p.read_bytes()) for p in sorted(out.iterdir())}}


def entry_for(name: str, work: Path) -> dict:
    """The manifest entry of one corpus input, built in ``work``."""
    if name == "demo":
        return {"demo": outputs(["demo"], work / "demo")}
    entry = {}
    scenario = work / "scenario.json"
    if name in SHIPPED:
        scenario = ROOT / "scenarios" / f"{name}.json"
    elif name in GENERATED:
        mechanism, agents = GENERATED[name]
        template = work / "template.json"
        template.write_text(json.dumps({"mechanism": mechanism, "agent_count": agents}))
        assert call(["gen", "--template", str(template), "--seed", "1",
                     "--out", str(scenario)])[0] == 0
        entry["input"] = sha256(scenario.read_bytes())
    else:
        shipped, leaf, value = EXTREME[name]
        document = json.loads((ROOT / "scenarios" / f"{shipped}.json").read_text())
        node = document
        for key in leaf[:-1]:
            node = node[key]
        node[leaf[-1]] = value
        scenario.write_text(json.dumps(document))
    for label, args in INVOCATIONS.items():
        entry[label] = outputs([*args, "--scenario", str(scenario)], work / label)
    return entry


def test_manifest_covers_the_corpus():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(CORPUS)
    assert len(CORPUS) == 26


@pytest.mark.parametrize("name", CORPUS)
def test_reports_keep_their_bytes(name, tmp_path):
    assert entry_for(name, tmp_path) == json.loads(MANIFEST.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as scratch:
        manifest = {}
        for name in CORPUS:
            work = Path(scratch) / name
            work.mkdir()
            manifest[name] = entry_for(name, work)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
