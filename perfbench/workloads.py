"""Workload definitions and seeded input generation.

Every scenario file is drawn with ``provpoint.scenario.generate_scenario``
from a seed derived from the workload name and the benchmark seed, so one
seed always gives byte-identical files. The timed program sees only those
files. Run as a module to write a workload's inputs and manifest:

    python3 -m perfbench.workloads --workload ne-batch --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from perfbench.program import load_program

MANIFEST = "manifest.json"


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str                     # "certify" or "run"
    mechanisms: tuple[str, ...]
    sizes: tuple[int, ...]        # agent counts; one listed twice gets two scenarios
    variants: int = 1             # times the sizes are drawn, per mechanism
    formats: tuple[str, ...] = ("csv",)  # cycled over the scenarios
    pass_s: float = 1.0           # nominal seconds of one pass, to size a run


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="ne-batch",
        verb="certify",
        mechanisms=("PPR", "PPRN", "PPRx"),
        sizes=(3, 4, 6, 8, 12, 16, 24, 32, 48, 64),
        variants=6,
        pass_s=7.5,
    ),
    Workload(
        name="spe-scaling",
        verb="certify",
        mechanisms=("PPS", "PPSN", "PPSx"),
        # Two scenarios at n=256, so op_s.largest_n averages six ops (with
        # three it spread 0.14 over ten seeds). Six small ops below and six
        # n=256 ops above put op_s.p50 in the middle of six n=128 ops:
        # small-n op costs overlap from 0.2 to 0.9 s and reorder with the
        # seed, and a median among them spread 0.18; among three n=128
        # ops it spread up to 0.17.
        sizes=(8, 32, 128, 128, 256, 256),
        pass_s=24.0,
    ),
    Workload(
        name="simulate-run",
        verb="run",
        mechanisms=("PPR", "PPRN", "PPS", "PPSN", "PPRx", "PPSx"),
        sizes=(1600, 2000, 2400),
        formats=("csv", "json"),
        pass_s=2.5,
    ),
)}


@dataclass(frozen=True)
class Op:
    """One CLI call: ``provpoint <verb> --scenario FILE --format FMT``."""

    key: str
    verb: str
    scenario: str
    fmt: str
    mechanism: str
    agents: int

    def argv(self, out_dir: Path) -> list[str]:
        return [self.verb, "--scenario", self.scenario, "--out", str(out_dir),
                "--format", self.fmt]

    def expected_files(self) -> tuple[str, ...]:
        files = (f"settlement.{self.fmt}", "ledger.csv", "summary.txt")
        return files + ("certification.json",) if self.verb == "certify" else files


def write_inputs(workload: Workload, seed: int, out: Path) -> list[Op]:
    """Generate the workload's scenario files under ``out`` and return its
    ops in pass order; also writes the ops to ``out/manifest.json``."""
    from provpoint.model import Mechanism
    from provpoint.scenario import (
        AnalysisFlags,
        ScenarioTemplate,
        generate_scenario,
        save_scenario,
    )

    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload.name}:{seed}")
    ops: list[Op] = []
    drawn: Counter[tuple[str, int]] = Counter()
    for _ in range(workload.variants):
        for n in workload.sizes:
            for mech in workload.mechanisms:
                template = ScenarioTemplate(mechanism=Mechanism(mech), agent_count=n)
                scenario = generate_scenario(template, seed=rng.randrange(2**31))
                if workload.verb == "run":
                    scenario.analysis = AnalysisFlags()  # certify flags off
                key = f"{mech}-n{n}-v{drawn[mech, n]}"
                drawn[mech, n] += 1
                path = out / f"{key}.json"
                save_scenario(scenario, path)
                fmt = workload.formats[len(ops) % len(workload.formats)]
                ops.append(Op(key=key, verb=workload.verb, scenario=str(path),
                              fmt=fmt, mechanism=mech, agents=n))
    (out / MANIFEST).write_text(
        json.dumps([op.__dict__ for op in ops], indent=1) + "\n")
    return ops


def read_manifest(out: Path) -> list[Op]:
    return [Op(**entry) for entry in json.loads((out / MANIFEST).read_text())]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    load_program(Path(__file__).resolve().parent.parent)
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
