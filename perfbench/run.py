"""Benchmark entry point.

    python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Writes the workload's inputs from the seed
(in a child process, outside every metric), measures set-up as fresh
interpreter imports of ``provpoint.cli``, then runs the workload through
``provpoint.cli.main`` in this process: as many whole passes as take about S
seconds at the workload's nominal pass time. Prints each
metric as ``name value unit`` and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones and writes every span
to ``perfbench/out/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

from perfbench.bench import Bench, timed_run, traced_run, wall_metrics
from perfbench.program import ProgramMissing, load_program
from perfbench.reference import REF_NOMINAL_S
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, read_manifest

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 11
# Times three reference samples, then the import; prints both.
IMPORT_PROBE = ("import time; from perfbench.reference import reference_sample as r; "
                "ref = sorted(r() for _ in range(3))[1]; "
                "t = time.perf_counter(); import provpoint.cli; "
                "print(time.perf_counter() - t, ref)")


def measure_setup(root: Path) -> float:
    """Median reference seconds a fresh interpreter spends importing
    provpoint.cli, after one unrecorded import that writes the bytecode
    cache (under ``perfbench/out/pycache``, whatever the caller's
    environment says about bytecode). Each import is scaled by the
    reference samples its own interpreter took just before it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))),
               PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        wall, ref = map(float, done.stdout.split())
        times.append(wall * REF_NOMINAL_S / ref)
    return statistics.median(times[1:])


def passes_for(workload: str, seconds: float) -> int:
    """Whole passes in a run of about ``seconds``, at least two so that
    every op repeats. Fixed by the arguments, never by the clock, so a seed
    always attempts the same ops."""
    return max(2, round(seconds / WORKLOADS[workload].pass_s))


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the workload's inputs in a child process, so generation adds
    nothing to this process's time or peak memory."""
    subprocess.run([sys.executable, "-m", "perfbench.workloads",
                    "--workload", workload, "--seed", str(seed),
                    "--out", str(out)], cwd=ROOT, check=True, timeout=120)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        program = load_program(ROOT)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        generate(args.workload, args.seed, work / "inputs")
        ops = read_manifest(work / "inputs")
        bench = Bench(program, work / "outputs")
        passes = passes_for(args.workload, args.seconds)
        if args.trace:
            tracer = Tracer()
            metrics = traced_run(bench, ops, max(1, passes - 1), tracer)
            tracer.write(OUT / f"spans-{args.workload}.csv")
        else:
            metrics = timed_run(bench, ops, passes, measure_setup(ROOT))
            for name, value in wall_metrics(bench, ops).items():
                print(f"{'wall.' + name:40s} {value:>16.6g}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for (key, reason), count in Counter(
            (op.key, reason) for op, reason in bench.failures).items():
        print(f"failed {count}x: {key}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
