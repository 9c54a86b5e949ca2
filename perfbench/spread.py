"""Run-to-run spread of the end-to-end metrics.

    python3 -m perfbench.spread --workload ne-batch --seeds 1-10 [--json FILE]

Runs the benchmark untraced once per seed, one run at a time, for the
``run_seconds`` of BENCHMARK.json, and prints for every end-to-end metric
its median, quartiles and spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
With ``--json FILE`` it also writes every run and the summary there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        start = time.perf_counter()
        done = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["wall_s"] = time.perf_counter() - start
        runs.append(result)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: wall={result['wall_s']:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
        s = summary[name]
        print(f"{name:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "seeds": args.seeds,
             "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
