"""Tests of the benchmark itself: input generation, the correctness gate,
the tracer's wrapping, and the repeatability of its counts."""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
from pathlib import Path

from perfbench.bench import Bench, timed_run, traced_run
from perfbench.program import load_program
from perfbench.run import passes_for
from perfbench.tracing import SITES, Tracer, owner_of
from perfbench.workloads import WORKLOADS, Op, Workload, write_inputs

ROOT = Path(__file__).resolve().parent.parent
CLI = load_program(ROOT)
# Small enough to trace twice in a few seconds; PPS calls the cost function.
TINY = Workload(name="tiny", verb="certify",
                mechanisms=("PPR", "PPRN", "PPS"), sizes=(3, 4))


def scenario_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))
            if p.name != "manifest.json"}


def test_generation_is_deterministic_per_seed(tmp_path):
    for workload in (WORKLOADS["ne-batch"], WORKLOADS["spe-scaling"]):
        first = write_inputs(workload, 7, tmp_path / workload.name / "a")
        again = write_inputs(workload, 7, tmp_path / workload.name / "b")
        other = write_inputs(workload, 8, tmp_path / workload.name / "c")
        a, b, c = (scenario_bytes(tmp_path / workload.name / d) for d in "abc")
        assert len(a) == len(first) == len(workload.mechanisms) * len(
            workload.sizes) * workload.variants
        assert a == b
        assert [op.key for op in first] == [op.key for op in again]
        assert a.keys() == c.keys()
        assert all(a[name] != c[name] for name in a)
        assert [op.agents for op in other] == [op.agents for op in first]


def test_malformed_scenario_is_a_failed_op(tmp_path):
    good = write_inputs(TINY, 1, tmp_path / "inputs")[0]
    bad_file = tmp_path / "bad.json"
    bad_file.write_text('{"version": 1, "config": ')
    bad = Op(key="bad", verb="certify", scenario=str(bad_file), fmt="csv",
             mechanism="PPR", agents=3)
    bench = Bench(CLI, tmp_path / "outputs")
    metrics = timed_run(bench, [good, bad], passes=2, setup_s=0.1)
    assert bench.attempted == 4
    assert [(op.key, reason) for op, reason in bench.failures] == [
        ("bad", "exit status 1")] * 2
    assert metrics["pass_ratio"][0] == 0.5
    assert not bench.correct


def test_verdict_mismatch_fails_the_op_but_not_the_run(tmp_path):
    ops = write_inputs(TINY, 1, tmp_path / "inputs")
    bench = Bench(CLI, tmp_path / "outputs")
    bench.run_pass(ops)
    assert bench.correct
    assert all(reason.startswith("verdict mismatch") for _, reason in bench.failures)
    assert {op.mechanism for op, _ in bench.failures} <= {"PPRN"}


def test_sampler_scales_every_op_and_restores_the_alarm(tmp_path):
    ops = write_inputs(TINY, 1, tmp_path / "inputs")
    before = signal.getsignal(signal.SIGALRM)
    bench = Bench(CLI, tmp_path / "outputs")
    bench.run_pass(ops)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(bench.sampler.refs) >= 2
    times = bench.times()
    assert [op.key for op, _, _ in times] == [op.key for op in ops]
    assert all(wall > 0 and ref > 0 for _, wall, ref in times)


def test_pass_count_depends_on_the_arguments_only():
    assert passes_for("spe-scaling", 1) == 2
    assert passes_for("ne-batch", 30) == passes_for("ne-batch", 30) >= 2


def site_values() -> dict[tuple[str, str], object]:
    return {(spec, attr): owner_of(spec).__dict__[attr] for _, spec, attr, _ in SITES}


def test_tracer_restores_every_original(tmp_path):
    ops = write_inputs(TINY, 1, tmp_path / "inputs")
    tracer = Tracer()
    before = site_values()
    tracer.install()
    during = site_values()
    assert all(during[k] is not before[k] for k in before)
    assert all(during[k].__wrapped__ is before[k] for k in before)
    tracer.remove()
    metrics = traced_run(Bench(CLI, tmp_path / "outputs"), ops, 1, tracer)
    after = site_values()
    assert all(after[k] is before[k] for k in before)
    assert metrics["cli.calls"][0] == len(ops)
    assert metrics["costfn.calls"][0] > 0
    assert metrics["mechanisms.utility.calls"][0] > 0


def test_counts_repeat_exactly_for_one_seed(tmp_path):
    runs = []
    for name in ("a", "b"):
        ops = write_inputs(TINY, 3, tmp_path / name / "inputs")
        bench = Bench(CLI, tmp_path / name / "outputs")
        runs.append(traced_run(bench, ops, 1, Tracer()))
        assert bench.correct
    counts = [{k: v for k, (v, unit) in run.items() if unit != "s"
               and k != "trace.overhead_ratio"} for run in runs]
    assert counts[0] == counts[1]
    assert {k for k in counts[0] if k.endswith(".calls")} >= {
        "scenario.parse.calls", "equilibrium.bound.calls",
        "mechanisms.utility.calls", "costfn.cost.calls"}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "ne-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "src/provpoint" in done.stderr
