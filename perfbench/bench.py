"""Closed-loop op execution, the correctness gate, and metric assembly.

One caller in one process calls ``provpoint.cli.main(argv)`` for each op,
waiting for each to return before sending the next. A pass runs every op of
the workload once, in manifest order; a run is a fixed number of passes, so
one seed always attempts (and fails) the same ops.

Times are reported in reference seconds. The shared host the benchmark was
built on changes speed by a third within seconds, and its CPU time drifts
with its wall time, so raw op times of one program spread past any useful
bound. While passes run, a ``Sampler`` therefore interrupts the caller every
``REF_EVERY_S`` to time a fixed piece of pure-Python work
(``reference_sample``), inside ops and between them. Each op's wall time,
less the time its interruptions took, is scaled by ``REF_NOMINAL_S`` over
the median sample time within ``REF_WINDOW_S`` of the op: a reference
second is a wall second on a host where the reference work takes
``REF_NOMINAL_S``. Raw wall times are printed beside the result.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.reference import REF_NOMINAL_S, reference_sample
from perfbench.tracing import Tracer
from perfbench.workloads import Op

VERDICT_MISMATCH = "verdict mismatch"

REF_EVERY_S = 0.05          # interval of the sampler's interruptions
REF_WINDOW_S = 1.0          # samples this close to an op scale its time


def median_speed(samples: list[float]) -> float:
    """Reference seconds per wall second, from reference sample times."""
    return REF_NOMINAL_S / statistics.median(samples)


class Sampler:
    """Times ``reference_sample`` from a SIGALRM handler every
    ``REF_EVERY_S`` while active. The handler runs in the caller's own
    thread, between bytecodes, so it measures the speed the program gets;
    ``paused`` is the time spent in it, for callers to take off their
    spans."""

    def __init__(self) -> None:
        self.refs: list[tuple[float, float]] = []  # (when, seconds), in order
        self.paused = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.refs.append((start, reference_sample()))
        self.paused += time.perf_counter() - start

    @contextlib.contextmanager
    def active(self):
        """Sample on entry, every ``REF_EVERY_S`` inside, and on exit."""
        self._tick(None, None)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._tick(None, None)


# Per-pass seconds, reported as ``<key>_s``.
PER_LAYER_TIMES = (
    "cli.busy", "cli.self",
    "scenario.parse.busy",
    "runner.self",
    "equilibrium.conditions.busy",
    "equilibrium.profile.busy",
    "equilibrium.certify.busy", "equilibrium.certify.self",
    "equilibrium.bound.busy",
    "mechanisms.utility.busy",
    "mechanisms.engine.busy",
    "mechanisms.settle.busy",
    "costfn.busy",
    "beliefs.score.busy",
    "beliefs.rewards.busy",
    "reports.busy",
)
# Per-pass counts, which repeat exactly for a fixed seed.
PER_LAYER_COUNTS = (
    "cli.calls", "scenario.parse.calls", "equilibrium.conditions.calls",
    "equilibrium.profile.calls", "equilibrium.certify.calls",
    "equilibrium.bound.calls", "mechanisms.utility.calls",
    "mechanisms.engine.calls", "mechanisms.settle.calls",
    "costfn.calls", "costfn.cost.calls", "costfn.inverse_cost.calls",
    "costfn.securities_for.calls", "costfn.contribution_for.calls",
    "beliefs.score.calls", "beliefs.rewards.calls", "reports.calls",
    "trace.spans",
)


@dataclass
class Bench:
    """Runs ops through the CLI module ``program`` and gates each result."""

    program: object               # the provpoint.cli module
    out: Path                     # one output directory per op under here
    # (op, start, end, paused) of each op's timed span, in perf_counter
    # seconds; paused is the sampler's time inside the span
    spans: list[tuple[Op, float, float, float]] = field(default_factory=list)
    failures: list[tuple[Op, str]] = field(default_factory=list)
    sampler: Sampler = field(default_factory=Sampler)
    _digests: dict[str, dict[str, str]] = field(default_factory=dict)

    def run_op(self, op: Op) -> None:
        """Run one op and record its timed span and any gate failure.
        Clearing the output directory and the checks are not timed."""
        out_dir = self.out / op.key
        shutil.rmtree(out_dir, ignore_errors=True)
        sink = io.StringIO()
        status: int | str
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            paused = self.sampler.paused
            start = time.perf_counter()
            try:
                status = self.program.main(op.argv(out_dir))
            except Exception as exc:  # an escaped exception fails the op
                status = type(exc).__name__
            end = time.perf_counter()
        self.spans.append((op, start, end, self.sampler.paused - paused))
        reason = self.check(op, status, out_dir)
        if reason is not None:
            self.failures.append((op, reason))

    def run_pass(self, ops: list[Op]) -> None:
        """Run every op once, with the sampler active."""
        with self.sampler.active():
            for op in ops:
                self.run_op(op)

    def times(self) -> list[tuple[Op, float, float]]:
        """(op, wall seconds, reference seconds) of every op run; both
        without the sampler's interruptions. An op with no sample within
        ``REF_WINDOW_S`` is scaled by the nearest one before it."""
        refs = self.sampler.refs
        when = [w for w, _ in refs]
        result = []
        for op, start, end, paused in self.spans:
            low = bisect.bisect_left(when, start - REF_WINDOW_S)
            high = bisect.bisect_right(when, end + REF_WINDOW_S)
            window = refs[low:high] or refs[max(0, low - 1):low]
            wall = end - start - paused
            result.append((op, wall, wall * median_speed([t for _, t in window])))
        return result

    def check(self, op: Op, status, out_dir: Path) -> str | None:
        """Why the op failed, or None. An op fails when it exits non-zero,
        misses a report file, writes bytes that differ from an earlier run
        of the same op, or (certify) its profile's expected verdict is not
        the replayed verdict in summary.txt."""
        if status != 0:
            return f"exit status {status}"
        missing = [f for f in op.expected_files() if not (out_dir / f).is_file()]
        if missing:
            return f"missing {', '.join(missing)}"
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out_dir.iterdir())}
        if self._digests.setdefault(op.key, digests) != digests:
            return "output bytes differ from an earlier run of the same op"
        if op.verb == "certify":
            cert = json.loads((out_dir / "certification.json").read_text())
            expected = (cert.get("profile") or {}).get("expected_verdict")
            replayed = next(
                (line.split(":", 1)[1].strip() for line in
                 (out_dir / "summary.txt").read_text().splitlines()
                 if line.startswith("verdict:")), None)
            if expected != replayed:
                return f"{VERDICT_MISMATCH}: profile {expected}, replay {replayed}"
        return None

    def warm_up(self, ops: list[Op]) -> None:
        """Run the smallest op of each mechanism once, unrecorded and
        unchecked, so lazy imports and first calls are paid before timing."""
        smallest: dict[str, Op] = {}
        for op in ops:
            if op.mechanism not in smallest or op.agents < smallest[op.mechanism].agents:
                smallest[op.mechanism] = op
        for op in smallest.values():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    contextlib.suppress(Exception):  # the timed runs report it
                self.program.main(op.argv(self.out / "warm-up"))

    @property
    def attempted(self) -> int:
        return len(self.spans)

    @property
    def correct(self) -> bool:
        """False when an op broke outright: a non-zero exit, an escaped
        exception, a missing file or non-deterministic bytes. A verdict
        disagreement is a wrong answer in well-formed output; it counts as a
        failed op but leaves the run correct."""
        return all(reason.startswith(VERDICT_MISMATCH) for _, reason in self.failures)


def op_metrics(times: list[tuple[Op, float]], ops: list[Op]) -> dict[str, float]:
    """Throughput and op-time figures from (op, seconds) pairs. An op's time
    is the median of its repeats in the run; ``op_s.largest_n`` is the mean
    op time at the largest agent count, of which there are only a few ops."""
    repeats: dict[str, list[float]] = {}
    for op, t in times:
        repeats.setdefault(op.key, []).append(t)
    per_op = {key: statistics.median(ts) for key, ts in repeats.items()}
    largest = max(op.agents for op in ops)
    return {
        "ops_per_s": len(per_op) / sum(per_op.values()),
        "op_s.p50": statistics.median(per_op.values()),
        "op_s.largest_n": statistics.fmean(
            per_op[op.key] for op in ops if op.agents == largest),
    }


def timed_run(bench: Bench, ops: list[Op], passes: int,
              setup_s: float) -> dict[str, tuple[float, str]]:
    """Untraced run of ``passes`` passes: the end-to-end metrics, with
    times in reference seconds."""
    bench.warm_up(ops)
    for _ in range(passes):
        bench.run_pass(ops)
    times = bench.times()
    metrics = {name: (value, "s" if name.startswith("op_s") else "1/s")
               for name, value in op_metrics([(op, ref) for op, _, ref in times],
                                             ops).items()}
    return {
        "setup_s": (setup_s, "s"),
        **metrics,
        "pass_ratio": (1.0 - len(bench.failures) / bench.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def wall_metrics(bench: Bench, ops: list[Op]) -> dict[str, float]:
    """The op-time figures in wall seconds, and the run's median host speed
    in reference seconds per wall second."""
    wall = op_metrics([(op, w) for op, w, _ in bench.times()], ops)
    wall["host.speed"] = median_speed([t for _, t in bench.sampler.refs])
    return wall


def traced_run(bench: Bench, ops: list[Op], passes: int,
               tracer: Tracer) -> dict[str, tuple[float, str]]:
    """One untraced pass, then ``passes`` traced passes: the per-layer
    metrics, per pass. Counts come from the first traced pass; times are
    medians over the traced passes, scaled to reference seconds by the
    run's median host speed."""
    bench.warm_up(ops)
    bench.run_pass(ops)
    snapshots: list[dict[str, float]] = []
    tracer.install()
    try:
        for _ in range(passes):
            snapshots.append(tracer.snapshot())
            bench.run_pass(ops)
    finally:
        tracer.remove()
    snapshots.append(tracer.snapshot())
    per_pass = [{k: after[k] - before[k] for k in after}
                for before, after in zip(snapshots, snapshots[1:])]
    first = per_pass[0]
    speed = median_speed([t for _, t in bench.sampler.refs])
    times = bench.times()
    pass_time = [sum(ref for _, _, ref in times[i:i + len(ops)])
                 for i in range(0, len(times), len(ops))]
    agents = sum(op.agents for op in ops)
    certified = sum(op.agents for op in ops if op.verb == "certify")
    metrics: dict[str, tuple[float, str]] = {}
    for key in PER_LAYER_TIMES:
        metrics[f"{key}_s"] = (statistics.median(p[key] for p in per_pass) * speed, "s")
    for key in PER_LAYER_COUNTS:
        metrics[key] = (first[key], "count")
    metrics.update({
        "equilibrium.utility_calls_per_agent": (
            first["mechanisms.utility.calls"] / certified if certified else 0.0,
            "calls/agent"),
        "costfn.calls_per_agent": (first["costfn.calls"] / agents, "calls/agent"),
        "reports.bytes": (first["reports.bytes"], "bytes"),
        "trace.overhead_ratio": (statistics.median(pass_time[1:]) / pass_time[0],
                                 "ratio"),
    })
    return metrics
