"""Spans around the calls the program makes into its own public functions.

``Tracer.install`` replaces each name in ``SITES`` at the module it is
looked up from (its import site) with a wrapper that times the call.
``Tracer.remove`` puts every original back, so untraced runs measure the
unwrapped program. Per layer the wrappers keep, as they go:

* ``calls``: calls made (also kept per span name);
* ``busy``: time inside outermost calls of the layer (a call nested in
  another call of the same layer adds nothing);
* ``self``: call time not covered by wrapped child calls.

Coarse layers, called a few times per op, also log one span each (name,
start, end, parent span) in memory; ``write`` saves them when the run ends.
The leaf layers marked ``log=False`` (utilities, bounds, cost function)
are called millions of times per pass at n=256, so they are only counted:
a span each would be about 6 million spans, 340 MB of CSV, per pass.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

UTILITIES = ("ppr_utility", "pprn_utility", "pps_utility", "ppsn_utility",
             "pprx_utility", "ppsx_utility")
REPORT_WRITERS = ("settlement_csv", "settlement_json", "ledger_csv",
                  "certification_json", "summary_text")
COST_METHODS = ("cost", "inverse_cost", "securities_for", "contribution_for")

# (span name, owner, attribute, log): owner is a module path, or
# "module:Class" for methods; log=False sites are counted, not logged.
SITES: tuple[tuple[str, str, str, bool], ...] = (
    ("cli", "provpoint.cli", "main", True),
    ("scenario.parse", "provpoint.cli", "parse_scenario", True),
    ("runner", "provpoint.cli", "run_scenario", True),
    ("equilibrium.conditions", "provpoint.runner", "check_conditions", True),
    ("equilibrium.conditions", "provpoint.equilibrium", "check_conditions", True),
    ("equilibrium.profile", "provpoint.runner", "construct_profile", True),
    ("equilibrium.certify", "provpoint.runner", "certify_ne", True),
    ("equilibrium.certify", "provpoint.runner", "certify_spe", True),
    ("equilibrium.bound", "provpoint.equilibrium", "contribution_bound", False),
    *(("mechanisms.utility", "provpoint.equilibrium", name, False)
      for name in UTILITIES),
    ("mechanisms.engine", "provpoint.runner", "run_campaign", True),
    ("mechanisms.settle", "provpoint.runner", "settle", True),
    ("beliefs.score", "provpoint.runner", "score_reports", True),
    ("beliefs.rewards", "provpoint.runner", "bbr_rewards", True),
    ("beliefs.rewards", "provpoint.runner", "side_rewards", True),
    *(("reports", "provpoint.reports", name, True) for name in REPORT_WRITERS),
    *((f"costfn.{name}", "provpoint.costfn:CostFunction", name, False)
      for name in COST_METHODS),
)


def owner_of(spec: str):
    """The module, or class for ``module:Class``, that holds a site's name."""
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def layer_of(name: str) -> str:
    """The layer a span name is charged to: each ``costfn.<method>`` span
    belongs to the one ``costfn`` layer."""
    return "costfn" if name.startswith("costfn.") else name


class Tracer:
    def __init__(self) -> None:
        names = {site[0] for site in SITES}
        # per layer: [calls, busy, self, open calls]
        self.layers = {layer_of(n): [0, 0.0, 0.0, 0] for n in sorted(names)}
        self.calls = dict.fromkeys(sorted(names), 0)
        self.report_bytes = 0
        self.spans: list[tuple[str, float, float, int]] = []
        self._child_time: list[float] = []  # one entry per open wrapped call
        self._open_spans: list[int] = []    # indices of open logged spans
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for name, spec, attr, log in SITES:
            owner = owner_of(spec)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, log))

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, log: bool):
        figures = self.layers[layer_of(name)]
        calls, child_time, clock = self.calls, self._child_time, time.perf_counter
        spans, open_spans = self.spans, self._open_spans
        count_bytes = name == "reports"

        def traced(*args, **kwargs):
            figures[3] += 1
            child_time.append(0.0)
            if log:
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(len(spans))
                spans.append((name, 0.0, 0.0, parent))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                figures[3] -= 1
                figures[0] += 1
                figures[2] += duration - child_time.pop()
                if not figures[3]:
                    figures[1] += duration
                if child_time:
                    child_time[-1] += duration
                calls[name] += 1
                if log:
                    index = open_spans.pop()
                    spans[index] = (name, start, end, spans[index][3])
            if count_bytes:
                self.report_bytes += len(result.encode())
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict[str, float]:
        """Running totals as ``<layer>.calls|busy|self`` and
        ``<name>.calls``; subtract two snapshots to get a stretch's share."""
        totals: dict[str, float] = {f"{name}.calls": n for name, n in self.calls.items()}
        for layer, (calls, busy, own, _) in self.layers.items():
            totals.update({f"{layer}.calls": calls, f"{layer}.busy": busy,
                           f"{layer}.self": own})
        totals["reports.bytes"] = self.report_bytes
        totals["trace.spans"] = len(self.spans)
        return totals

    def write(self, path: Path) -> None:
        """Write the logged spans as CSV ``name,start,end,parent``; parent is
        the zero-based row index of the enclosing logged span, or -1."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("name,start,end,parent\n")
            f.writelines(f"{name},{start!r},{end!r},{parent}\n"
                         for name, start, end, parent in self.spans)
