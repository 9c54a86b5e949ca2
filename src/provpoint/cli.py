"""Command-line entry point.

Verbs: ``check`` evaluates existence conditions, ``run`` executes a campaign
and writes settlement reports, ``certify`` runs the deviation search,
``gen`` produces a random scenario from a template, and ``demo`` prints the
misreport-incentive table for the naive negative-valuation/asymmetric-belief
combination.

Exit codes: 0 success; 1 error (message on stderr, ``error:`` prefix);
2 usage error (argparse's usage line, then ``provpoint <verb>: error: ...``
on stderr); 3 negative verdict (a condition violated, or certification not
achieved). ``main`` returns the code for every outcome, ``--help`` (0) and
usage errors included, so it can be called many times in one process. A
call naming a verb builds that verb's parser alone (``_parse_args``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import reports
from .runner import run_scenario
from .scenario import (
    ScenarioError,
    generate_scenario,
    parse_scenario,
    read_json,
    save_scenario,
    scenario_to_dict,
    template_from_dict,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 3


def _add_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="settlement report format")
    p.add_argument("--epsilon", type=float, default=None,
                   help="deviation tolerance (default: target*1e-6)")


def _add_gen(p: argparse.ArgumentParser) -> None:
    p.add_argument("--template", required=True, help="template JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="scenario file to write (default: stdout)")


def _add_demo(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="directory for demo.csv")


def _cmd_check(args) -> int:
    scenario = parse_scenario(args.scenario)
    from .equilibrium import check_conditions

    conditions = check_conditions(scenario.config, scenario.agents)
    print(reports.conditions_table(conditions))
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = [{"name": c.name, "satisfied": c.satisfied,
                    "lhs": c.lhs, "rhs": c.rhs} for c in conditions]
        (out / "conditions.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if all(c.satisfied for c in conditions) else EXIT_NEGATIVE


def _cmd_run(args) -> int:
    scenario = parse_scenario(args.scenario)
    result = run_scenario(scenario, out_dir=args.out, epsilon=args.epsilon,
                          fmt=args.format)
    if result.outcome is not None:
        print(f"verdict: {result.outcome.verdict.value}")
        print(f"raised for: {result.outcome.total_for!r}  "
              f"against: {result.outcome.total_against!r}")
    for note in result.notes:
        print(f"note: {note}")
    report = result.certification
    if report is not None:
        print(f"certification: {'certified' if report.certified else 'NOT certified'}")
    return EXIT_NEGATIVE if report is not None and not report.certified else EXIT_OK


def _cmd_certify(args) -> int:
    scenario = parse_scenario(args.scenario)
    # the certify verb certifies even if the file does not ask
    scenario.analysis = replace(scenario.analysis, certify=True)
    result = run_scenario(scenario, out_dir=args.out, epsilon=args.epsilon,
                          fmt=args.format)
    for note in result.notes:
        print(f"note: {note}")
    report = result.certification
    status = "certified" if report.certified else (
        "infeasible" if not report.feasible else "deviations found")
    print(f"{report.mechanism}: {status}")
    for dev in report.deviations[:10]:
        print(f"  agent {dev.agent_id} {dev.kind}: {dev.detail} "
              f"gain={dev.utility_gain:.6g}")
    for line in reports.more_deviations(report, 10):
        print(line)
    return EXIT_OK if report.certified else EXIT_NEGATIVE


def _cmd_gen(args) -> int:
    template = template_from_dict(read_json(args.template))
    scenario = generate_scenario(template, seed=args.seed)
    if args.out is None:
        print(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True))
    else:
        save_scenario(scenario, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_demo(args) -> int:
    epsilons = [round(0.05 * i, 2) for i in range(11)]
    rows = reports.misreport_gap_rows(epsilons, [0.0, 1.0, 5.0])
    print(reports.misreport_gap_table(rows))
    print()
    print("truthful_minus_lying <= 0 throughout: a provision-minded agent "
          "holding securities never strictly prefers its own side, so the "
          "naive combination invites misreports.")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "demo.csv").write_text(reports.misreport_gap_csv(rows))
    return EXIT_OK


# verb -> (its line in the root parser's help, adds its arguments, handler)
_VERBS = {
    "check": ("evaluate existence conditions", _add_check, _cmd_check),
    "run": ("run the campaign and settle", _add_common, _cmd_run),
    "certify": ("certify the equilibrium profile", _add_common, _cmd_certify),
    "gen": ("generate a scenario from a template", _add_gen, _cmd_gen),
    "demo": ("misreport incentives of the naive combined mechanism",
             _add_demo, _cmd_demo),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provpoint",
        description="Provision-point crowdfunding mechanisms: simulation and "
                    "equilibrium certification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (help_line, add_arguments, _) in _VERBS.items():
        add_arguments(sub.add_parser(verb, help=help_line))
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The namespace ``_build_parser().parse_args(argv)`` gives, building one
    parser for the named verb instead of all six where that is enough.

    Everything after the verb is the verb parser's to parse, under the prog
    (``provpoint <verb>``) that ``add_parser`` gives it, so the verb's help
    and usage errors are the same bytes. Anything else (no verb, a root
    option, an unknown verb, or arguments the verb leaves over, which the
    root parser reports) goes to the full parser.
    """
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _VERBS:
        parser = argparse.ArgumentParser(prog=f"provpoint {argv[0]}")
        _VERBS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return exc.code
    try:
        return _VERBS[args.command][2](args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
