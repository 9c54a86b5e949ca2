import json
import re
import time
from pathlib import Path

import pytest

from provpoint.cli import main
from provpoint.model import Mechanism
from provpoint.scenario import ScenarioTemplate, generate_scenario, save_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def pprn_scenario(tmp_path):
    scenario = generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPRN, agent_count=5), seed=3)
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    return path


def test_check_verb(pprn_scenario, capsys, tmp_path):
    code = main(["check", "--scenario", str(pprn_scenario),
                 "--out", str(tmp_path / "chk")])
    assert code == 0
    out = capsys.readouterr().out
    assert "provision_valuation_exceeds_target" in out
    conditions = json.loads((tmp_path / "chk" / "conditions.json").read_text())
    assert all(c["satisfied"] for c in conditions)


def test_check_verb_negative_verdict(tmp_path, capsys):
    scenario = generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPRN, agent_count=5), seed=3)
    data_path = tmp_path / "bad.json"
    save_scenario(scenario, data_path)
    raw = json.loads(data_path.read_text())
    raw["config"]["refund_budget"] = 1e9  # beyond both caps
    data_path.write_text(json.dumps(raw))
    assert main(["check", "--scenario", str(data_path)]) == 3


def test_run_verb_writes_reports(pprn_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(pprn_scenario), "--out", str(out)])
    assert code == 0
    assert (out / "settlement.csv").exists()
    assert (out / "ledger.csv").exists()
    assert (out / "summary.txt").exists()
    header = (out / "settlement.csv").read_text().splitlines()[0]
    assert header == "id,side,x,securities,refund,belief_reward,realized_utility"
    ledger_header = (out / "ledger.csv").read_text().splitlines()[0]
    assert ledger_header == "tick,agent,market,amount,securities,Q_at_allocation"


def test_run_verb_json_format(pprn_scenario, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(pprn_scenario), "--out", str(out),
                 "--format", "json"]) == 0
    rows = json.loads((out / "settlement.json").read_text())
    assert len(rows) == 5


def test_certify_verb(pprn_scenario, tmp_path, capsys):
    out = tmp_path / "cert"
    code = main(["certify", "--scenario", str(pprn_scenario), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "certification.json").read_text())
    assert report["certified"] is True
    assert report["deviations"] == []
    assert "certified" in capsys.readouterr().out


def test_certify_verb_negative_verdict(tmp_path):
    scenario = generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPRN, agent_count=5), seed=3)
    path = tmp_path / "bad.json"
    save_scenario(scenario, path)
    raw = json.loads(path.read_text())
    raw["config"]["refund_budget"] = 1e9
    path.write_text(json.dumps(raw))
    assert main(["certify", "--scenario", str(path)]) == 3


def test_cut_deviation_lists_count_the_rest(tmp_path, capsys):
    # at epsilon 0 every one of the 64 PPR agents has a deviation: stdout
    # lists 10 and summary.txt 20, and each then counts the rest, which
    # certification.json lists
    path = tmp_path / "scenario.json"
    save_scenario(generate_scenario(ScenarioTemplate(Mechanism.PPR, 64), seed=1), path)
    out = tmp_path / "cert"
    assert main(["certify", "--scenario", str(path), "--out", str(out),
                 "--epsilon", "0"]) == 3
    assert len(json.loads((out / "certification.json").read_text())["deviations"]) == 64
    stdout = capsys.readouterr().out.splitlines()
    assert [line.startswith("  agent ") for line in stdout[-11:]] == [True] * 10 + [False]
    assert stdout[-1] == "  ... 54 more deviations (certification.json lists all 64)"
    summary = (out / "summary.txt").read_text().splitlines()
    assert sum(line.startswith("  deviation: ") for line in summary) == 20
    assert "  ... 44 more deviations (certification.json lists all 64)" in summary


def test_gen_verb_roundtrip(tmp_path, capsys):
    template = tmp_path / "template.json"
    template.write_text(json.dumps({"mechanism": "PPSN", "agent_count": 4}))
    out = tmp_path / "generated.json"
    assert main(["gen", "--template", str(template), "--seed", "9",
                 "--out", str(out)]) == 0
    assert main(["certify", "--scenario", str(out)]) == 0


def test_gen_verb_stdout(tmp_path, capsys):
    template = tmp_path / "template.json"
    template.write_text(json.dumps({"mechanism": "PPR", "agent_count": 3}))
    assert main(["gen", "--template", str(template), "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["mechanism"] == "PPR"


def test_demo_verb(tmp_path, capsys):
    assert main(["demo", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "truthful_minus_lying" in out
    lines = (tmp_path / "demo.csv").read_text().splitlines()
    assert lines[0] == "epsilon,securities,truthful_minus_lying"
    assert len(lines) == 1 + 11 * 3


def test_error_exit_code(capsys):
    assert main(["run", "--scenario", "/nonexistent.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "\n" not in err.strip()


def test_run_deterministic_bytes(pprn_scenario, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", str(pprn_scenario), "--out", str(out1)]) == 0
    assert main(["run", "--scenario", str(pprn_scenario), "--out", str(out2)]) == 0
    for name in ("settlement.csv", "ledger.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_explicit_actions_scenario(tmp_path):
    data = {
        "version": 1,
        "config": {"mechanism": "PPR", "provision_point": 10.0,
                   "refund_budget": 2.0, "deadline_contribution": 4},
        "agents": [{"id": 0, "valuation": 8.0}, {"id": 1, "valuation": 7.0}],
        "explicit_actions": [
            {"agent_id": 0, "amount": 6.0, "tick": 1},
            {"agent_id": 1, "amount": 7.0, "tick": 2},
        ],
    }
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    rows = (out / "ledger.csv").read_text().splitlines()[1:]
    # second contribution truncated to meet the target exactly
    assert rows[1].split(",")[3] == "4.0"


@pytest.mark.parametrize("reports, note", [
    # every report claims provision: the winning rejection side is empty
    ([(0, 0.5)] * 4, "no belief reward paid: no report is on the winning side"),
    # agent 3 alone claims rejection, and its report scores zero
    ([(0, 0.5), (0, 0.0), (0, 0.0), (1, 1.0)],
     "belief budget split equally: the winning side's report weights sum to zero"),
], ids=["empty_side", "zero_weights"])
def test_degenerate_belief_split_is_noted(tmp_path, capsys, reports, note):
    # nobody plays, so the campaign expires and the rejection side collects
    scenario = generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPRX, agent_count=4), seed=9)
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    raw = json.loads(path.read_text())
    raw["explicit_reports"] = [
        {"agent_id": i, "information": information, "prediction": prediction}
        for i, (information, prediction) in enumerate(reports)]
    raw["explicit_actions"] = []
    raw["analysis"] = {"certify": False}
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "verdict: expired" in stdout
    assert f"note: {note}" in stdout.splitlines()
    assert f"note: {note}" in (out / "summary.txt").read_text().splitlines()


def one_error_line(capsys, needle):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err


def test_short_explicit_reports_exit_code(tmp_path, capsys):
    scenario = generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPRX, agent_count=4), seed=9)
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    raw = json.loads(path.read_text())
    raw["explicit_reports"] = []
    path.write_text(json.dumps(raw))
    for verb in ("run", "certify"):
        assert main([verb, "--scenario", str(path)]) == 1
        one_error_line(capsys, "scenario.explicit_reports")


def test_duplicate_explicit_reports_exit_code(tmp_path, capsys):
    scenario = generate_scenario(
        ScenarioTemplate(mechanism=Mechanism.PPRX, agent_count=4), seed=9)
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    raw = json.loads(path.read_text())
    raw["explicit_reports"] = [
        {"agent_id": i, "information": 0, "prediction": 0.5} for i in (0, 1, 0)]
    path.write_text(json.dumps(raw))
    for verb in ("check", "run", "certify"):
        assert main([verb, "--scenario", str(path),
                     "--out", str(tmp_path / verb)]) == 1
        one_error_line(capsys, "scenario.explicit_reports[2].agent_id: "
                               "duplicate report for agent 0")


@pytest.mark.parametrize("template,needle", [
    ({"mechanism": "PPR", "agent_count": 4.7},
     "template.agent_count: expected an integer, got 4.7"),
    ({"mechanism": "PPR", "agent_count": True},
     "template.agent_count: expected an integer, got True"),
    ({"mechanism": "PPR", "agent_count": 4, "valuation_range": [5]},
     "template.valuation_range: expected a list of two numbers, got [5]"),
    (["PPR"], "template: expected an object, got ['PPR']"),
    ({"mechanism": "PPRN", "agent_count": 1},
     "template.agent_count: PPRN needs 2 or more agents"),
    ({"mechanism": "PPSN", "agent_count": 1},
     "template.agent_count: PPSN needs 2 or more agents"),
    ({"mechanism": "PPRx", "agent_count": 2},
     "template.agent_count: PPRx needs 3 or more agents"),
    ({"mechanism": "PPRN", "agent_count": 4, "provision_point_pair": [0, 3]},
     "template.provision_point_pair: targets must be positive"),
    ({"mechanism": "PPS", "agent_count": 4, "provision_point_pair": [3, 3]},
     "template.provision_point_pair: PPS does not use this field"),
    ({"mechanism": "PPRN", "agent_count": 4, "provision_point": 3},
     "template.provision_point: PPRN does not use this field"),
    ({"mechanism": "PPRx", "agent_count": 4, "provision_point": -4},
     "template.provision_point: targets must be positive"),
    # every agent rejection-minded at the widest offset: no reward-adjusted
    # bound is positive, so no target can be sized
    ({"mechanism": "PPRx", "agent_count": 3, "epsilon_range": [0.5, 0.5],
      "rejection_share": 1.0},
     "template infeasible: reward-adjusted bounds sum to zero"),
])
def test_mistyped_template_exit_code(tmp_path, capsys, template, needle):
    path = tmp_path / "template.json"
    path.write_text(json.dumps(template))
    out = tmp_path / "generated.json"
    assert main(["gen", "--template", str(path), "--seed", "1",
                 "--out", str(out)]) == 1
    one_error_line(capsys, needle)
    assert not out.exists()


@pytest.mark.parametrize("option,value,needle", [
    ("--epsilon", "nan", "epsilon must be finite and nonnegative, got nan"),
    ("--epsilon", "-1", "epsilon must be finite and nonnegative, got -1.0"),
    ("--epsilon", "inf", "epsilon must be finite and nonnegative, got inf"),
])
def test_bad_certifier_setting_exit_code(pprn_scenario, tmp_path, capsys, option,
                                         value, needle):
    # the generated scenario asks to certify and the shipped one does not:
    # run refuses the setting either way, before it plays or writes anything
    for scenario in (pprn_scenario, SCENARIOS / "ppr_explicit_plays.json"):
        for verb in ("run", "certify"):
            out = tmp_path / scenario.stem / verb
            assert main([verb, "--scenario", str(scenario), "--out", str(out),
                         option, value]) == 1
            one_error_line(capsys, needle)
            assert not out.exists()


def test_epsilon_below_the_met_band_is_noted(tmp_path, capsys):
    # a total 1e-9 of its target short counts as met, so an epsilon below
    # that band (of the larger target) reports gains the band lets through;
    # the report says so once, and at the default epsilon not at all
    shipped = SCENARIOS / "ppsn_four_arrivals.json"
    band = 1e-9 * max(json.loads(shipped.read_text())["config"]["provision_point_pair"])
    notes = {}
    for epsilon in ("0", repr(0.5 * band), repr(band), None):
        out = tmp_path / str(epsilon)
        main(["certify", "--scenario", str(shipped), "--out", str(out)]
             + ([] if epsilon is None else ["--epsilon", epsilon]))
        capsys.readouterr()
        notes[epsilon] = [note for note in json.loads(
            (out / "certification.json").read_text())["notes"] if "met band" in note]
    assert notes["0"] == [
        f"epsilon 0 is below the met band {band:.6g} (1e-09 of the larger target): a "
        "total that short of its target counts as met, so gains inside the band are "
        "tolerance, not deviations"]
    assert len(notes[repr(0.5 * band)]) == 1
    assert notes[repr(band)] == notes[None] == []


def test_oversized_explicit_play_exit_code(tmp_path, capsys):
    # the search reaches the prescribed play; a play far past every target
    # and valuation still gets a verdict, as fast as any other
    shipped = Path(__file__).resolve().parent.parent / "scenarios" / "ppr_explicit_plays.json"
    raw = json.loads(shipped.read_text())
    raw["explicit_actions"][0]["amount"] = 1e12
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    started = time.monotonic()
    assert main(["certify", "--scenario", str(path)]) in (0, 3)
    assert time.monotonic() - started < 1.0
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_scenario_exit_code(pprn_scenario, tmp_path, capsys, value):
    text = pprn_scenario.read_text()
    raw = json.loads(text)
    raw["agents"][0]["valuation"] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw).replace('"@"', value))
    for verb in ("check", "run", "certify"):
        assert main([verb, "--scenario", str(path),
                     "--out", str(tmp_path / verb)]) == 1
        one_error_line(capsys, "scenario.agents[0].valuation: must be finite")


NEGATIVE_ZERO = re.compile(r"-0(?:\.0+)?(?![\d.e])")


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_a_negative_zero_valuation_writes_no_negative_zero(mechanism, tmp_path, capsys):
    # a JSON -0.0 valuation passes the nonnegative check; each cap takes the
    # valuation's magnitude, so no report carries the sign into a bound, a
    # play or a summary line
    scenario = generate_scenario(ScenarioTemplate(mechanism=mechanism, agent_count=6),
                                 seed=1)
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    raw = json.loads(path.read_text())
    raw["agents"][2]["valuation"] = -0.0
    path.write_text(json.dumps(raw))
    for label, args in (("certify", ["certify"]), ("run_csv", ["run", "--format", "csv"]),
                        ("run_json", ["run", "--format", "json"])):
        assert main([*args, "--scenario", str(path), "--out", str(tmp_path / label)]) == 0
        assert not NEGATIVE_ZERO.search(capsys.readouterr().out)
        for report in sorted((tmp_path / label).iterdir()):
            assert not NEGATIVE_ZERO.search(report.read_text()), report


@pytest.mark.parametrize("path,value,needle", [
    (("agents", 0, "arrival_contribution"), 1.5,
     "scenario.agents[0].arrival_contribution: expected an integer"),
    (("agents", 0, "valuation"), True, "scenario.agents[0].valuation: expected a number"),
    (("analysis",), {"certify": "no"},
     "scenario.analysis.certify: expected true or false"),
    (("analysis",), [], "scenario.analysis: expected an object"),
    (("agents", 1), "agent", "scenario.agents[1]: expected an object"),
])
def test_mistyped_scenario_exit_code(pprn_scenario, tmp_path, capsys, path, value,
                                     needle):
    raw = json.loads(pprn_scenario.read_text())
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    for verb in ("check", "run", "certify"):
        assert main([verb, "--scenario", str(bad),
                     "--out", str(tmp_path / verb)]) == 1
        one_error_line(capsys, needle)


def test_run_replays_repeated_explicit_actions(tmp_path, capsys):
    # the engine replays every action; only a certification reads them as a
    # profile, which allows one action per agent
    raw = json.loads((SCENARIOS / "ppr_explicit_plays.json").read_text())
    raw["explicit_actions"] = [{"agent_id": 0, "amount": 3.0, "market": "for", "tick": tick}
                               for tick in (1, 2)]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    rows = [row.split(",") for row in (out / "ledger.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[1], row[3]) for row in rows] == [("1", "0", "3.0"), ("2", "0", "3.0")]
    capsys.readouterr()
    assert main(["certify", "--scenario", str(path)]) == 1
    one_error_line(capsys, "scenario.explicit_actions[1].agent_id: certification of "
                           "explicit plays requires at most one action per agent")


def test_run_exit_code_when_certification_finds_deviations(tmp_path, capsys):
    scenario = (Path(__file__).resolve().parent / "golden_generated"
                / "ppsn_off_preference" / "scenario.json")
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path)]) == 3
    assert "certification: NOT certified" in capsys.readouterr().out.splitlines()


REPORTS = [{"agent_id": i, "information": 0, "prediction": 0.5} for i in range(5)]


@pytest.mark.parametrize("shipped,path,value,needle", [
    ("ppr_explicit_plays", ("agents", 0, "arrival_belief"), -1,
     "scenario.agents[0]: agent 0: arrival_belief must be nonnegative, got -1"),
    ("ppr_explicit_plays", ("agents", 1, "arrival_contribution"), -1,
     "scenario.agents[1]: agent 1: arrival_contribution must be nonnegative, got -1"),
    ("pprx_five_beliefs", ("agents", 0, "arrival_belief"), 5,
     "scenario.agents[id=0].arrival_belief: 5 is past the belief deadline 4"),
    ("ppr_explicit_plays", ("explicit_actions", 0, "amount"), -1.0,
     "scenario.explicit_actions[0].amount: must be nonnegative"),
    ("pprx_five_beliefs", ("explicit_reports", 1, "information"), 2,
     "scenario.explicit_reports[1]: agent 1: information report must be 0 or 1"),
    ("pprx_five_beliefs", ("explicit_reports", 1, "prediction"), 1.5,
     "scenario.explicit_reports[1]: agent 1: prediction must be within [0, 1]"),
    ("pprx_five_beliefs", ("explicit_reports", 1, "tick"), -1,
     "scenario.explicit_reports[1]: agent 1: report tick must be nonnegative"),
    ("pprn_six_agents", ("analysis", "certify_ne"), True,
     "scenario.analysis.certify_ne: unknown field"),
    ("pprx_five_beliefs", ("explicit_reports", 1, "tik"), 1,
     "scenario.explicit_reports[1].tik: unknown field"),
    ("ppsn_four_arrivals", ("config", "cost_params", "liquidity"), -1.0,
     "scenario.config.cost_params: liquidity must be positive, got -1.0"),
    # the retired switches: check tests the conditions, and a run always
    # plays the campaign
    ("pprn_six_agents", ("analysis", "conditions_only"), True,
     "scenario.analysis.conditions_only: unknown field"),
    ("pprn_six_agents", ("analysis", "run_campaign"), False,
     "scenario.analysis.run_campaign: unknown field"),
    ("pprn_six_agents", ("config", "provision_point_pair"), [1e308, 1e308],
     "scenario.config: provision_point_pair targets must have a finite sum, "
     "got 1e+308 + 1e+308"),
    ("ppr_explicit_plays", ("explicit_actions", 0, "tick"), -3,
     "scenario.explicit_actions[0].tick: must be nonnegative, got -3"),
])
def test_invalid_scenario_field_exit_code(tmp_path, capsys, shipped, path, value, needle):
    raw = json.loads((SCENARIOS / f"{shipped}.json").read_text())
    if path[0] == "explicit_reports":
        raw["explicit_reports"] = [dict(report) for report in REPORTS]
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    for verb in ("check", "run", "certify"):
        assert main([verb, "--scenario", str(bad), "--out", str(tmp_path / verb)]) == 1
        one_error_line(capsys, needle)



@pytest.mark.parametrize("text,needle", [
    ('{mechanism: "PPR"}', "{path}: not valid JSON ("),
    (None, "cannot read {path}: "),
    ("[" * 200000, "{path}: not valid JSON (nested too deeply)"),
    (b"\xff\xfe{}", "{path}: not UTF-8 text ("),
], ids=["malformed", "missing", "nested", "not-utf8"])
def test_unreadable_template_names_the_file(tmp_path, capsys, text, needle):
    path = tmp_path / "template.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    out = tmp_path / "generated.json"
    assert main(["gen", "--template", str(path), "--out", str(out)]) == 1
    one_error_line(capsys, needle.format(path=path))
    assert not out.exists()
    # a scenario is read by the same reader
    assert main(["check", "--scenario", str(path)]) == 1
    one_error_line(capsys, needle.format(path=path))


def key_paths(node, path=()):
    """The path of every key of every object in a JSON document, as a tuple
    of keys and list indices."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from key_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from key_paths(value, path + (i,))


def mutations(document, root):
    """For each key path of ``document``: a copy with a misspelled sibling
    key, and a copy with the value replaced by a string; each with the
    error that must name it."""
    for path in key_paths(document):
        dotted = root + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                for k in path)
        for mutation in ("typo", "string"):
            copy = json.loads(json.dumps(document))
            node = copy
            for key in path[:-1]:
                node = node[key]
            if mutation == "typo":
                node[f"{path[-1]}_typo"] = node[path[-1]]
                yield copy, f"error: {dotted}_typo: unknown field\n"
            else:
                node[path[-1]] = "x"
                yield copy, f"error: {dotted}: "


def refused(capsys, argv, expected):
    assert main(argv) == 1, expected
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(expected), (expected, err)


def test_every_field_of_the_shipped_inputs_is_checked(tmp_path, capsys):
    # every key of every shipped scenario, and of the README template, is a
    # field the parser reads: a misspelled sibling or a string in its place
    # is one error line naming it (check stands for every scenario verb,
    # since all of them parse through parse_scenario)
    path = tmp_path / "mutated.json"
    for shipped in sorted(SCENARIOS.glob("*.json")):
        for document, expected in mutations(json.loads(shipped.read_text()), "scenario"):
            path.write_text(json.dumps(document))
            refused(capsys, ["check", "--scenario", str(path)], expected)
    readme = (SCENARIOS.parent / "README.md").read_text()
    template = json.loads(readme.split("Templates for `gen`:")[1]
                          .split("```json")[1].split("```")[0])
    out = tmp_path / "generated.json"
    for document, expected in mutations(template, "template"):
        path.write_text(json.dumps(document))
        refused(capsys, ["gen", "--template", str(path), "--out", str(out)], expected)
        assert not out.exists()


OUT_OF_RANGE = (1e308, -1e308, -1, 0, 1e-320, 10**400)


def number_paths(node, path=()):
    """The path of every number in a JSON document (booleans excluded)."""
    if isinstance(node, dict):
        node = node.items()
    elif isinstance(node, list):
        node = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, value in node:
        yield from number_paths(value, path + (key,))


def test_out_of_range_numbers_get_a_verdict_or_one_error_line(tmp_path, capsys):
    # every number of every shipped scenario, set in turn to a huge, a
    # negative, a zero, a subnormal and an overflowing value: check and
    # certify give a verdict (exit 0 or 3) or one error line (exit 1);
    # certify parses and evaluates the conditions first, as check does, so
    # it runs only on the files that check accepts
    path = tmp_path / "mutated.json"
    for shipped in sorted(SCENARIOS.glob("*.json")):
        document = json.loads(shipped.read_text())
        for leaf in number_paths(document):
            for value in OUT_OF_RANGE:
                copy = json.loads(json.dumps(document))
                node = copy
                for key in leaf[:-1]:
                    node = node[key]
                node[leaf[-1]] = value
                path.write_text(json.dumps(copy))
                for verb in ("check", "certify"):
                    code = main([verb, "--scenario", str(path)])
                    err = capsys.readouterr().err
                    case = (shipped.name, leaf, value, verb, code, err)
                    if code == 1:
                        assert err.startswith("error: ") and err.count("\n") == 1, case
                        break
                    assert code in (0, 3) and err == "", case


NON_FINITE = re.compile(r"\b(?:Infinity|NaN|inf|nan)\b")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: certification.json writes "
                   "Infinity and NaN for these inputs")
@pytest.mark.parametrize("shipped,leaf,value", [
    ("pprn_six_agents", ("agents", 0, "valuation"), 1e308),
    ("ppsn_four_arrivals", ("config", "cost_params", "liquidity"), 1e-320),
])
def test_no_report_holds_a_non_finite_number(shipped, leaf, value, tmp_path, capsys):
    # ROADMAP item 13's two inputs: every report that check, run (csv and
    # json) and certify write is free of Infinity, NaN, inf and nan
    document = json.loads((SCENARIOS / f"{shipped}.json").read_text())
    node = document
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    for label, args in (("check", ["check"]),
                        ("run_csv", ["run", "--format", "csv"]),
                        ("run_json", ["run", "--format", "json"]),
                        ("certify", ["certify"])):
        main([*args, "--scenario", str(path), "--out", str(tmp_path / label)])
    capsys.readouterr()
    written = sorted(p for p in tmp_path.glob("*/*") if p.is_file())
    assert len(written) >= 13
    for report in written:
        assert not NON_FINITE.search(report.read_text()), report
