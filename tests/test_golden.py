"""Byte-for-byte reports of the shipped scenarios and of larger generated ones.

``tests/golden/<verb>/<scenario>/`` holds every file ``provpoint <verb>``
writes for ``scenarios/<scenario>.json``, and ``tests/golden/run_json/`` every
file ``provpoint run --format json`` writes. ``tests/golden_generated/<name>/``
holds the certification and summary ``provpoint certify`` writes for one
generated scenario per mechanism (``<mechanism>_n<agents>_seed<seed>``),
large enough that the SPE walks run long past the first few arrivals, and
``tests/golden_generated/ppsn_off_preference/``, ``pps_half_plays/``,
``ppsn_half_plays/`` and ``ppsx_half_plays/`` the files ``provpoint certify``
writes for the scenario stored beside them. A changed byte here is
a change in what the program reports and must be documented as such;
refresh the files only for a deliberate fix.
"""

from pathlib import Path

import pytest

from provpoint import equilibrium
from provpoint.cli import main
from provpoint.costfn import CostFunction
from provpoint.model import Mechanism
from provpoint.scenario import ScenarioTemplate, generate_scenario, save_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))
GENERATED = Path(__file__).resolve().parent / "golden_generated"


@pytest.mark.parametrize("golden", ["run", "certify", "run_json"])
@pytest.mark.parametrize("name", SCENARIOS)
def test_reports_match_golden(golden, name, tmp_path, capsys):
    verb, _, fmt = golden.partition("_")  # run_json: run --format json
    main([verb, "--scenario", str(ROOT / "scenarios" / f"{name}.json"),
          "--out", str(tmp_path), "--format", fmt or "csv"])
    capsys.readouterr()
    expected_dir = GOLDEN / golden / name
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in expected_dir.iterdir())
    for file_name in written:
        assert ((tmp_path / file_name).read_bytes()
                == (expected_dir / file_name).read_bytes()), file_name


def test_golden_covers_every_shipped_scenario():
    assert len(SCENARIOS) == 5
    files = [p for p in GOLDEN.rglob("*") if p.is_file()]
    assert len(files) == 58


@pytest.mark.parametrize("mechanism,agents,seed", [
    (Mechanism.PPR, 24, 11), (Mechanism.PPRN, 24, 12), (Mechanism.PPRX, 24, 13),
    (Mechanism.PPS, 64, 14), (Mechanism.PPSN, 64, 15), (Mechanism.PPSX, 64, 16),
])
def test_generated_certification_matches_golden(mechanism, agents, seed, tmp_path,
                                                capsys):
    scenario = generate_scenario(
        ScenarioTemplate(mechanism=mechanism, agent_count=agents), seed=seed)
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    assert main(["certify", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    expected_dir = GENERATED / f"{mechanism.value.lower()}_n{agents}_seed{seed}"
    for file_name in ("certification.json", "summary.txt"):
        assert ((tmp_path / "out" / file_name).read_bytes()
                == (expected_dir / file_name).read_bytes()), file_name


def test_off_preference_play_matches_golden(tmp_path, capsys):
    # the shipped PPSN scenario with agent 3 staking 1.0 on the rejection
    # market first: the subgame-perfect certifier finds deviations
    expected_dir = GENERATED / "ppsn_off_preference"
    assert main(["certify", "--scenario", str(expected_dir / "scenario.json"),
                 "--out", str(tmp_path)]) == 3
    capsys.readouterr()
    for file_name in ("certification.json", "summary.txt"):
        assert ((tmp_path / file_name).read_bytes()
                == (expected_dir / file_name).read_bytes()), file_name


@pytest.mark.parametrize("name", ["pps_half_plays", "ppsn_half_plays", "ppsx_half_plays"])
def test_half_plays_match_golden(name, tmp_path, capsys, monkeypatch):
    # generated scenarios (n=16; PPSN n=24) whose explicit plays are the
    # constructed ones at half their amounts: every on-path slot gains by
    # contributing more. Under the real cost function the bounds stay best
    # responses off the path, so the scenario is certified again with every
    # allocation raised by 0.01 per security issued; the off-path
    # contribution deviations then pin eu and follow. The slots' gain
    # bracket (equilibrium._Evaluator.bracket) reads its alt - own through
    # the payoff rows and securities_for, so it sees the raised allocations
    # too and leaves those slots to the exact search. No delay is searched,
    # so the control reports no timing deviation
    expected_dir = GENERATED / name
    scenario = str(expected_dir / "scenario.json")
    assert main(["certify", "--scenario", scenario, "--out", str(tmp_path / "real")]) == 3
    for file_name in ("certification.json", "summary.txt"):
        assert ((tmp_path / "real" / file_name).read_bytes()
                == (expected_dir / file_name).read_bytes()), file_name
    securities_for = CostFunction.securities_for
    monkeypatch.setattr(CostFunction, "securities_for",
                        lambda cf, amount, issued:
                        securities_for(cf, amount, issued) + 0.01 * issued)
    assert main(["certify", "--scenario", scenario, "--out", str(tmp_path / "rising")]) == 3
    capsys.readouterr()
    assert ((tmp_path / "rising" / "certification.json").read_bytes()
            == (expected_dir / "certification_rising_allocations.json").read_bytes())


# each bracket the certifier may skip its exact work on: where it is, and
# its answer when it declines
BRACKETS = {"race": (equilibrium, "_follower_race", None),
            "gain": (equilibrium._Evaluator, "bracket", False)}


def _certified_with_and_without(bracket: str, scenario: Path, out: Path, capsys,
                                monkeypatch) -> int:
    """Certify ``scenario`` with the ``bracket`` on and with it declining
    everywhere: PPSN's race bracket every probe state, the securities
    slots' gain bracket every slot. Assert both runs write the same report
    bytes, stdout and exit code, and return the number of times the bracket
    decided."""
    owner, name, declined = BRACKETS[bracket]
    decide = getattr(owner, name)
    decided = []
    monkeypatch.setattr(owner, name, lambda *args: decided.append(decide(*args))
                        or decided[-1])
    runs = []
    for run in ("bracket", "declined"):
        code = main(["certify", "--scenario", str(scenario), "--out", str(out / run)])
        runs.append((code, capsys.readouterr().out,
                     *((out / run / f).read_bytes() for f in ("certification.json",
                                                             "summary.txt"))))
        monkeypatch.setattr(owner, name, lambda *args: declined)
    assert runs[0] == runs[1]
    return sum(answer is not declined for answer in decided)


@pytest.mark.parametrize("agents", [4, 16, 64, 256])
def test_ppsn_race_bracket_keeps_every_generated_report(agents, tmp_path, capsys,
                                                       monkeypatch):
    # the bracket (equilibrium._follower_race) decides PPSN probe states the
    # exact walk would decide the same way, so declining every state
    # changes no byte, stdout line or exit code; seeds 1-10
    decided = 0
    for seed in range(1, 11):
        scenario = generate_scenario(
            ScenarioTemplate(mechanism=Mechanism.PPSN, agent_count=agents), seed=seed)
        path = tmp_path / f"seed{seed}.json"
        save_scenario(scenario, path)
        decided += _certified_with_and_without("race", path, tmp_path / f"seed{seed}",
                                               capsys, monkeypatch)
    assert decided or agents == 4


@pytest.mark.parametrize("name", ["ppsn_four_arrivals", "ppsn_n64_seed15", "ppsn_half_plays",
                                  "ppsn_off_preference"])
def test_ppsn_race_bracket_keeps_every_golden(name, tmp_path, capsys, monkeypatch):
    # the same on every PPSN golden's scenario: the shipped one, the
    # generated n=64 one (seed 15), and the stored half plays and off
    # preference play (both exit 3)
    scenario = GENERATED / name / "scenario.json"
    if name == "ppsn_four_arrivals":
        scenario = ROOT / "scenarios" / f"{name}.json"
    elif name == "ppsn_n64_seed15":
        scenario = tmp_path / "scenario.json"
        save_scenario(generate_scenario(
            ScenarioTemplate(mechanism=Mechanism.PPSN, agent_count=64), seed=15), scenario)
    _certified_with_and_without("race", scenario, tmp_path, capsys, monkeypatch)


SECURITIES = [Mechanism.PPS, Mechanism.PPSN, Mechanism.PPSX]


@pytest.mark.parametrize("agents", [4, 16, 64, 256])
@pytest.mark.parametrize("mechanism", SECURITIES)
def test_gain_bracket_keeps_every_generated_report(mechanism, agents, tmp_path, capsys,
                                                   monkeypatch):
    # the gain bracket (equilibrium._Evaluator.bracket) certifies only
    # securities slots that the exact search certifies too, so declining
    # every slot changes no byte, stdout line or exit code; seeds 1-10
    decided = 0
    for seed in range(1, 11):
        scenario = generate_scenario(
            ScenarioTemplate(mechanism=mechanism, agent_count=agents), seed=seed)
        path = tmp_path / f"seed{seed}.json"
        save_scenario(scenario, path)
        decided += _certified_with_and_without("gain", path, tmp_path / f"seed{seed}",
                                               capsys, monkeypatch)
    assert decided or agents < 16


@pytest.mark.parametrize("name", [
    "ppsn_four_arrivals", "ppsx_five_beliefs", "pps_n64_seed14", "ppsn_n64_seed15",
    "ppsx_n64_seed16", "pps_half_plays", "ppsn_half_plays", "ppsx_half_plays",
    "ppsn_off_preference"])
def test_gain_bracket_keeps_every_golden(name, tmp_path, capsys, monkeypatch):
    # the same on every securities golden's scenario: the two shipped ones,
    # the generated n=64 ones (seeds 14-16), and the stored half plays and
    # off preference play (all four exit 3)
    if name in SCENARIOS:
        scenario = ROOT / "scenarios" / f"{name}.json"
    elif (GENERATED / name / "scenario.json").exists():
        scenario = GENERATED / name / "scenario.json"
    else:
        mechanism, agents, seed = {"pps_n64_seed14": (Mechanism.PPS, 64, 14),
                                   "ppsn_n64_seed15": (Mechanism.PPSN, 64, 15),
                                   "ppsx_n64_seed16": (Mechanism.PPSX, 64, 16)}[name]
        scenario = tmp_path / "scenario.json"
        save_scenario(generate_scenario(
            ScenarioTemplate(mechanism=mechanism, agent_count=agents), seed=seed), scenario)
    _certified_with_and_without("gain", scenario, tmp_path, capsys, monkeypatch)
