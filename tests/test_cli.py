import argparse
import dataclasses
import gc
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evimech
from evimech import cli, fixtures, generators, hierarchy
from evimech.cli import main
from evimech.deception import witness_bet
from evimech.rationals import parse_rational
from evimech.scenario import ValidationReport, parse_scenario, scenario_to_json
from evimech.transport import HallWitness

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def machine(*argv):
    code, out = run_cli(*argv, "--format", "machine")
    return code, json.loads(out)


def test_validate_leading_ok():
    code, report = machine("validate", str(DATA / "leading.json"))
    assert code == 0
    assert report["payload"]["valid"] is True


def test_validate_broken_sum_exit_2():
    code, report = machine("validate", str(DATA / "broken_sum.json"))
    assert code == 2
    messages = [v["message"] for v in report["payload"]["violations"]]
    assert any("sum" in m for m in messages)


def test_validate_missing_file_exit_1():
    code, report = machine("validate", str(DATA / "does_not_exist.json"))
    assert code == 1


def test_validate_malformed_json_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = machine("validate", str(bad))
    assert code == 1


def test_check_npd_leading_fails_with_certificate():
    code, report = machine("check", "npd", str(DATA / "leading.json"))
    assert code == 3
    verdict = report["payload"]["verdict"]
    assert verdict["passed"] is False
    failure = verdict["failures"][0]
    assert (failure["source_state"], failure["target_state"]) == ("H", "M")
    induced = failure["certificates"]["A"]["induced"]
    assert induced == {"{lmh}": "3/5", "{lmh,mh}": "2/5"}


def test_check_nppd_leading_passes():
    code, report = machine("check", "nppd", str(DATA / "leading.json"))
    assert code == 0


def test_check_sm_leading_passes():
    code, _ = machine("check", "sm", str(DATA / "leading.json"))
    assert code == 0


def test_check_npd_perturbed_passes_with_pair_analysis():
    code, report = machine("check", "npd", str(DATA / "perturbed.json"))
    assert code == 0
    analysis = {(row["source_state"], row["target_state"]): row for row in report["payload"]["pair_analysis"]}
    toward_h = analysis[("M", "H")]
    assert toward_h["lie"] == "nonrefutable"
    # the h-collection demand (1/10) and half the top demand are unreachable
    assert toward_h["agents_without_deception"][0]["max_flow"] == "4/5"
    toward_m = analysis[("H", "M")]
    assert toward_m["lie"] == "refutable"
    assert toward_m["witness_mass"]["A"] == "1/10"


@pytest.mark.parametrize(
    "name", ["leading", "perturbed", "pure_deception", "projection", "micro", "appended_article"]
)
def test_check_npd_witnesses_are_scarce_and_give_separating_bets(name):
    path = DATA / f"{name}.json"
    scn = parse_scenario(json.loads(path.read_text()))
    _, report = machine("check", "npd", str(path))
    blocked = [
        (row["source_state"], row["target_state"], entry)
        for row in report["payload"]["pair_analysis"]
        for entry in row["agents_without_deception"]
    ]
    assert blocked
    for truth, lie, entry in blocked:
        emitted = entry["witness"]
        demand, supply = parse_rational(emitted["demand"]), parse_rational(emitted["supply"])
        assert demand > supply
        witness = HallWitness(
            tuple(frozenset(t) for t in emitted["targets"]),
            demand,
            tuple(frozenset(s) for s in emitted["sources"]),
            supply,
        )
        assert witness_bet(scn, entry["agent"], truth, lie, witness).margin > 0


def test_check_nppd_pure_deception_fails_on_h_u():
    code, report = machine("check", "nppd", str(DATA / "pure_deception.json"))
    assert code == 3
    failure = report["payload"]["verdict"]["failures"][0]
    assert (failure["source_state"], failure["target_state"]) == ("H", "U")
    assert failure["certificates"]["A"]["kind"] == "pure"


def test_check_hom_and_eic_on_scenario_embedding():
    code, report = machine("check", "hom", str(DATA / "leading.json"))
    assert code == 0
    assert report["payload"]["k_bar"] == 2
    code, _ = machine("check", "eic", str(DATA / "micro.json"))
    assert code == 0


def test_build_bne_perturbed():
    code, report = machine("build", "bne", str(DATA / "perturbed.json"))
    assert code == 0
    scaling = report["payload"]["mechanism"]["scaling"]
    assert scaling["tau_low"] == "17/1"
    assert scaling["tau_high"] == "279/1"
    assert all(not s.startswith("-") for s in scaling["slack"].values())


def test_build_bne_leading_refused():
    code, report = machine("build", "bne", str(DATA / "leading.json"))
    assert code == 3
    assert report["payload"]["refused"] == "npd"


def test_build_pure_leading():
    code, report = machine("build", "pure", str(DATA / "leading.json"))
    assert code == 0
    assert report["payload"]["mechanism"]["identifier_count"] == 839808


def test_build_am_micro_model():
    code, report = machine("build", "am", str(DATA / "micro_model.json"), "--eps", "1/100")
    assert code == 0
    mech = report["payload"]["mechanism"]
    assert mech["rounds"] == 1601
    assert not mech["chain_slack"]["fine_over_stake"].startswith("-")


def test_audit_claims_perturbed():
    code, report = machine("audit", "claims", str(DATA / "perturbed.json"))
    assert code == 0
    assert report["payload"]["passed"] is True


def test_audit_closure_leading_certifies():
    code, report = machine("audit", "closure", str(DATA / "leading.json"))
    assert code == 0
    replay = report["payload"]["replays"][0]
    assert replay["certified"] is True
    assert replay["on_path_outcomes"] == {"grant_b": "1/1"}


def test_audit_search_micro():
    code, report = machine("audit", "search", str(DATA / "micro.json"), "--budget-pure", "100000")
    assert code == 0
    assert report["payload"]["clean"] is True


def test_audit_icr_micro_model():
    code, report = machine("audit", "icr", str(DATA / "micro_model.json"), "--eps", "1/100")
    assert code == 0
    assert report["payload"]["passed"] is True
    assert report["payload"]["stamp"] == "PROOF_REPLAY"


def test_hierarchy_dump():
    code, report = machine("hierarchy", str(DATA / "leading.json"), "--depth", "2")
    assert code == 0
    types = report["payload"]["types"]
    assert any(key.startswith("A:") for key in types)
    assert all(len(levels) == 3 for levels in types.values())


def test_hierarchy_rejects_negative_depth():
    code, report = machine("hierarchy", str(DATA / "micro_model.json"), "--depth", "-3")
    assert code == 2
    assert report["payload"] == {"error": "depth must be non-negative"}


def test_hierarchy_rejects_depth_beyond_the_type_count():
    # micro_model.json has 4 types: depths up to 5 are dumped, larger ones
    # fail closed before any level is built
    path = str(DATA / "micro_model.json")
    code, report = machine("hierarchy", path, "--depth", "5")
    assert code == 0
    assert all(len(levels) == 6 for levels in report["payload"]["types"].values())
    started = time.perf_counter()
    code, report = machine("hierarchy", path, "--depth", "1000000")
    assert time.perf_counter() - started < 5
    assert code == 2
    assert report["payload"] == {"error": "depth must be at most 5"}


def _no_variation_scenario():
    """Two states no report tells apart; A holds {a, b} at both."""
    dists = {("A", s): {frozenset({"a", "b"}): Fraction(1)} for s in ("s1", "s2")}
    dists.update({("B", s): {frozenset(): Fraction(1)} for s in ("s1", "s2")})
    return fixtures.make_scenario(("A", "B"), ("s1", "s2"), ("a", "b"), dists, {"s1": "o1", "s2": "o2"}, ("o1", "o2"))


def test_type_space_failure_reports_do_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    eic_doc = tmp_path / "eic.json"  # passes HOM, fails EIC
    eic_doc.write_text(json.dumps(scenario_to_json(generators.random_scenario(161005607))))
    hom_doc = tmp_path / "hom.json"
    hom_doc.write_text(json.dumps(scenario_to_json(_no_variation_scenario())))
    for argv in (("check", "eic", eic_doc), ("build", "am", eic_doc), ("check", "hom", hom_doc)):
        runs = set()
        for seed in range(4):
            monkeypatch.setenv("PYTHONHASHSEED", str(seed))
            runs.add(_alone([*map(str, argv), "--format", "machine"]))
        assert len(runs) == 1, argv
        ((code, out, _),) = runs
        assert code == 3 and json.loads(out)["payload"]["failures"], argv


def test_reports_are_byte_identical():
    first = run_cli("check", "npd", str(DATA / "leading.json"), "--format", "machine")
    second = run_cli("check", "npd", str(DATA / "leading.json"), "--format", "machine")
    assert first == second
    human_one = run_cli("audit", "claims", str(DATA / "perturbed.json"))
    human_two = run_cli("audit", "claims", str(DATA / "perturbed.json"))
    assert human_one == human_two


def test_exit_codes_total():
    # every command path ends in {0,1,2,3}, and its report carries the code
    runs = [
        machine("validate", str(DATA / "leading.json")),
        machine("validate", str(DATA / "broken_sum.json")),
        machine("validate", str(DATA / "missing.json")),
        machine("check", "npd", str(DATA / "leading.json")),
    ]
    assert {code for code, _ in runs} <= {0, 1, 2, 3}
    assert [report["exit_code"] for _, report in runs] == [code for code, _ in runs]
    assert runs[2][0] == 1 and runs[2][1]["input_digest"] == ""


def _perturbed_without_profiles(tmp_path):
    data = json.loads((DATA / "perturbed.json").read_text())
    data["utility_profiles"] = []
    path = tmp_path / "no_profiles.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_rejects_empty_utility_profiles(tmp_path):
    code, report = machine("validate", _perturbed_without_profiles(tmp_path))
    assert code == 2
    assert report["payload"]["valid"] is False
    assert [v["path"] for v in report["payload"]["violations"]] == ["utility_profiles"]


@pytest.mark.parametrize("audit", ["claims", "search"])
def test_audit_without_profiles_exits_invalid(tmp_path, audit):
    code, report = machine("audit", audit, _perturbed_without_profiles(tmp_path))
    assert code == 2
    assert [v["path"] for v in report["payload"]["violations"]] == ["utility_profiles"]


@pytest.mark.parametrize("audit, verdict", [("claims", "passed"), ("search", "clean")])
def test_audit_that_ran_no_check_fails(tmp_path, monkeypatch, audit, verdict):
    # past validation, zero profiles means zero audits or games: a failure
    monkeypatch.setattr(cli, "validate_scenario", lambda scn: ValidationReport([]))
    code, report = machine("audit", audit, _perturbed_without_profiles(tmp_path))
    assert code == 3
    assert report["payload"][verdict] is False


def _set_agents_string(data):
    data["agents"] = "AB"


def _add_undeclared_agent(data):
    data["distributions"]["Z"] = data["distributions"]["A"]


def _add_undeclared_scf_state(data):
    data["scf"]["Q"] = "grant_a"


def _add_undeclared_outcome(data):
    data["utility_profiles"][0]["A"]["veto"] = {"H": "0/1"}


@pytest.mark.parametrize(
    "mutate, path",
    [
        (_set_agents_string, "agents"),
        (_add_undeclared_agent, "distributions.Z"),
        (_add_undeclared_scf_state, "scf.Q"),
        (_add_undeclared_outcome, "utility_profiles[0].A.veto"),
    ],
)
def test_validate_rejects_what_it_would_drop(tmp_path, mutate, path):
    data = json.loads((DATA / "perturbed.json").read_text())
    mutate(data)
    doc = tmp_path / "mutated.json"
    doc.write_text(json.dumps(data))
    code, report = machine("validate", str(doc))
    assert code == 2
    assert [v["path"] for v in report["payload"]["violations"]] == [path]


def _no_agents(model):
    model["agents"] = []


def _belief_sum_half(model):
    model["beliefs"]["A"]["s1|{w}"][0]["prob"] = "1/2"


def _zero_belief_entry(model):
    model["beliefs"]["A"]["s1|{w}"].append({"prob": "0", "profile": {"B": "s2|{}"}})


def _utility_of_one(model):
    model["utility_profiles"][0]["A"]["o1"][0]["value"] = "1/1"


def _negative_probability(scenario):
    # sums to 1, so only the sign is wrong
    scenario["distributions"]["A"]["H"] = [
        {"collection": ["lmh"], "prob": "7/5"},
        {"collection": ["lmh", "mh"], "prob": "-2/5"},
    ]


def _misspelled_article_names(scenario):
    # "mh" named for L as well: under the right key that breaks (se2)
    scenario["article_name"] = scenario.pop("article_names")
    scenario["article_name"]["mh"].append("L")


def _unknown_model_key(model):
    model["belief"] = model["beliefs"]


def _unknown_distribution_row_key(scenario):
    scenario["distributions"]["A"]["H"][0]["probability"] = "1/2"


def _unknown_scf_row_key(model):
    model["scf"][0]["outcomes"] = "o9"


def _undeclared_agent_under(key):
    def edit(model):
        section = model[key][0] if key == "utility_profiles" else model[key]
        section["Z"] = section["A"]

    return edit


def _undeclared_evidence_type(model):
    model["evidence_map"]["A"]["s9|{}"] = []


def _violations(*messages):
    return {"violations": list(messages)}


@pytest.mark.parametrize(
    "argv, document, edit, code, payload",
    [
        (("check", "hom"), "micro_model.json", _no_agents, 2, _violations("agents: need at least one agent")),
        (("check", "hom"), "micro_model.json", _belief_sum_half, 2, _violations("beliefs.A.s1|{w}: sum 1/2 != 1")),
        (
            ("check", "hom"),
            "micro_model.json",
            _zero_belief_entry,
            2,
            _violations("beliefs.A.s1|{w}: non-positive entry"),
        ),
        (
            ("check", "hom"),
            "micro_model.json",
            _utility_of_one,
            2,
            _violations("utility_profiles[0].A: value outside (-1,1)"),
        ),
        (
            ("validate",),
            "leading.json",
            _negative_probability,
            2,
            {
                "valid": False,
                "violations": [{"path": "distributions.A.H", "message": "non-positive probability on {lmh,mh}"}],
            },
        ),
        (
            ("validate",),
            "leading.json",
            _misspelled_article_names,
            2,
            {"valid": False, "violations": [{"path": "article_name", "message": "unknown key"}]},
        ),
        (("check", "hom"), "micro_model.json", _unknown_model_key, 2, _violations("belief: unknown key")),
        (
            ("validate",),
            "leading.json",
            _unknown_distribution_row_key,
            2,
            {"valid": False, "violations": [{"path": "distributions.A.H", "message": "unknown key 'probability'"}]},
        ),
        (("check", "hom"), "micro_model.json", _unknown_scf_row_key, 2, _violations("scf: unknown key 'outcomes'")),
        *(
            (("check", "hom"), "micro_model.json", _undeclared_agent_under(key), 2, _violations(message))
            for key, message in (
                ("types", "types.Z: undeclared agent"),
                ("beliefs", "beliefs.Z: undeclared agent"),
                ("utility_profiles", "utility_profiles[0].Z: undeclared agent"),
            )
        ),
        (
            ("check", "hom"),
            "micro_model.json",
            _undeclared_evidence_type,
            2,
            _violations("evidence_map.A.s9|{}: undeclared type"),
        ),
        (("validate",), [], None, 1, {"error": "scenario document must be an object"}),
        (("check", "hom"), 5, None, 1, {"error": "model document must be an object"}),
        (("check", "hom"), ["types"], None, 1, {"error": "model document must be an object"}),
        (("build", "am", "--eps", "1/2/3"), "micro_model.json", None, 1, {"error": "bad rational '1/2/3'"}),
    ],
    ids=[
        "no-agent",
        "belief-sum",
        "belief-entry",
        "utility-range",
        "negative-probability",
        "scenario-unknown-key",
        "model-unknown-key",
        "distribution-row-unknown-key",
        "scf-row-unknown-key",
        "types-undeclared-agent",
        "beliefs-undeclared-agent",
        "utility-undeclared-agent",
        "evidence-undeclared-type",
        "scenario-not-object",
        "model-not-object",
        "model-list",
        "rational-two-slashes",
    ],
)
def test_each_input_check_fails_closed_on_the_one_rule_it_breaks(tmp_path, argv, document, edit, code, payload):
    # every other rule holds: the one broken rule is the whole payload
    data = json.loads((DATA / document).read_text()) if isinstance(document, str) else document
    if edit is not None:
        edit(data)
    doc = tmp_path / "input.json"
    doc.write_text(json.dumps(data))
    # the command (and its choice), the document, then any flags
    got, report = machine(*argv[:2], str(doc), *argv[2:])
    assert (got, report["payload"]) == (code, payload)


def test_separating_level_is_none_for_an_inseparable_pair():
    model = hierarchy.embed_flat_scenario(_no_variation_scenario())
    verdict = hierarchy.check_higher_order_measurability(model)
    assert not verdict.passed and verdict.failures
    for pair in verdict.failures:
        assert hierarchy.separating_level(verdict, model, *pair) is None


_SEQUENCE = (
    ("check", "bogus", str(DATA / "leading.json")),  # usage error: exit 2
    ("validate", str(DATA / "leading.json")),
    ("check", "npd", str(DATA / "leading.json")),
)


def _alone(argv):
    """Exit code, stdout and stderr of one command in a fresh interpreter."""
    package_root = str(Path(evimech.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, COLUMNS="80", PYTHONIOENCODING="utf-8", PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "evimech.cli", *argv], capture_output=True, env=env, timeout=120
    )
    return done.returncode, done.stdout, done.stderr


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_commands_in_one_process_write_what_each_writes_alone(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    together = [_in_process(argv) for argv in _SEQUENCE]
    assert [run[0] for run in together] == [2, 0, 3]
    assert together == [_alone(argv) for argv in _SEQUENCE]


def test_repeated_calls_leave_no_parser_garbage():
    _in_process(_SEQUENCE[1])  # builds the parser
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in _SEQUENCE[1:] * 3:
            _in_process(argv)
        gc.collect()
        leftovers = [obj for obj in gc.garbage if type(obj).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leftovers == []


# -- the leaf table ---------------------------------------------------------------

# (command, choice) -> an input and the flags that leaf's handler reads, written
# out here so that the parser's table is checked against it
LEAF_READS = {
    ("validate", None): ("leading.json", ()),
    ("check", "sm"): ("leading.json", ()),
    ("check", "npd"): ("leading.json", ()),
    ("check", "nppd"): ("leading.json", ()),
    ("check", "hom"): ("leading.json", ()),
    ("check", "eic"): ("micro.json", ()),
    ("build", "bne"): ("perturbed.json", ()),
    ("build", "pure"): ("leading.json", ("--budget-z",)),
    ("build", "am"): ("micro_model.json", ("--eps",)),
    ("audit", "claims"): ("perturbed.json", ()),
    ("audit", "closure"): ("leading.json", ()),
    ("audit", "search"): ("micro.json", ("--seed", "--budget-pure", "--budget-plan")),
    ("audit", "icr"): ("micro_model.json", ("--eps",)),
    ("hierarchy", None): ("leading.json", ("--depth",)),
}
FLAG_VALUES = {
    "--seed": 3,
    "--budget-pure": 100000,
    "--budget-plan": 64,
    "--budget-z": 900000,
    "--eps": "1/50",
    "--depth": 2,
}
CHOICE_DESTS = {"check": "which", "build": "variant", "audit": "suite"}
LEAVES = sorted(LEAF_READS, key=str)


def _leaf_argv(leaf):
    command, choice = leaf
    document = str(DATA / LEAF_READS[leaf][0])
    return [command, document] if choice is None else [command, choice, document]


def _leaf_id(leaf):
    return " ".join(filter(None, leaf))


def _dest(flag):
    return flag[2:].replace("-", "_")


def test_the_leaf_table_is_the_one_written_out_here():
    assert cli.LEAVES == {leaf: flags for leaf, (_, flags) in LEAF_READS.items()}
    assert set(cli.FLAGS) == set(FLAG_VALUES)
    # 14 leaves x 6 flags: --depth on `hierarchy` and 6 pairs of the other five
    assert sum(map(len, cli.LEAVES.values())) == 7


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("leaf", LEAVES, ids=_leaf_id)
def test_a_leaf_accepts_exactly_the_flags_it_reads(leaf, flag):
    code, out, err = _in_process([*_leaf_argv(leaf), flag, str(FLAG_VALUES[flag]), "--format", "machine"])
    if flag not in LEAF_READS[leaf][1]:
        assert (code, out) == (2, b"")
        assert f"unrecognized arguments: {flag}".encode() in err
        return
    assert code in (0, 3) and err == b""
    report = json.loads(out)
    assert report["exit_code"] == code
    assert report["config"][_dest(flag)] == FLAG_VALUES[flag]
    # only the full spelling
    code, out, err = _in_process([*_leaf_argv(leaf), flag[:-1], str(FLAG_VALUES[flag])])
    assert (code, out) == (2, b"")


@pytest.mark.parametrize("leaf", LEAVES, ids=_leaf_id)
def test_config_echoes_the_format_the_choice_and_the_flags_the_leaf_reads(leaf):
    code, report = machine(*_leaf_argv(leaf))
    command, choice = leaf
    expected = {"format"} | {_dest(flag) for flag in LEAF_READS[leaf][1]}
    assert set(report["config"]) == (expected if choice is None else expected | {CHOICE_DESTS[command]})
    assert report["exit_code"] == code
    assert _in_process([*_leaf_argv(leaf), "--forma", "machine"])[:2] == (2, b"")


@pytest.mark.parametrize("leaf", LEAVES, ids=_leaf_id)
def test_each_handler_reads_exactly_the_flags_of_its_leaf(leaf):
    args = cli.build_parser().parse_args(_leaf_argv(leaf))
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    cli.COMMANDS[leaf[0]][0](Recording(**vars(args)), json.loads(Path(args.path).read_text()))
    read = {name for name in read if not name.startswith("_")} - set(CHOICE_DESTS.values())
    assert read == {_dest(flag) for flag in LEAF_READS[leaf][1]}


@pytest.mark.parametrize(
    "abbreviated, full",
    [(("--budget", "5"), ("--budget-z", "5")), (("--form", "machine"), ("--format", "machine"))],
    ids=["--budget", "--form"],
)
def test_abbreviated_flags_exit_2_and_full_spellings_parse(abbreviated, full):
    argv = ["build", "pure", str(DATA / "leading.json")]
    code, out, err = _in_process([*argv, *abbreviated])
    assert (code, out) == (2, b"")
    assert f"unrecognized arguments: {' '.join(abbreviated)}".encode() in err
    code, out, err = _in_process([*argv, *full])
    assert code in (0, 3) and out and err == b""
    # the root parser's own flag too
    assert _in_process(["--hel"])[:2] == (2, b"")


# -- utilities as wide as validation accepts ---------------------------------------

# fixtures with one more utility profile, 99/100 for the first outcome and
# -99/100 for the other, at every state
WIDE = ("perturbed_wide.json", "appended_article_wide.json", "micro_wide.json")


@pytest.mark.parametrize("command", [("build", "bne"), ("build", "pure"), ("audit", "claims"), ("audit", "search")], ids=" ".join)
@pytest.mark.parametrize("document", WIDE)
def test_wide_utilities_refuse_or_build_a_mechanism_whose_truthful_play_verifies(document, command):
    code, report = machine(*command, str(DATA / document))
    payload = report["payload"]
    if code == 3:
        # refused before anything is built or audited, naming why
        assert payload["refused"] in ("slack", "z-overflow"), payload
        if payload["refused"] == "slack":
            assert payload["slacks"] and all(Fraction(v) <= 0 for v in payload["slacks"].values())
        return
    assert code == 0 and report["exit_code"] == 0
    if command[0] == "audit":
        assert payload.get("passed", payload.get("clean")) is True
        return
    scn = evimech.parse_scenario(json.loads((DATA / document).read_text()))
    mech = (evimech.build_bne_mechanism if command[1] == "bne" else evimech.build_pure_mechanism)(scn)
    for idx in range(len(scn.utility_profiles)):
        for state in scn.states:
            g = evimech.BayesianGame(scn, mech, state, idx)
            assert evimech.verify_bne(g, evimech.truthful_profile(g)).is_bne, (state, idx)


# -- golden reports ---------------------------------------------------------------

README = Path(__file__).parent.parent / "README.md"
GOLDEN = DATA / "golden"


def _readme_commands():
    """The argv of every `evimech ...` line in the README, fixtures read from DATA."""
    commands = []
    for line in README.read_text().splitlines():
        if line.startswith("evimech "):
            argv = shlex.split(line.split("#")[0])[1:]
            commands.append(tuple(str(DATA / Path(a).name) if a.endswith(".json") else a for a in argv))
    return commands


def _golden_name(argv):
    positional = itertools.takewhile(lambda a: not a.startswith("--"), argv)
    return "_".join(Path(a).stem if a.endswith(".json") else a for a in positional)


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv", README_COMMANDS, ids=_golden_name)
def test_readme_command_report_matches_golden(argv):
    _, out = run_cli(*argv, "--format", "machine")
    assert out == (GOLDEN / f"{_golden_name(argv)}.json").read_text()


def test_human_report_matches_golden():
    _, out = run_cli("build", "bne", str(DATA / "perturbed.json"), "--format", "human")
    assert out == (GOLDEN / "build_bne_perturbed.txt").read_text()


# Two generated flat scenarios from the band of product type spaces the cli
# benchmark runs its type-space commands on (`random_scenario(25)`, 48 type
# profiles over 3 agents, and `random_scenario(33)`, 56 over 2 agents, EIC
# failing), written with `scenario_to_json`, and each command's report.
CLI_BAND = DATA / "cli_band"


def _type_space_argvs(path):
    return [
        ("check", "hom", path),
        ("check", "eic", path),
        ("build", "am", path, "--eps", "1/100"),
        ("audit", "icr", path, "--eps", "1/100"),
        ("hierarchy", path, "--depth", "2"),
    ]


TYPE_SPACE_ARGVS = [argv for path in sorted(CLI_BAND.glob("*.json")) for argv in _type_space_argvs(str(path))]


@pytest.mark.parametrize("argv", TYPE_SPACE_ARGVS, ids=_golden_name)
def test_type_space_command_report_matches_golden(argv):
    _, out = run_cli(*argv, "--format", "machine")
    assert out == (GOLDEN / f"{_golden_name(argv)}.json").read_text()


def test_cli_band_scenarios_are_generated_documents():
    for seed in (25, 33):
        scn = generators.random_scenario(seed)
        assert 30 <= math.prod(sum(len(scn.support(a, s)) for s in scn.states) for a in scn.agents) <= 60
        text = json.dumps(scenario_to_json(scn), indent=2, sort_keys=True) + "\n"
        assert (CLI_BAND / f"random_{seed}.json").read_text() == text


def test_golden_reports_are_the_readme_commands():
    # the README commands, the one human report, and the type-space commands
    # on the two generated scenarios
    assert len(README_COMMANDS) == 12 and len(TYPE_SPACE_ARGVS) == 10
    names = {f"{_golden_name(argv)}.json" for argv in README_COMMANDS + TYPE_SPACE_ARGVS} | {"build_bne_perturbed.txt"}
    assert names == {path.name for path in GOLDEN.iterdir()}


def test_readme_python_blocks_run():
    # the worked session and any other python block of the README, in order
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 1
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


# -- type-space models ------------------------------------------------------------

MODEL_COMMANDS = (("build", "am"), ("check", "hom"), ("check", "eic"))


def _model_runs(tmp_path, mutate):
    data = json.loads((DATA / "micro_model.json").read_text())
    mutate(data)
    doc = tmp_path / "model.json"
    doc.write_text(json.dumps(data))
    return [machine(*command, str(doc)) for command in MODEL_COMMANDS]


def _set_belief_prob(value):
    def mutate(data):
        data["beliefs"]["A"]["s1|{w}"][0]["prob"] = value
    return mutate


def _set_utility_value(data):
    data["utility_profiles"][0]["A"]["o1"][0]["value"] = "x"


@pytest.mark.parametrize(
    "mutate", [_set_belief_prob(True), _set_belief_prob("x"), _set_utility_value], ids=["prob-true", "prob-x", "value-x"]
)
def test_model_with_unreadable_rational_exits_1(tmp_path, mutate):
    for code, report in _model_runs(tmp_path, mutate):
        assert code == 1
        assert "rational" in report["payload"]["error"]


def _scf_names_undeclared_outcome(data):
    data["scf"][0]["outcome"] = "veto"


def _belief_names_undeclared_type(data):
    data["beliefs"]["A"]["s1|{w}"][0]["profile"]["B"] = "ghost"


def _utility_for_undeclared_outcome(data):
    data["utility_profiles"][0]["A"]["veto"] = data["utility_profiles"][0]["A"]["o1"]


def _evidence_names_undeclared_article(data):
    data["evidence_map"]["A"]["s1|{w}"].append("zzz")


def _belief_profile_names_unknown_agent(data):
    data["beliefs"]["A"]["s1|{w}"][0]["profile"]["ZZZ"] = "nope"


def _belief_profile_names_own_agent(data):
    data["beliefs"]["A"]["s1|{w}"][0]["profile"]["A"] = "s1|{w}"


def _scf_profile_names_unknown_agent(data):
    data["scf"][0]["profile"]["ZZZ"] = "nope"


def _utility_profile_names_unknown_agent(data):
    for row in data["utility_profiles"][0]["A"]["o1"]:
        row["profile"]["ZZZ"] = "nope"


def _belief_row_unknown_key(data):
    data["beliefs"]["A"]["s1|{w}"][0]["weight"] = "1/2"


def _utility_row_unknown_key(data):
    for row in data["utility_profiles"][0]["A"]["o1"]:
        row["note"] = "x"


def _belief_for_undeclared_type(data):
    data["beliefs"]["A"]["ghost"] = data["beliefs"]["A"]["s1|{w}"]


@pytest.mark.parametrize(
    "mutate, violation",
    [
        (_scf_names_undeclared_outcome, "scf: undeclared outcome 'veto' for ('s1|{w}', 's1|{}')"),
        (_belief_names_undeclared_type, "beliefs.A.s1|{w}: undeclared type 'ghost' of B"),
        (_utility_for_undeclared_outcome, "utility_profiles[0].A.veto: undeclared outcome"),
        (_evidence_names_undeclared_article, "evidence_map.A.s1|{w}: unknown article ids ['zzz']"),
        (_belief_profile_names_unknown_agent, "beliefs.A.s1|{w}: unexpected profile key 'ZZZ'"),
        (_belief_profile_names_own_agent, "beliefs.A.s1|{w}: unexpected profile key 'A'"),
        (_scf_profile_names_unknown_agent, "scf: unexpected profile key 'ZZZ'"),
        (_utility_profile_names_unknown_agent, "utility_profiles[0].A.o1: unexpected profile key 'ZZZ'"),
        (_belief_row_unknown_key, "beliefs.A.s1|{w}: unknown key 'weight'"),
        (_utility_row_unknown_key, "utility_profiles[0].A.o1: unknown key 'note'"),
        (_belief_for_undeclared_type, "beliefs.A.ghost: undeclared type"),
    ],
    ids=[
        "scf-outcome",
        "belief-type",
        "utility-outcome",
        "evidence-article",
        "belief-profile-key",
        "belief-own-key",
        "scf-profile-key",
        "utility-profile-key",
        "belief-row-key",
        "utility-row-key",
        "belief-undeclared-type",
    ],
)
def test_model_validation_rejects_undeclared_ids(tmp_path, mutate, violation):
    for code, report in _model_runs(tmp_path, mutate):
        assert code == 2
        assert report["payload"]["violations"] == [violation]


@pytest.mark.parametrize("source", ["micro_model.json", "random_scenario(23)"])
def test_audit_icr_compiles_tables_once_and_values_each_type_once(tmp_path, monkeypatch, source):
    """One set of integer tables per model; the EIC check and the elimination's
    outcome rounds share each (utility profile, agent, type) valuation."""
    path = DATA / source
    if source.startswith("random"):
        path = tmp_path / "random.json"
        path.write_text(json.dumps(scenario_to_json(generators.random_scenario(23))))
    compiled, valued = [], []
    real_init, real_value = hierarchy.ModelTables.__init__, hierarchy.ModelTables._value_reports

    def counting_init(self, model):
        compiled.append(model)
        real_init(self, model)

    def counting_value(self, idx, agent, type_id):
        valued.append((idx, agent, type_id))
        return real_value(self, idx, agent, type_id)

    monkeypatch.setattr(hierarchy.ModelTables, "__init__", counting_init)
    monkeypatch.setattr(hierarchy.ModelTables, "_value_reports", counting_value)
    code, report = machine("audit", "icr", str(path), "--eps", "1/100")
    assert code == 0 and report["payload"]["passed"]
    assert [stage["name"] for stage in report["payload"]["stages"]][-1] == "outcome_rounds"
    assert len(compiled) == 1
    model = compiled[0]
    every = [(idx, a, t) for idx in range(len(model.utility_profiles)) for a in model.agents for t in model.types[a]]
    assert len(every) > 4
    assert valued == every


def _duplicate(key, agent=None):
    def mutate(data):
        ids = data[key] if agent is None else data[key][agent]
        ids.append(ids[0])
    return mutate


@pytest.mark.parametrize(
    "mutate, violation",
    [
        (_duplicate("agents"), "agents: duplicate ids"),
        (_duplicate("types", "B"), "types.B: duplicate ids"),
        (_duplicate("outcomes"), "outcomes: duplicate ids"),
        (_duplicate("articles"), "articles: duplicate ids"),
    ],
    ids=["agents", "types", "outcomes", "articles"],
)
def test_model_validation_rejects_duplicate_ids(tmp_path, mutate, violation):
    for code, report in _model_runs(tmp_path, mutate):
        assert code == 2
        assert report["payload"]["violations"] == [violation]


# -- fuzzed documents -------------------------------------------------------------

FUZZ_COMMANDS = (
    ("validate",),
    *(("check", which) for which in ("sm", "npd", "nppd", "hom", "eic")),
    *(("build", variant) for variant in ("bne", "pure", "am")),
    *(("audit", suite) for suite in ("claims", "closure", "search", "icr")),
    ("hierarchy",),
)
# small budgets, each passed to the one leaf that reads it
FUZZ_BUDGETS = {
    ("audit", "search"): ("--budget-pure", "64", "--budget-plan", "16"),
    ("build", "pure"): ("--budget-z", "5000"),
}
FUZZ_DOCUMENTS = {path.name: json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))}
_DELETE = object()
# a deleted key or list entry, or a value swapped for null, a string, a
# negative number, a list or an object
FUZZ_REPLACEMENTS = (_DELETE, None, "x", "1/2", -1, [], ["x"], {}, {"x": "x"})


def _json_paths(value, prefix=()):
    """Every key or index path into a JSON document, the root excluded."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _mutated(document, path, replacement):
    doc = json.loads(json.dumps(document))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = json.loads(json.dumps(replacement))
    return doc


@st.composite
def _fuzzed_documents(draw):
    name = draw(st.sampled_from(sorted(FUZZ_DOCUMENTS)))
    document = FUZZ_DOCUMENTS[name]
    path = draw(st.sampled_from(list(_json_paths(document))))
    return _mutated(document, path, draw(st.sampled_from(FUZZ_REPLACEMENTS)))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(document=_fuzzed_documents())
def test_every_command_fails_closed_on_fuzzed_documents(fuzz_path, document):
    fuzz_path.write_text(json.dumps(document))
    for command in FUZZ_COMMANDS:
        argv = [*command, str(fuzz_path), *FUZZ_BUDGETS.get(command, ()), "--format", "machine"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (command, document)
        report = json.loads(out.getvalue())
        assert report["command"] == command[0]
        assert report["exit_code"] == code, (command, document)
        assert err.getvalue() == "", (command, document)


# -- flag values --------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("audit", "search", "micro.json", "--budget-pure", "-1"), "budget-pure"),
        (("audit", "search", "micro.json", "--budget-plan", "-5"), "budget-plan"),
        (("build", "pure", "leading.json", "--budget-z", "-1"), "budget-z"),
    ],
)
def test_negative_budget_exit_2(argv, flag):
    code, report = machine(*(str(DATA / a) if a.endswith(".json") else a for a in argv))
    assert code == 2 and report["exit_code"] == 2
    assert report["payload"] == {"error": f"{flag} must be non-negative"}


@pytest.mark.parametrize("leaf", [("build", "am"), ("audit", "icr")])
@pytest.mark.parametrize(
    "eps, code, error",
    [
        ("1/0", 1, "bad rational '1/0'"),
        ("tiny", 1, "bad rational 'tiny'"),
        ("0", 2, "eps must be strictly positive"),
        ("-1/2", 2, "eps must be strictly positive"),
    ],
)
@pytest.mark.parametrize("joined", [True, False], ids=["--eps=VALUE", "--eps VALUE"])
def test_eps_must_be_a_positive_rational(leaf, eps, code, error, joined):
    flag = [f"--eps={eps}"] if joined else ["--eps", eps]
    exit_code, report = machine(*leaf, str(DATA / "micro_model.json"), *flag)
    assert exit_code == code and report["exit_code"] == code
    assert report["config"]["eps"] == eps
    assert report["payload"]["error"].startswith(error)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("hierarchy", "leading.json", "--depth", "-1/2"), "--depth"),
        (("audit", "search", "micro.json", "--seed", "-1/2"), "--seed"),
        (("build", "pure", "leading.json", "--budget-z", "-1/2"), "--budget-z"),
    ],
)
def test_only_eps_takes_a_negative_rational_as_its_value(argv, flag):
    code, out, err = _in_process([str(DATA / a) if a.endswith(".json") else a for a in argv])
    assert (code, out) == (2, b"")
    assert f"argument {flag}: expected one argument".encode() in err


@pytest.mark.parametrize("leaf", [("build", "am"), ("audit", "icr")])
def test_small_transfers_refused_without_hom(tmp_path, leaf):
    # A's evidence at H copies M's, B's is constant: M and H look the same to
    # every agent at every order, yet their outcomes differ
    scn = fixtures.leading_example()
    dists = dict(scn.dists)
    dists[("A", "H")] = scn.dist("A", "M")
    path = tmp_path / "no_hom.json"
    path.write_text(json.dumps(scenario_to_json(dataclasses.replace(scn, dists=dists))))
    assert machine("check", "hom", str(path))[1]["payload"]["passed"] is False
    code, report = machine(*leaf, str(path))
    assert code == 3
    assert report["payload"] == {"refused": "hom"}


@pytest.mark.parametrize("leaf", [("build", "am"), ("audit", "icr")])
def test_small_transfers_refused_without_eic(tmp_path, leaf):
    # the embedding of random_scenario(3) passes HOM and fails EIC: both
    # leaves refuse and list the failures `check eic` reports
    path = tmp_path / "no_eic.json"
    path.write_text(json.dumps(scenario_to_json(generators.random_scenario(3))))
    assert machine("check", "hom", str(path))[1]["payload"]["passed"] is True
    code, eic = machine("check", "eic", str(path))
    assert code == 3 and eic["payload"]["failures"]
    code, report = machine(*leaf, str(path))
    assert code == 3
    assert report["payload"] == {"refused": "eic", "failures": eic["payload"]["failures"]}


def test_reports_refuse_values_json_cannot_carry():
    from evimech.reporting import jsonable

    assert jsonable({"b": [Fraction(1, 2), (1, None)], "a": True}) == {"a": True, "b": ["1/2", [1, None]]}
    for bad in ({frozenset({"x"}): 1}, {("s", "t"): 1}, {1: 1}, {"x": frozenset()}, [{"y"}], object()):
        with pytest.raises(TypeError):
            jsonable(bad)


def test_human_rendering_writes_empty_containers():
    from evimech.reporting import render_human

    assert render_human({"b": [], "a": {}, "c": {"d": {}}}) == "b    []\na    {}\nc.d  {}\n"
    assert render_human({}) == "  {}\n"
