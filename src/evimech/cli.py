"""Command-line front end: validate / check / build / audit / hierarchy."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import conditions, game, hierarchy, mechanism, reporting, smalltransfers
from .deception import PurePlan, induced_distribution
from .rationals import RationalFormatError, parse_rational
from .scenario import (
    Scenario,
    ScenarioFormatError,
    contested_lies,
    format_collection,
    parse_scenario,
    validate_scenario,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_FAIL = 3


class _Abort(Exception):
    def __init__(self, code, payload):
        self.code = code
        self.payload = payload


# -- serializers ----------------------------------------------------------------


def _dist_payload(dist):
    return {format_collection(c): p for c, p in dist.items()}


def _plan_payload(plan):
    if isinstance(plan, PurePlan):
        return {
            "kind": "pure",
            "agent": plan.agent,
            "source_state": plan.source_state,
            "target_state": plan.target_state,
            "assignment": [
                {"source": sorted(src), "target": sorted(dst)} for src, dst in plan.assignment
            ],
        }
    return {
        "kind": "transport",
        "agent": plan.agent,
        "source_state": plan.source_state,
        "target_state": plan.target_state,
        "flows": [
            {"source": sorted(src), "target": sorted(dst), "mass": flow}
            for src, dst, flow in plan.flows
        ],
        "induced": _dist_payload(induced_distribution(plan)),
    }


def _verdict_payload(verdict):
    return {
        "condition": verdict.condition,
        "passed": verdict.passed,
        "failures": [
            {
                "source_state": f.source_state,
                "target_state": f.target_state,
                "note": f.note,
                "certificates": {a: _plan_payload(p) for a, p in f.certificates.items()},
            }
            for f in verdict.failures
        ],
    }


def _eic_failures_payload(verdict):
    label = hierarchy._type_to_str
    return [
        {"profile": idx, "agent": agent, "type": label(t), "report": label(r), "gain": g}
        for idx, agent, t, r, g in verdict.failures
    ]


# -- input handling ---------------------------------------------------------------


def _read(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise _Abort(EXIT_IO, {"error": f"cannot read {path}: {exc}"})


def _parse_json(raw: bytes):
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _Abort(EXIT_IO, {"error": f"not a JSON document: {exc}"})


def _load_scenario(data) -> Scenario:
    try:
        scn = parse_scenario(data)
    except ScenarioFormatError as exc:
        raise _Abort(EXIT_IO, {"error": str(exc)})
    report = validate_scenario(scn)
    if not report.valid:
        raise _Abort(EXIT_INVALID, {"violations": report.violations})
    return scn


def _load_model(data):
    if "types" in data:
        try:
            model = hierarchy.parse_model(data)
        except hierarchy.ModelFormatError as exc:
            raise _Abort(EXIT_IO, {"error": str(exc)})
        problems = hierarchy.validate_model(model)
        if problems:
            raise _Abort(EXIT_INVALID, {"violations": problems})
        return model, "model"
    scn = _load_scenario(data)
    return hierarchy.embed_flat_scenario(scn), "embedded-scenario"


def _built(scn, variant="bne", z_cap=None):
    """The bne or pure mechanism for `scn`; a refusal aborts with exit 3 and
    names what the builder refused on."""
    try:
        if variant == "bne":
            return mechanism.build_bne_mechanism(scn)
        return mechanism.build_pure_mechanism(scn, z_cap=z_cap)
    except mechanism.NpdViolation as exc:
        raise _Abort(EXIT_FAIL, {"refused": "npd", "verdict": _verdict_payload(exc.verdict)})
    except mechanism.NppdViolation as exc:
        raise _Abort(EXIT_FAIL, {"refused": "nppd", "verdict": _verdict_payload(exc.verdict)})
    except mechanism.ZOverflow as exc:
        raise _Abort(EXIT_FAIL, {"refused": "z-overflow", "detail": str(exc)})
    except mechanism.SlackViolation as exc:
        raise _Abort(EXIT_FAIL, {"refused": "slack", "slacks": exc.slacks})


def _built_small(args, data):
    """(small-transfer mechanism, input kind) for the model or embedded
    scenario and `--eps`; a refusal aborts with exit 3 and names the failed
    condition, with the EIC failures when EIC fails."""
    model, source = _load_model(data)
    eps = _parse_eps(args.eps)
    try:
        return smalltransfers.build_small_transfer_mechanism(model, eps), source
    except smalltransfers.HomViolation:
        raise _Abort(EXIT_FAIL, {"refused": "hom"})
    except smalltransfers.EicViolation as exc:
        raise _Abort(EXIT_FAIL, {"refused": "eic", "failures": _eic_failures_payload(exc.verdict)})


def _budget(args, flag):
    """The value of a budget flag; exit 2 when it is negative."""
    value = getattr(args, flag[2:].replace("-", "_"))
    if value < 0:
        raise _Abort(EXIT_INVALID, {"error": f"{flag[2:]} must be non-negative"})
    return value


def _parse_eps(text):
    try:
        eps = parse_rational(text)
    except RationalFormatError as exc:
        raise _Abort(EXIT_IO, {"error": str(exc)})
    if eps <= 0:
        raise _Abort(EXIT_INVALID, {"error": "eps must be strictly positive"})
    return eps


# -- commands ---------------------------------------------------------------------


def cmd_validate(args, data):
    try:
        scn = parse_scenario(data)
    except ScenarioFormatError as exc:
        raise _Abort(EXIT_IO, {"error": str(exc)})
    report = validate_scenario(scn)
    payload = {"valid": report.valid, "violations": report.violations}
    return (EXIT_OK if report.valid else EXIT_INVALID), payload


def cmd_check(args, data):
    which = args.which
    if which in ("sm", "npd", "nppd"):
        scn = _load_scenario(data)
        checker = {
            "sm": conditions.check_stochastic_measurability,
            "npd": conditions.check_npd,
            "nppd": conditions.check_nppd,
        }[which]
        verdict = checker(scn)
        payload = {"verdict": _verdict_payload(verdict)}
        if which == "npd":
            payload["pair_analysis"] = [
                conditions.pair_blocking_report(scn, s, s_prime) for s, s_prime, _ in contested_lies(scn, None)
            ]
        return (EXIT_OK if verdict.passed else EXIT_FAIL), payload
    model, source = _load_model(data)
    if which == "hom":
        verdict = hierarchy.check_higher_order_measurability(model)
        payload = {
            "input": source,
            "passed": verdict.passed,
            "stabilization": verdict.stabilization,
            "k_bar": verdict.k_bar,
            "failures": [
                [[hierarchy._type_to_str(t) for t in profile] for profile in pair] for pair in verdict.failures
            ],
        }
        return (EXIT_OK if verdict.passed else EXIT_FAIL), payload
    verdict = hierarchy.check_evidence_ic(model)
    payload = {"input": source, "passed": verdict.passed, "failures": _eic_failures_payload(verdict)}
    return (EXIT_OK if verdict.passed else EXIT_FAIL), payload


def cmd_build(args, data):
    if args.variant in ("bne", "pure"):
        scn = _load_scenario(data)
        z_cap = _budget(args, "--budget-z") if args.variant == "pure" else None
        mech = _built(scn, args.variant, z_cap)
        return EXIT_OK, {"mechanism": mechanism.mechanism_report(mech)}
    mech, source = _built_small(args, data)
    payload = {
        "input": source,
        "eps": mech.eps,
        "k_bar": mech.k_bar,
        "beta": mech.beta,
        "beta_bar": {a: v for a, v in mech.beta_bar.items()},
        "rounds": mech.rounds,
        "first_deviant_fine": mech.first_deviant_fine,
        "mismatch_fine": mech.mismatch_fine,
        "transfer_bound": mech.transfer_bound(),
        "chain_slack": mech.chain_slack(),
    }
    return EXIT_OK, {"mechanism": payload}


def _audit_claims(args, data):
    scn = _load_scenario(data)
    mech = _built(scn)
    suite = game.claim_audits(scn, mech)
    payload = {
        "passed": suite.passed,
        "audits": [
            {"name": r.name, "passed": r.passed, "vacuous": r.vacuous} for r in suite.results
        ],
    }
    return (EXIT_OK if suite.passed else EXIT_FAIL), payload


def _audit_closure(args, data):
    scn = _load_scenario(data)
    verdict = conditions.check_npd(scn)
    direct = game.DirectMechanism(scn)
    profile_idx = scn.constant_profile_index() or 0
    if verdict.passed:
        return EXIT_OK, {
            "npd": "PASS",
            "note": "no perfect deception toward an outcome-distinct nonrefutable lie; nothing to replay",
        }
    replays = []
    all_certified = True
    for failure in verdict.failures:
        report = game.deception_closure_audit(
            scn, direct, failure.source_state, failure.certificates, profile_idx
        )
        replays.append(
            {
                "source_state": report.source_state,
                "target_state": report.target_state,
                "premise_is_bne": report.premise_is_bne,
                "composed_is_bne": report.composed_is_bne,
                "on_path_outcomes": report.on_path_outcomes,
                "certified": report.certified,
            }
        )
        all_certified = all_certified and report.certified
    payload = {"npd": "FAIL", "replays": replays, "all_certified": all_certified}
    # the audit *expects* the deception equilibrium on NPD-violating input
    return (EXIT_OK if all_certified else EXIT_FAIL), payload


def _audit_search(args, data):
    scn = _load_scenario(data)
    budget = game.SearchBudget(pure_cap=_budget(args, "--budget-pure"), plan_cap=_budget(args, "--budget-plan"))
    mech = _built(scn)
    clean = True
    rows = []
    for profile_idx in range(len(scn.utility_profiles)):
        for state in scn.states:
            g = game.BayesianGame(scn, mech, state, profile_idx)
            results, flags = game.search_equilibria(g, budget, seed=args.seed)
            reports = [item["report"] for item in results]
            bad = [r for r in reports if not (r.implements(scn.scf[state]) and r.transfers_zero)]
            clean = clean and not bad
            rows.append(
                {
                    "state": state,
                    "profile": profile_idx,
                    "found": len(results),
                    "off_path": len(bad),
                    "flags": flags,
                }
            )
    clean = clean and bool(rows)  # no pass when zero games were searched
    return (EXIT_OK if clean else EXIT_FAIL), {"clean": clean, "games": rows}


def _audit_icr(args, data):
    mech, source = _built_small(args, data)
    report = smalltransfers.eliminate_rationalizable(mech)
    payload = {
        "input": source,
        "passed": report.passed,
        "stamp": report.stamp,
        "stages": [{"name": s.name, "passed": s.passed} for s in report.stages],
        "outcome_ok": report.outcome_ok,
        "transfer_bound": report.transfer_bound,
        "transfer_bound_ok": report.transfer_bound_ok,
    }
    return (EXIT_OK if report.passed else EXIT_FAIL), payload


def cmd_audit(args, data):
    runner = {
        "claims": _audit_claims,
        "closure": _audit_closure,
        "search": _audit_search,
        "icr": _audit_icr,
    }[args.suite]
    return runner(args, data)


def cmd_hierarchy(args, data):
    model, source = _load_model(data)
    depth = args.depth
    if depth is None:
        table, stable = hierarchy.build_to_stabilization(model)
        depth = stable + 1
    elif depth < 0:
        raise _Abort(EXIT_INVALID, {"error": "depth must be non-negative"})
    elif depth > (bound := hierarchy.depth_bound(model)):
        # levels past stabilization + 1 add nothing: fail closed before building
        raise _Abort(EXIT_INVALID, {"error": f"depth must be at most {bound}"})
    else:
        table = hierarchy.build_hierarchy(model, depth)
    payload = {"input": source, "depth": depth, "types": {}}
    for agent in model.agents:
        for type_id in model.types[agent]:
            levels = [str(tok) for tok in table.signatures[(agent, type_id)][: depth + 1]]
            payload["types"][f"{agent}:{hierarchy._type_to_str(type_id)}"] = levels
    return EXIT_OK, payload


# -- entry point -------------------------------------------------------------------

FLAGS = {
    "--seed": {"type": int, "default": 0},
    "--budget-pure": {"type": int, "default": game.SearchBudget.pure_cap},
    "--budget-plan": {"type": int, "default": game.SearchBudget.plan_cap},
    "--budget-z": {"type": int, "default": mechanism.Z_CAP},
    "--eps": {"default": "1/100"},
    "--depth": {"type": int, "help": "levels 0..depth, depth at most the total number of types + 1"},
}

# command -> (handler, help, the dest of its choice; None: the command is its own leaf)
COMMANDS = {
    "validate": (cmd_validate, "validate a scenario file", None),
    "check": (cmd_check, "decide an implementability condition", "which"),
    "build": (cmd_build, "construct an implementing mechanism", "variant"),
    "audit": (cmd_audit, "run an equilibrium or elimination audit suite", "suite"),
    "hierarchy": (cmd_hierarchy, "dump belief-hierarchy levels", None),
}

# (command, choice) -> the flags that leaf's handler reads; it accepts no other
LEAVES = {
    ("validate", None): (),
    ("check", "sm"): (),
    ("check", "npd"): (),
    ("check", "nppd"): (),
    ("check", "hom"): (),
    ("check", "eic"): (),
    ("build", "bne"): (),
    ("build", "pure"): ("--budget-z",),
    ("build", "am"): ("--eps",),
    ("audit", "claims"): (),
    ("audit", "closure"): (),
    ("audit", "search"): ("--seed", "--budget-pure", "--budget-plan"),
    ("audit", "icr"): ("--eps",),
    ("hierarchy", None): ("--depth",),
}


@functools.cache
def build_parser():
    """The command-line parser, one argparse leaf per `LEAVES` entry, none of
    them accepting an abbreviated flag, built once per process and shared:
    `parse_args` does not change it, and every build would leave a tree of
    reference cycles for the collector."""
    parser = argparse.ArgumentParser(
        prog="evimech",
        description="verification and synthesis for implementation with uncertain hard evidence",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    nodes = {}
    for command, (_, help_text, dest) in COMMANDS.items():
        node = commands.add_parser(command, help=help_text, allow_abbrev=False)
        nodes[command] = node if dest is None else node.add_subparsers(dest=dest, required=True)
    for (command, choice), flags in LEAVES.items():
        leaf = nodes[command] if choice is None else nodes[command].add_parser(choice, allow_abbrev=False)
        leaf.add_argument("path", help="scenario or model JSON file")
        leaf.add_argument("--format", choices=("human", "machine"), default="human")
        for flag in flags:
            leaf.add_argument(flag, **FLAGS[flag])
    return parser


def _join_negative_rationals(argv):
    """argv with a negative value of `--eps` joined to its flag (`--eps=-1/2`):
    argparse reads a token that starts with `-` as an option unless it is a
    plain negative number, so `--eps -1/2` would never reach `_parse_eps`."""
    joined = []
    for token in argv:
        if joined and joined[-1] == "--eps" and token.startswith("-") and token[1:2].isdigit():
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_rationals(sys.argv[1:] if argv is None else argv))
    # each leaf parses only the flags it reads, so `config` is what the command used
    config = {key: value for key, value in vars(args).items() if key not in ("command", "path")}
    command = args.command
    digest = ""  # an unreadable input has none
    try:
        raw = _read(args.path)
        digest = reporting.input_digest(raw)
        code, payload = COMMANDS[command][0](args, _parse_json(raw))
    except _Abort as abort:
        code, payload = abort.code, abort.payload
    report = reporting.build_report(command, digest, config, payload)
    report["exit_code"] = code
    sys.stdout.write(reporting.render(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
