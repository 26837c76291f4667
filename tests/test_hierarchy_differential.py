"""Differential tests: one hierarchy table per model against the code it
replaced (`hierarchy_reference.py`), which rebuilt hierarchies per caller and
recomputed push-forwards on every read. Signatures and level distributions up
to stabilization + 2, the default `hierarchy` levels, HOM and EIC verdicts,
mechanism fields, elimination reports (with the rounds=1 and rounds=2
controls) and `transfers` on random transcripts must be identical, on the
fixtures, `micro_model.json`, the xor model, random scenarios and two
hand-written models with pairwise coprime belief denominators. The flat
embedding, built on `rationals.joint`, must equal the reference's own product
loop field by field, in insertion order, and in `model_to_json`."""

import itertools
import json
import math
import random
from collections.abc import Mapping
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest

import hierarchy_reference as reference
from evimech import fixtures, generators, hierarchy, smalltransfers
from evimech.smalltransfers import AmMessage
from test_smalltransfers import xor_model

DATA = Path(__file__).parent / "data"
EPS = Fraction(1, 100)
# product type spaces of this size, as the type-space commands of the cli
# benchmark see them; seeds 0-999 give about 260
PROFILES = (30, 60)


def _type_profiles(scn):
    return math.prod(sum(len(scn.support(a, s)) for s in scn.states) for a in scn.agents)


def _with_profile_terms(model, rng):
    """`model` with utilities halved plus a term drawn per true profile. The
    term cancels from every interim gain of a lie, so verdicts stay close to
    the original's, but it does not cancel from a value read at the reported
    profile. (Utilities of flat scenarios depend on the outcome alone.)"""
    profiles = []
    for prof in model.utility_profiles:
        per_agent = {}
        for agent in model.agents:
            term = {t: Fraction(rng.randint(-4, 4), 32) for t in model.profiles()}
            per_agent[agent] = {(o, t): v / 2 + term[t] for (o, t), v in prof[agent].items()}
        profiles.append(per_agent)
    return replace(model, utility_profiles=tuple(profiles))


def _coprime_model(lying_pays):
    """Three agents whose beliefs have denominators 7, 11 and 13 and whose
    utilities have a different denominator per agent and per true profile, so
    the model-wide belief lcm and each utility profile's lcm are large. The
    outcome follows A's type; a bonus goes to the chosen outcome (truth is
    strictly optimal) or, with `lying_pays`, to "o2" (A's first type gains by
    hiding its evidence)."""
    agents = ("A", "B", "C")
    types = {"A": ("a1", "a2"), "B": ("b1", "b2"), "C": ("c1", "c2")}
    evidence = {}
    for agent in agents:
        first, second = types[agent]
        evidence[(agent, first)] = frozenset({f"x{agent}"})
        evidence[(agent, second)] = frozenset()
    weights = {
        ("A", "a1"): (7, (1, 2, 3, 1)),
        ("A", "a2"): (7, (3, 1, 1, 2)),
        ("B", "b1"): (11, (2, 3, 4, 2)),
        ("B", "b2"): (11, (5, 1, 1, 4)),
        ("C", "c1"): (13, (3, 4, 5, 1)),
        ("C", "c2"): (13, (6, 2, 2, 3)),
    }
    beliefs = {}
    for (agent, type_id), (denominator, numerators) in weights.items():
        others = [types[a] for a in agents if a != agent]
        opponent_profiles = list(itertools.product(*others))
        beliefs[(agent, type_id)] = {t: Fraction(n, denominator) for t, n in zip(opponent_profiles, numerators)}
    profiles = list(itertools.product(*(types[a] for a in agents)))
    scf = {t: "o1" if t[0] == "a1" else "o2" for t in profiles}
    primes = iter((3, 5, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107))
    utility = {}
    for i, agent in enumerate(agents):
        utility[agent] = {}
        for k, t in enumerate(profiles):
            base = Fraction(1 + k % 3, next(primes))
            bonus = Fraction(1, 4 + i + k % 4)
            for outcome in ("o1", "o2"):
                paid = outcome == ("o2" if lying_pays else scf[t])
                utility[agent][(outcome, t)] = base + (bonus if paid else 0) - Fraction(1, 2)
    return hierarchy.TypeSpaceModel(
        agents=agents,
        types=types,
        evidence=evidence,
        beliefs=beliefs,
        outcomes=("o1", "o2"),
        scf=scf,
        utility_profiles=(utility,),
        articles=tuple(f"x{agent}" for agent in agents),
    )


def _models():
    models = [(f"fixture:{name}", hierarchy.embed_flat_scenario(f())) for name, f in fixtures.ALL_FIXTURES.items()]
    models.append(("micro_model.json", hierarchy.parse_model(json.loads((DATA / "micro_model.json").read_text()))))
    models.append(("xor", xor_model()))
    for seed in range(1000):
        scn = generators.random_scenario(seed)
        if PROFILES[0] <= _type_profiles(scn) <= PROFILES[1]:
            models.append((f"random_scenario({seed})", hierarchy.embed_flat_scenario(scn)))
    rng = random.Random(0)
    models.extend((f"{label}+profile terms", _with_profile_terms(model, rng)) for label, model in models[:60])
    models.append(("coprime denominators", _coprime_model(lying_pays=False)))
    models.append(("coprime denominators, lying pays", _coprime_model(lying_pays=True)))
    return models


MODELS = _models()


def test_enough_random_models():
    assert sum(label.startswith("random") for label, _ in MODELS) >= 200


def _typed(value):
    """`value` with every number tagged by its type and every dict as its item
    list, so equal results must also agree on types and order."""
    if isinstance(value, dict):
        return ("dict", [(_typed(k), _typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(v) for v in value])
    if isinstance(value, (bool, int, Fraction)):
        return (type(value).__name__, value)
    return value


def _same_levels(new, ref, depth):
    """Signatures and push-forwards of levels 1..depth agree on every type."""
    model = new.model
    for agent in model.agents:
        for t in model.types[agent]:
            assert new.signatures[(agent, t)][: depth + 1] == ref.signatures[(agent, t)][: depth + 1]
            for k in range(1, depth + 1):
                new_dist = new.level_distribution(agent, t, k)
                ref_dist = ref.level_distribution(agent, t, k)
                # equal as maps; a shared token keeps the first type's point order
                assert dict(new_dist) == ref_dist
                assert all(type(p) is Fraction for p in new_dist.values())


# the reference's stamp, renamed: the chain is replayed from the proof's bounds
STAMPS = {"EXHAUSTIVE (factored by message component)": "PROOF_REPLAY"}


def _stage_fields(report):
    return _typed(
        (
            [(s.name, s.passed, s.details) for s in report.stages],
            report.survivors,
            report.outcome_ok,
            report.transfer_bound,
            report.transfer_bound_ok,
            STAMPS.get(report.stamp, report.stamp),
            report.passed,
        )
    )


MECH_FIELDS = (
    "eps", "k_bar", "beta", "beta_bar", "rounds", "first_deviant_fine", "mismatch_fine", "level_bounds", "min_beta_bar"
)


def _random_transcript(rng, mech):
    model = mech.model
    transcript = {}
    for agent in model.agents:
        types = model.types[agent]
        evidence = model.evidence[(agent, rng.choice(types))]
        if rng.random() < 0.3:
            evidence = frozenset(a for a in evidence if rng.random() < 0.5)
        beliefs = tuple(rng.choice(types) for _ in range(mech.k_bar + 1))
        outcomes = [beliefs[-1]] * mech.rounds
        for _ in range(rng.choice((0, 0, 1, 3))):
            outcomes[rng.randrange(mech.rounds)] = rng.choice(types)
        transcript[agent] = AmMessage(evidence, beliefs, tuple(outcomes))
    return transcript


@pytest.mark.parametrize("label, model", MODELS, ids=[label for label, _ in MODELS])
def test_table_verdicts_mechanism_and_elimination_match_reference(label, model):
    table, stable = hierarchy.build_to_stabilization(model)
    ref_table, ref_stable = reference.build_to_stabilization(model)
    assert (stable, table.depth) == (ref_stable, ref_table.depth) == (stable, stable + 2)
    _same_levels(table, ref_table, table.depth)
    # the default `hierarchy` command: levels 0..stable + 1 of that one table
    default = reference.build_hierarchy(model, reference.stabilization_depth(model) + 1)
    assert {key: sig[: stable + 2] for key, sig in table.signatures.items()} == default.signatures
    # the explicit --depth path
    for depth in (0, 1, stable + 2):
        assert hierarchy.build_hierarchy(model, depth).signatures == reference.build_hierarchy(model, depth).signatures

    hom = hierarchy.check_higher_order_measurability(model)
    ref_hom = reference.check_higher_order_measurability(model)
    assert _typed((hom.passed, hom.stabilization, hom.k_bar, hom.failures)) == _typed(
        (ref_hom.passed, ref_hom.stabilization, ref_hom.k_bar, ref_hom.failures)
    )
    eic = hierarchy.check_evidence_ic(model)
    ref_eic = reference.check_evidence_ic(model)
    assert _typed((eic.passed, eic.failures)) == _typed((ref_eic.passed, ref_eic.failures))
    # interim values and utility spans (which the reference reads from the
    # model itself) against `Fraction` sums over the model's own entries
    for idx, prof in enumerate(model.utility_profiles):
        for agent in model.agents:
            values = [prof[agent][(o, t)] for o in model.outcomes for t in model.profiles()]
            assert _typed(model.utility_span(idx, agent)) == _typed(max(values) - min(values))
            for type_id in model.types[agent]:
                belief = model.belief(agent, type_id)
                expected = {}
                for report in model.feasible_reports(agent, type_id):
                    expected[report] = sum(
                        (
                            p * prof[agent][(model.scf[model.full_profile(agent, report, o)], model.full_profile(agent, type_id, o))]
                            for o, p in belief.items()
                        ),
                        Fraction(0),
                    )
                assert _typed(hierarchy.report_values(model, idx, agent, type_id)) == _typed(expected)

    try:
        ref_mech = reference.build_small_transfer_mechanism(model, EPS)
    except (reference.HomViolation, reference.EicViolation, reference.TransferBoundExceeded) as exc:
        new_error = getattr(smalltransfers, type(exc).__name__)
        with pytest.raises(new_error):
            smalltransfers.build_small_transfer_mechanism(model, EPS)
        return
    mech = smalltransfers.build_small_transfer_mechanism(model, EPS)
    assert _typed([getattr(mech, f) for f in MECH_FIELDS]) == _typed([getattr(ref_mech, f) for f in MECH_FIELDS])
    assert mech.transfer_bound() == ref_mech.transfer_bound()
    # the HOM table, not one rebuilt to depth k_bar + 1
    assert (mech.hierarchy.depth, mech.hierarchy.signatures) == (hom.table.depth, hom.table.signatures)
    assert mech.k_bar + 1 <= mech.hierarchy.depth
    _same_levels(mech.hierarchy, ref_mech.hierarchy, mech.k_bar + 1)

    for overrides in ({}, {"rounds": 1}, {"rounds": 2}):
        report = smalltransfers.eliminate_rationalizable(mech.with_params(**overrides))
        ref_report = reference.eliminate_rationalizable(ref_mech.with_params(**overrides))
        assert _stage_fields(report) == _stage_fields(ref_report), overrides

    rng = random.Random(label)
    # transfers take time linear in the round count, which reaches about 10**6
    for _ in range(max(1, min(20, 10**5 // mech.rounds))):
        transcript = _random_transcript(rng, mech)
        assert _typed(mech.transfers(transcript)) == _typed(ref_mech.transfers(transcript))


EMBEDDED = [(f"fixture:{name}", f()) for name, f in fixtures.ALL_FIXTURES.items()] + [
    (f"random_scenario({seed}{', degenerate' * degenerate})", generators.random_scenario(seed, degenerate=degenerate))
    for degenerate in (False, True)
    for seed in range(300)
]


def _ordered(value):
    """`value` with every mapping as its item list and every leaf tagged by its
    type, so equal results must also agree on order and types."""
    if isinstance(value, Mapping):
        return [(key, _ordered(item)) for key, item in value.items()]
    if isinstance(value, tuple):
        return tuple(map(_ordered, value))
    return type(value), value


@pytest.mark.parametrize("label, scn", EMBEDDED, ids=[label for label, _ in EMBEDDED])
def test_flat_embedding_matches_reference(label, scn):
    model = hierarchy.embed_flat_scenario(scn)
    ref_model = reference.embed_flat_scenario(scn)
    for name in (f.name for f in fields(model)):
        if name != "_cache":
            assert _ordered(getattr(model, name)) == _ordered(getattr(ref_model, name)), name
    to_json = hierarchy.model_to_json
    assert json.dumps(to_json(model)) == json.dumps(to_json(ref_model))
