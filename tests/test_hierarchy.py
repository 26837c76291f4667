import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from evimech import fixtures
from evimech.conditions import check_stochastic_measurability
from evimech.hierarchy import (
    TypeSpaceModel,
    build_hierarchy,
    check_evidence_ic,
    check_higher_order_measurability,
    embed_flat_scenario,
    model_to_json,
    parse_model,
    report_values,
    stabilization_depth,
    validate_model,
)

F = Fraction
TOP = frozenset({"mh", "lmh"})
LOW = frozenset({"lmh"})
EMPTY = frozenset()


@pytest.fixture(scope="module")
def embedded_leading():
    return embed_flat_scenario(fixtures.leading_example())


def test_embedding_type_counts(embedded_leading):
    assert len(embedded_leading.types["A"]) == 5
    assert len(embedded_leading.types["B"]) == 3
    perturbed = embed_flat_scenario(fixtures.perturbed_example())
    assert len(perturbed.types["A"]) == 6


def test_embedding_beliefs_are_products(embedded_leading):
    belief = embedded_leading.belief("B", ("H", EMPTY))
    assert belief == {(("H", TOP),): F(3, 5), (("H", LOW),): F(2, 5)}
    assert validate_model(embedded_leading) == []


def test_level_one_beliefs_differ_for_b(embedded_leading):
    table = build_hierarchy(embedded_leading, 1)
    at_h = table.level_distribution("B", ("H", EMPTY), 1)
    at_m = table.level_distribution("B", ("M", EMPTY), 1)
    assert at_h != at_m
    point_top = ((("ev", (2, ("lmh", "mh"))),),)
    assert at_h[point_top] == F(3, 5)
    assert at_m[point_top] == F(2, 5)


def test_level_zero_is_the_evidence_map(embedded_leading):
    table = build_hierarchy(embedded_leading, 0)
    assert table.level("A", ("H", TOP), 0) == ("ev", (2, ("lmh", "mh")))
    assert table.level("A", ("L", LOW), 0) == ("ev", (1, ("lmh",)))


def test_equal_inputs_give_equal_hierarchies():
    # two types with identical beliefs and endowments share every level
    scn = fixtures.micro_example()
    model = embed_flat_scenario(scn)
    table = build_hierarchy(model, 3)
    sig_b1 = table.signatures[("B", ("s1", EMPTY))]
    sig_b2 = table.signatures[("B", ("s2", EMPTY))]
    assert sig_b1[0] == sig_b2[0]  # same endowment
    assert sig_b1[1] != sig_b2[1]  # beliefs split them at level 1


def test_stabilization_and_monotone_partition(embedded_leading):
    depth = stabilization_depth(embedded_leading)
    table = build_hierarchy(embedded_leading, depth + 2)
    for agent in embedded_leading.agents:
        previous = None
        for k in range(depth + 2):
            cells = {}
            for t in embedded_leading.types[agent]:
                cells.setdefault(table.signatures[(agent, t)][: k + 1], set()).add(t)
            partition = sorted(tuple(sorted(map(str, c))) for c in cells.values())
            if previous is not None:
                # weakly finer: every new cell inside an old one
                for cell in partition:
                    assert any(set(cell) <= set(old) for old in previous)
            previous = partition


def test_hom_passes_on_embedded_leading(embedded_leading):
    from evimech.hierarchy import separating_level

    verdict = check_higher_order_measurability(embedded_leading)
    assert verdict.passed
    assert verdict.k_bar == 2  # consensus pairs split at level 1, A's own pairs at 2
    low_pair = (("M", TOP), ("M", EMPTY))
    high_pair = (("H", TOP), ("H", EMPTY))
    assert separating_level(verdict, embedded_leading, low_pair, high_pair) == ("B", 1)
    a_only_pair = ((("M", TOP), ("M", EMPTY)), (("H", TOP), ("M", EMPTY)))
    assert separating_level(verdict, embedded_leading, *a_only_pair) == ("A", 2)


def test_hom_fails_without_variation():
    scn = fixtures.make_scenario(
        agents=("A", "B"),
        states=("s1", "s2"),
        articles=(),
        dists={(a, s): {EMPTY: F(1)} for a in ("A", "B") for s in ("s1", "s2")},
        scf={"s1": "o1", "s2": "o2"},
        outcomes=("o1", "o2"),
    )
    verdict = check_higher_order_measurability(embed_flat_scenario(scn))
    assert not verdict.passed
    assert verdict.failures


def test_hom_constant_scf_passes(embedded_leading):
    model = embedded_leading
    constant = TypeSpaceModel(
        agents=model.agents,
        types=model.types,
        evidence=model.evidence,
        beliefs=model.beliefs,
        outcomes=model.outcomes,
        scf={t: model.outcomes[0] for t in model.profiles()},
        utility_profiles=model.utility_profiles,
        articles=model.articles,
    )
    assert check_higher_order_measurability(constant).passed


def test_hom_matches_sm_on_fixtures():
    for build in fixtures.ALL_FIXTURES.values():
        scn = build()
        assert (
            check_higher_order_measurability(embed_flat_scenario(scn)).passed
            == check_stochastic_measurability(scn).passed
        )


def test_eic_constant_profile_passes(embedded_leading):
    verdict = check_evidence_ic(embedded_leading, profile_indices=[0])
    assert verdict.passed


def test_eic_all_profiles_on_micro():
    model = embed_flat_scenario(fixtures.micro_example())
    assert check_evidence_ic(model).passed


def test_eic_failure_with_tailored_utilities():
    # the richer type strictly prefers the poorer type's outcome
    model = embed_flat_scenario(fixtures.micro_example())
    profile = {
        "A": {(o, t): (F(1, 4) if o == "o2" else F(0)) for o in model.outcomes for t in model.profiles()},
        "B": {(o, t): F(0) for o in model.outcomes for t in model.profiles()},
    }
    tweaked = TypeSpaceModel(
        agents=model.agents,
        types=model.types,
        evidence=model.evidence,
        beliefs=model.beliefs,
        outcomes=model.outcomes,
        scf=model.scf,
        utility_profiles=(profile,),
        articles=model.articles,
    )
    verdict = check_evidence_ic(tweaked)
    assert not verdict.passed
    (idx, agent, type_id, report, gain) = verdict.failures[0]
    assert agent == "A" and gain > 0


def test_model_json_round_trip(embedded_leading):
    doc = model_to_json(embedded_leading)
    text = json.dumps(doc, sort_keys=True)
    again = parse_model(json.loads(text))
    assert validate_model(again) == []
    assert len(again.types["A"]) == 5
    verdict = check_higher_order_measurability(again)
    assert verdict.passed and verdict.k_bar == 2


def test_model_inputs_are_read_only():
    # interim values are cached per (profile, agent, type): an in-place edit
    # of the utilities must raise instead of leaving them stale
    model = embed_flat_scenario(fixtures.leading_example())
    type_id = model.types["A"][0]
    values = report_values(model, 1, "A", type_id)
    key = next(iter(model.utility_profiles[1]["A"]))
    with pytest.raises(TypeError):
        model.utility_profiles[1]["A"][key] = F(3, 4)
    with pytest.raises(TypeError):
        model.utility_profiles[1]["A"] = {}
    with pytest.raises(TypeError):
        model.beliefs[("A", type_id)][next(iter(model.belief("A", type_id)))] = F(1)
    with pytest.raises(TypeError):
        model.beliefs[("A", type_id)] = {}
    for name in ("types", "evidence", "scf"):
        mapping = getattr(model, name)
        with pytest.raises(TypeError):
            mapping[next(iter(mapping))] = None
    assert isinstance(model.profiles(), tuple)
    assert report_values(model, 1, "A", type_id) == values


def test_replaced_model_does_not_inherit_the_cache():
    micro = parse_model(json.loads((Path(__file__).parent / "data" / "micro_model.json").read_text()))
    assert len(micro.profiles()) == 4
    values = report_values(micro, 0, "A", "s1|{w}")
    tables = micro.tables()
    single = replace(micro, types={a: micro.types[a][:1] for a in micro.agents})
    assert single.profiles() == (("s1|{w}", "s1|{}"),)
    assert single.tables() is not tables
    assert single.tables().feasible[("A", "s1|{w}")] == ("s1|{w}",)
    # utilities replaced: the copy values reports from its own tables
    raised = tuple(
        {agent: {key: value + F(1, 3) for key, value in prof[agent].items()} for agent in micro.agents}
        for prof in micro.utility_profiles
    )
    shifted = replace(micro, utility_profiles=raised)
    assert report_values(shifted, 0, "A", "s1|{w}") == {r: v + F(1, 3) for r, v in values.items()}
    assert report_values(micro, 0, "A", "s1|{w}") == values
