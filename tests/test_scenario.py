import itertools
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evimech import fixtures
from evimech.conditions import check_npd
from evimech.generators import random_scenario
from evimech.rationals import common_denominator, joint, numerators, quadratic_scores, squared_distance
from evimech.scenario import (
    Distribution,
    NonDegenerateInput,
    ScenarioFormatError,
    article_nomenclature,
    check_deterministic_equivalence,
    classify_lie,
    contested_lies,
    most_informative_projection,
    parse_scenario,
    refutes,
    scenario_to_json,
    validate_scenario,
)

F = Fraction
TOP = frozenset({"mh", "lmh"})
LOW = frozenset({"lmh"})


@pytest.fixture
def leading():
    return fixtures.leading_example()


@pytest.fixture
def perturbed():
    return fixtures.perturbed_example()


def test_leading_example_is_valid(leading):
    report = validate_scenario(leading)
    assert report.valid, report.violations


def test_degenerate_single_agent_pair_scenario_is_valid():
    scn = fixtures.make_scenario(
        agents=("A", "B"),
        states=("s",),
        articles=(),
        dists={("A", "s"): {frozenset(): F(1)}, ("B", "s"): {frozenset(): F(1)}},
        scf={"s": "o"},
        outcomes=("o",),
    )
    assert validate_scenario(scn).valid


def test_injected_support_violates_declared_se1(leading):
    bad_dists = dict(leading.dists)
    bad_dists[("A", "L")] = Distribution({LOW: F(9, 10), frozenset({"mh"}): F(1, 10)})
    injected = fixtures.make_scenario(
        agents=leading.agents,
        states=leading.states,
        articles=leading.articles,
        dists=bad_dists,
        scf=leading.scf,
        outcomes=leading.outcomes,
        article_names={"lmh": ("L", "M", "H"), "mh": ("M", "H")},
    )
    report = validate_scenario(injected)
    assert not report.valid
    assert any("(se1)" in v["message"] and v["path"] == "distributions.A.L" for v in report.violations)


def test_replaced_scenario_does_not_inherit_the_cache(leading):
    # fill every cached accessor on the original first
    assert leading.article_set() == {"lmh", "mh"}
    assert TOP in leading.presentable("A")
    assert len(leading.alphabet("A")) == 3
    fewer = replace(leading, articles=("lmh",))
    assert fewer._cache is not leading._cache
    assert fewer.article_set() == {"lmh"}
    # A holds only {lmh} at every state: one distribution, no collection with mh
    dists = {key: Distribution({LOW: F(1)}) if key[0] == "A" else dist for key, dist in leading.dists.items()}
    flat = replace(leading, dists=dists)
    assert flat.presentable("A") == (frozenset(), LOW)
    assert flat.alphabet("A") == (Distribution({LOW: F(1)}),)
    assert leading.article_set() == {"lmh", "mh"} and len(leading.alphabet("A")) == 3


def test_alphabet_tables_match_the_distributions():
    # against the distributions themselves: the masses are the `numerators`
    # over the lcm of the alphabet, and each state names its own distribution
    scenarios = [build() for build in fixtures.ALL_FIXTURES.values()]
    scenarios += [random_scenario(seed, max_states=states) for states in (3, 4) for seed in range(300)]
    checked = 0
    for scn in scenarios:
        for agent in scn.agents:
            table = scn.alphabet_table(agent)
            members = scn.alphabet(agent)
            rows = [d.items() for d in members]
            L = common_denominator(prob for row in rows for _, prob in row)
            expected = [dict(zip((c for c, _ in row), numerators([p for _, p in row], L))) for row in rows]
            assert table.members is members and table.scale == L
            assert [dict(masses) for masses in table.masses] == expected
            assert len(table.truth) == len(scn.states)
            assert [members[p] for p in table.truth] == [scn.dist(agent, state) for state in scn.states]
            # members are distinct and in first-state order
            assert len(set(members)) == len(members) and list(dict.fromkeys(table.truth)) == list(range(len(members)))
            checked += 1
    assert checked > 1500


def test_non_normalized_distribution_reported_with_path(leading):
    bad_dists = dict(leading.dists)
    bad_dists[("A", "L")] = Distribution({LOW: F(9, 10)})
    broken = fixtures.make_scenario(
        agents=leading.agents,
        states=leading.states,
        articles=leading.articles,
        dists=bad_dists,
        scf=leading.scf,
        outcomes=leading.outcomes,
    )
    report = validate_scenario(broken)
    assert any(v["path"] == "distributions.A.L" and "sum" in v["message"] for v in report.violations)


def test_utility_bound_violation_reported():
    scn = fixtures.make_scenario(
        agents=("A", "B"),
        states=("s",),
        articles=(),
        dists={("A", "s"): {frozenset(): F(1)}, ("B", "s"): {frozenset(): F(1)}},
        scf={"s": "o"},
        outcomes=("o",),
        utility_values=[{"A": {"o": F(3, 2)}, "B": {}}],
    )
    report = validate_scenario(scn)
    assert any("outside (-1,1)" in v["message"] for v in report.violations)


def test_refutes_examples(leading):
    assert refutes(leading, TOP, "L", "A") is True
    assert refutes(leading, frozenset(), "L", "A") is False
    assert refutes(leading, frozenset(), "M", "B") is False
    # superset {mh,lmh} has probability 2/5 at M
    assert refutes(leading, TOP, "M", "A") is False
    assert refutes(leading, frozenset({"mh"}), "M", "A") is False
    assert refutes(leading, frozenset({"mh"}), "L", "A") is True


def test_refutes_antitone_on_fixtures(leading, perturbed):
    for scn in (leading, perturbed):
        for agent in scn.agents:
            colls = scn.presentable(agent)
            for small in colls:
                for big in colls:
                    if small <= big and refutes(scn, small, "L", agent):
                        assert refutes(scn, big, "L", agent)


def test_classify_lie_examples(leading, perturbed):
    assert classify_lie(leading, "M", "H").verdict == "nonrefutable"
    assert classify_lie(leading, "M", "M").verdict == "self_identical"
    perturbed_lie = classify_lie(perturbed, "H", "M")
    assert perturbed_lie.verdict == "refutable"
    assert perturbed_lie.refuters == ("A",)
    witnesses = perturbed_lie.witnesses["A"]
    assert all("h" in coll for coll, _ in witnesses)
    assert perturbed_lie.witness_mass("A") == F(1, 10)


def test_cached_lie_table_is_read_only(perturbed):
    table = perturbed.lie_table()
    with pytest.raises(TypeError):
        table[("H", "M")] = None
    lie = table[("H", "M")]
    with pytest.raises(TypeError):
        lie.witnesses["B"] = ()
    with pytest.raises(AttributeError):
        lie.witnesses["A"].append((frozenset(), F(1)))
    assert classify_lie(perturbed, "H", "M").witness_mass("A") == F(1, 10)


def test_scenario_inputs_are_read_only():
    # NPD fails on the leading example; an in-place edit that would make it
    # pass must raise instead of leaving the cached deceptions stale
    scn = fixtures.leading_example()
    assert not check_npd(scn).passed
    with pytest.raises(TypeError):
        scn.dists[("A", "M")] = scn.dist("A", "L")
    with pytest.raises(TypeError):
        scn.scf["H"] = scn.scf["L"]
    with pytest.raises(TypeError):
        scn.article_names["mh"] = frozenset(scn.states)
    with pytest.raises(TypeError):
        scn.utility_profiles[0]["A"][(scn.outcomes[0], "H")] = F(1, 2)
    with pytest.raises(TypeError):
        scn.utility_profiles[0]["C"] = {}
    assert not check_npd(scn).passed
    # a copy with the edit is the way to change a scenario
    dists = dict(scn.dists)
    dists[("A", "M")] = scn.dist("A", "L")
    assert check_npd(replace(scn, dists=dists)).passed


@pytest.mark.parametrize("seed", range(20))
def test_lie_filters_read_one_table(seed):
    scn = random_scenario(seed)
    table = scn.lie_table()
    assert scn.lie_table() is table and list(table) == [(s, t) for s in scn.states for t in scn.states]
    assert all(classify_lie(scn, s, t) is lie for (s, t), lie in table.items())
    contested = [(s, t, lie) for (s, t), lie in table.items() if scn.scf[s] != scn.scf[t]]
    assert contested_lies(scn, None) == contested and all(s != t for s, t, _ in contested)
    assert contested_lies(scn) == [row for row in contested if row[2].verdict == "nonrefutable"]
    assert contested_lies(scn, "refutable") == [row for row in contested if row[2].verdict == "refutable"]


def test_exact_arithmetic_helpers():
    values = [F(1, 6), F(3, 4), 2]
    assert common_denominator(values) == 12 and numerators(values, 12) == [2, 9, 24]
    assert common_denominator([]) == 1 and numerators([F(1, 2)], 6) == [3]
    p = {"a": F(1, 2), "b": F(1, 2)}
    q = {"b": F(1, 4), "c": F(3, 4)}
    assert squared_distance(p, q) == squared_distance(q, p) == F(1, 4) + F(1, 16) + F(9, 16)
    assert squared_distance(p, {}) == F(1, 2)  # |p|^2, minus the score off p's support
    assert quadratic_scores(p, ["a", "b", "c"]) == [F(1, 2), F(1, 2), F(-1, 2)]
    # the expected loss of reporting q when p is true is |p - q|^2
    loss = sum(prob * (s - t) for prob, s, t in zip(p.values(), quadratic_scores(p, p), quadratic_scores(q, p)))
    assert loss == squared_distance(p, q)
    # numerators over L give the score over L^2 and the distance over L^2
    L = common_denominator([*p.values(), *q.values()])
    (a, b), (c, d) = numerators(p.values(), L), numerators(q.values(), L)
    assert (L, a, b, c, d) == (4, 2, 2, 1, 3)
    assert [F(s, L * L) for s in quadratic_scores({"a": a, "b": b}, ["b"], L)] == quadratic_scores(p, ["b"])
    assert F(squared_distance({"a": a, "b": b}, {"b": c, "c": d}), L * L) == squared_distance(p, q)



def test_joint_multiplies_independent_rows_in_product_order():
    # no factors: the one empty combination, weight 1, its part the start
    assert joint([]) == (1, [(1, 0)])
    assert joint([], ()) == (1, [(1, ())])
    # one-row factors: one combination, its weight the product
    assert joint([[(1, 2, 1)], [(2, 3, 4)]]) == (6, [(2, 5)])
    # products stay unreduced: 2/4 counts over 4
    assert joint([[(2, 4, 0)]]) == (4, [(2, 0)])
    # int parts packed in disjoint bit fields sum to their OR
    W, rows = joint([[(1, 2, 1), (1, 2, 2)], [(1, 3, 0 << 4), (2, 3, 1 << 4)]])
    assert W == 6
    assert rows == [(1, 1), (2, 1 | 1 << 4), (1, 2), (2, 2 | 1 << 4)]
    # tuple parts concatenate, in itertools.product order; W is the lcm of
    # the products' denominators (4, 6 and 12), not their product
    factors = [[(1, 2, ("a",)), (1, 3, ("b",)), (1, 6, ("c",))], [(1, 2, ("x",)), (1, 2, ("y",))]]
    W, rows = joint(factors, ())
    assert W == 12
    assert [part for _, part in rows] == list(itertools.product("abc", "xy"))
    weights = itertools.product(*([F(n, d) for n, d, _ in factor] for factor in factors))
    assert [F(n, W) for n, _ in rows] == [a * b for a, b in weights]


def test_nonrefutable_implies_superset_support(leading, perturbed):
    # claim (*): every support collection at s has a superset in the support at s'
    for scn in (leading, perturbed):
        for s in scn.states:
            for s_prime in scn.states:
                if s == s_prime:
                    continue
                if classify_lie(scn, s, s_prime).verdict == "nonrefutable":
                    for agent in scn.agents:
                        for coll in scn.support(agent, s):
                            assert any(coll <= sup for sup in scn.support(agent, s_prime))


def test_article_nomenclature(leading, perturbed):
    names = article_nomenclature(leading)
    assert names["mh"] == frozenset({"M", "H"})
    assert names["lmh"] == frozenset({"L", "M", "H"})
    assert article_nomenclature(perturbed)["h"] == frozenset({"H"})


def test_nomenclature_article_everywhere():
    scn = fixtures.make_scenario(
        agents=("A", "B"),
        states=("s1", "s2"),
        articles=("e",),
        dists={
            ("A", "s1"): {frozenset({"e"}): F(1)},
            ("A", "s2"): {frozenset({"e"}): F(1)},
            ("B", "s1"): {frozenset(): F(1)},
            ("B", "s2"): {frozenset(): F(1)},
        },
        scf={"s1": "o", "s2": "o"},
        outcomes=("o",),
    )
    assert article_nomenclature(scn)["e"] == frozenset({"s1", "s2"})


def test_deterministic_equivalence_on_projected_leading(leading):
    degenerate = fixtures.make_scenario(
        agents=("A", "B"),
        states=("L",),
        articles=("lmh", "mh"),
        dists={("A", "L"): {LOW: F(1)}, ("B", "L"): {frozenset(): F(1)}},
        scf={"L": "grant_b"},
        outcomes=("grant_b",),
    )
    report = check_deterministic_equivalence(degenerate)
    assert report.stochastic_pair and report.deterministic_pair
    assert report.relation_agreement and report.equivalent


def test_deterministic_equivalence_rejects_nondegenerate(leading):
    with pytest.raises(NonDegenerateInput):
        check_deterministic_equivalence(leading)


def test_deterministic_equivalence_authored_name_counterexample():
    # article held at s1 but declared to occur only at s2: (e1) and (e2) both fail
    scn = fixtures.make_scenario(
        agents=("A", "B"),
        states=("s1", "s2"),
        articles=("e",),
        dists={
            ("A", "s1"): {frozenset({"e"}): F(1)},
            ("A", "s2"): {frozenset(): F(1)},
            ("B", "s1"): {frozenset(): F(1)},
            ("B", "s2"): {frozenset(): F(1)},
        },
        scf={"s1": "o1", "s2": "o2"},
        outcomes=("o1", "o2"),
    )
    report = check_deterministic_equivalence(scn, nomenclature={"e": frozenset({"s2"})})
    assert not report.e1
    assert not report.e2
    assert report.stochastic_pair
    assert not report.equivalent


def test_most_informative_projection_merges_states():
    scn = fixtures.projection_example()
    projected = most_informative_projection(scn)
    mh_only = Distribution({frozenset({"mh"}): F(1)})
    assert projected.dist("A", "H") == mh_only
    assert projected.dist("A", "M") == mh_only
    assert projected.dist("A", "L") == Distribution({frozenset({"lmh"}): F(1)})
    assert projected.dist("A", "U") == Distribution({frozenset({"lmhu"}): F(1)})


def test_json_round_trip(perturbed):
    doc = scenario_to_json(perturbed)
    text = json.dumps(doc, sort_keys=True)
    again = parse_scenario(json.loads(text))
    assert again.dists == perturbed.dists
    assert again.scf == perturbed.scf
    assert again.utility_profiles == perturbed.utility_profiles
    assert again.article_names == perturbed.article_names


_any_scenario = st.one_of(
    st.sampled_from(sorted(fixtures.ALL_FIXTURES)).map(lambda name: fixtures.ALL_FIXTURES[name]()),
    st.builds(random_scenario, st.integers(0, 10**6), degenerate=st.booleans()),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_any_scenario)
def test_json_round_trip_is_the_identity(scenario):
    assert parse_scenario(json.loads(json.dumps(scenario_to_json(scenario)))) == scenario


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
def test_fixture_matches_its_json_document(name):
    # tests/data/<name>.json and fixtures.<name>_example() are one scenario
    document = json.loads((DATA / f"{name}.json").read_text())
    scenario = fixtures.ALL_FIXTURES[name]()
    assert parse_scenario(document) == scenario
    assert scenario_to_json(scenario) == document


def test_parse_rejects_malformed_document():
    with pytest.raises(ScenarioFormatError):
        parse_scenario({"agents": ["A"]})
    with pytest.raises(ScenarioFormatError):
        parse_scenario(
            {
                "agents": ["A", "B"],
                "states": ["s"],
                "articles": [],
                "distributions": {"A": {"s": [{"collection": [], "prob": "x"}]}, "B": {"s": []}},
                "scf": {"s": "o"},
                "outcomes": ["o"],
                "utility_profiles": [],
            }
        )


def test_a_problem_repeated_across_rows_is_reported_once():
    # both rows of A at H carry a `weight` key, and both of B's rows at L
    # name their collection as a string: one violation each
    document = json.loads((DATA / "leading.json").read_text())
    for row in document["distributions"]["A"]["H"]:
        row["weight"] = "1"
    for row in document["distributions"]["B"]["L"]:
        row["collection"] = "lmh"
    document["distributions"]["B"]["L"] = document["distributions"]["B"]["L"] * 2
    scn = parse_scenario(document)
    assert validate_scenario(scn).violations[:2] == [
        {"path": "distributions.A.H", "message": "unknown key 'weight'"},
        {"path": "distributions.B.L", "message": "must be a list of ids"},
    ]
    assert len(scn.input_violations) == 2
