"""Differential tests: the flat scenario load path against the code it
replaced (`load_reference.py`), which converted every parsed probability to a
`Fraction` a second time, tested sums, signs and ranges in `Fraction`
arithmetic and built each utility row of the embedding key by key.

Every `Scenario` field (each distribution's stored probabilities, support and
key), the violation list in order, every field of the embedded model and each
utility table's scale and rows must be identical, types and insertion order
included, on the fixture documents, on `random_scenario(0..499)` at
`max_states` 3 and 4 and with `degenerate=True`, and on hand-edited
documents that reach every violation the load path reports."""

import json
import math
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import load_reference as reference
from evimech import fixtures, generators, hierarchy
from evimech.scenario import Distribution, ScenarioFormatError, parse_scenario, scenario_to_json, validate_scenario

DATA = Path(__file__).parent / "data"
SEEDS = range(500)
# embeddings above this many type profiles (twice the cli band) are left to
# the smaller draws: the reference builds every utility entry key by key
MAX_PROFILES = 120


def _typed(value):
    """`value` with every number tagged by its type and every mapping as its
    item list, so equal results must also agree on types and order."""
    if isinstance(value, Mapping):
        return ("mapping", [(_typed(k), _typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(v) for v in value])
    if isinstance(value, Distribution):
        return ("distribution", _typed(value._probs), _typed(value._support), _typed(value._key))
    if isinstance(value, (bool, int, float, Fraction)):
        return (type(value).__name__, value)
    return value


def _scenario_fields(scn):
    return _typed(
        [
            scn.agents,
            scn.states,
            scn.articles,
            scn.dists,
            scn.scf,
            scn.outcomes,
            scn.utility_profiles,
            scn.article_names,
            scn.input_violations,
        ]
    )


def _model_fields(model):
    return _typed(
        [
            model.agents,
            model.types,
            model.evidence,
            model.beliefs,
            model.outcomes,
            model.scf,
            model.utility_profiles,
            model.articles,
            model.input_violations,
        ]
    )


def _type_profiles(scn):
    return math.prod(sum(len(scn.support(a, s)) for s in scn.states) for a in scn.agents)


def _same_load(document):
    """Parse, validate and, when valid, embed `document` both ways and compare
    every result; returns the violation list."""
    try:
        ref = reference.parse_scenario(document)
    except ScenarioFormatError as exc:
        with pytest.raises(ScenarioFormatError) as raised:
            parse_scenario(document)
        assert str(raised.value) == str(exc)
        return None
    scn = parse_scenario(document)
    assert _scenario_fields(scn) == _scenario_fields(ref)
    violations = validate_scenario(scn).violations
    assert violations == reference.validate_scenario(ref).violations
    if not violations and _type_profiles(scn) <= MAX_PROFILES:
        model = hierarchy.embed_flat_scenario(scn)
        ref_model = reference.embed_flat_scenario(ref)
        assert _model_fields(model) == _model_fields(ref_model)
        ref_tables = SimpleNamespace(agents=ref_model.agents, _utility_profiles=ref_model.utility_profiles, _utilities={})
        for idx in range(len(model.utility_profiles)):
            table = model.tables().utility_table(idx)
            assert _typed(table) == _typed(reference.utility_table(ref_tables, idx))
    return violations


def _documents():
    """The flat scenario documents under DATA, the cli band's included."""
    paths = sorted(DATA.glob("*.json")) + sorted((DATA / "cli_band").glob("*.json"))
    documents = {path.name: json.loads(path.read_text()) for path in paths}
    return {name: document for name, document in documents.items() if "types" not in document}


@pytest.mark.parametrize("name", sorted(_documents()))
def test_fixture_documents_load_as_the_reference(name):
    _same_load(_documents()[name])


@pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
def test_fixture_scenarios_load_as_the_reference(name):
    assert _same_load(scenario_to_json(fixtures.ALL_FIXTURES[name]())) == []


@pytest.mark.parametrize(
    "draw",
    [
        dict(max_states=3),
        dict(max_states=4),
        dict(degenerate=True),
    ],
    ids=["max_states=3", "max_states=4", "degenerate"],
)
def test_random_scenarios_load_as_the_reference(draw):
    embedded = 0
    for seed in SEEDS:
        scn = generators.random_scenario(seed, **draw)
        assert _same_load(scenario_to_json(scn)) == []
        embedded += _type_profiles(scn) <= MAX_PROFILES
        # the same distributions handed over as mappings
        for dist in scn.dists.values():
            probs = dict(dist.items())
            assert _typed(Distribution(probs)) == _typed(reference.Distribution(probs))
    assert embedded > 350


def _leading():
    return json.loads((DATA / "leading.json").read_text())


def _edit(edit):
    document = _leading()
    edit(document)
    return document


def _rows(document, agent="A", state="H"):
    return document["distributions"][agent][state]


def _set_utility(value, agent="A", outcome="grant_a", state="H", profile=1):
    def edit(document):
        document["utility_profiles"][profile][agent][outcome][state] = value

    return edit


EDITS = {
    "collection listed twice": lambda d: _rows(d).append({"collection": ["lmh"], "prob": "0/1"}),
    "collection listed twice, summing to 1": lambda d: _rows(d).extend(
        [{"collection": ["lmh"], "prob": "-1/5"}, {"collection": ["mh", "lmh"], "prob": "1/5"}]
    ),
    "rows summing to 0": lambda d: d["distributions"]["A"].update(
        H=[{"collection": ["lmh"], "prob": "1/2"}, {"collection": ["lmh"], "prob": "-1/2"}]
    ),
    "no rows": lambda d: d["distributions"]["B"].update(L=[]),
    "zero probability": lambda d: _rows(d).append({"collection": [], "prob": "0"}),
    "negative probability": lambda d: _rows(d).extend(
        [{"collection": [], "prob": "-1/5"}, {"collection": ["mh"], "prob": "1/5"}]
    ),
    "sum above 1": lambda d: _rows(d).append({"collection": [], "prob": "1/7"}),
    "sum below 1": lambda d: _rows(d).pop(),
    "unnormalized probabilities": lambda d: d["distributions"]["A"].update(
        H=[{"collection": ["lmh"], "prob": "4/10"}, {"collection": ["lmh", "mh"], "prob": "6/10"}]
    ),
    "utility 1": _set_utility("1"),
    "utility -1": _set_utility("-1/1"),
    "utility 2/2": _set_utility("2/2"),
    "utility just below 1": _set_utility("99/100"),
    "utility just above -1": _set_utility("-99/100"),
    "utility 3/2": _set_utility("3/2"),
    "utility -7/3": _set_utility("-7/3", agent="B", outcome="grant_b", state="L", profile=0),
    "unknown row key": lambda d: _rows(d)[0].update(probability="1/2"),
    "unknown row keys on two rows": lambda d: [row.update(weight="1", note="x") for row in _rows(d)],
    "unknown article id": lambda d: _rows(d)[0].update(collection=["lmh", "zz"]),
    "unknown article ids": lambda d: _rows(d, "B", "L")[0].update(collection=["b", "a"]),
    "missing utility": lambda d: d["utility_profiles"][1]["A"]["grant_a"].pop("M"),
    "missing distribution": lambda d: d["distributions"]["B"].pop("M"),
    "undeclared state": lambda d: d["distributions"]["A"].update(X=[{"collection": [], "prob": "1"}]),
    "bad rational": lambda d: _rows(d)[0].update(prob="1/0"),
    "prob not a string": lambda d: _rows(d)[0].update(prob=["1/2"]),
    "collection not a list": lambda d: _rows(d)[0].update(collection="lmh"),
    "row not an object": lambda d: _rows(d).append(["lmh"]),
}


@pytest.mark.parametrize("name", sorted(EDITS))
def test_edited_documents_load_as_the_reference(name):
    _same_load(_edit(EDITS[name]))


def test_edited_documents_reach_every_violation():
    # the edits exercise each message the load path writes at least once
    messages = [v["message"] for name in EDITS for v in _same_load(_edit(EDITS[name])) or []]
    for needle in (
        "probabilities sum to 0/1",
        "non-positive probability",
        "outside (-1,1)",
        "unknown key 'probability'",
        "unknown article ids",
        "missing utility",
        "missing distribution",
        "undeclared state",
        "must be a list of ids",
    ):
        assert any(needle in message for message in messages), needle
    flagged = {name for name in EDITS if any("outside" in v["message"] for v in _same_load(_edit(EDITS[name])) or [])}
    assert flagged == {"utility 1", "utility -1", "utility 2/2", "utility 3/2", "utility -7/3"}


@pytest.mark.parametrize(
    "probs",
    [
        {frozenset({"a"}): 1},
        {frozenset({"a"}): Fraction(1, 3), ("a",): Fraction(2, 3)},
        {frozenset({"a"}): Fraction(1, 2), ("a",): Fraction(-1, 2), frozenset(): 1},
        {frozenset(): 0, frozenset({"b"}): Fraction(3, 4), frozenset({"a", "b"}): Fraction(1, 4)},
        {frozenset({"b", "c"}): Fraction(1, 4), frozenset({"a"}): Fraction(-1, 4), frozenset({"c"}): 2},
        {},
    ],
    ids=["int", "same collection twice", "cancelling", "zero entry", "negative and int", "empty"],
)
def test_distribution_stores_what_the_reference_stores(probs):
    assert _typed(Distribution(probs)) == _typed(reference.Distribution(probs))
