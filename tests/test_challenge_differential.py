"""Differential test: the pure variant's challenge table, its two-point bets
and the compiled kernel tables against `challenge_reference`, the `Fraction`
code they replaced.

- `enumerate_challenges` gives the same bets, keyed alike and in the same
  order, each `TwoPointBet` field equal with the same type, and the same value
  list, over the fixtures and `random_scenario(0..599)` at `max_states` 3 and
  4 wherever z fits; where the reference raises, the new code raises alike.
- `synthesize_gamma_delta` returns the same bet, or raises alike, on
  derandomized `hypothesis` plans over the fixtures: sources and targets any
  collection of articles, so plans off the support, outside their source and
  with repeated rows are drawn too.
- Every kernel table (`D`, `tau_low`, `tau_high`, `score`, `incentive`,
  `_claims`) equals the reference compile for bne and pure mechanisms, and
  for scalings overridden to non-integer taus.
"""

import json
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import challenge_reference as ref
from evimech import fixtures, generators, mechanism
from evimech.deception import NoImbalance, PurePlan, synthesize_gamma_delta
from evimech.mechanism import DegenerateGap, SlackViolation, enumerate_challenges
from evimech.scenario import parse_scenario, subsets

PURE_CAP = 20000
FIXTURES = [(name, build()) for name, build in fixtures.ALL_FIXTURES.items()]
RANDOM = [
    (f"seed {seed}, max_states {states}", generators.random_scenario(seed, max_states=states))
    for states in (3, 4)
    for seed in range(600)
]
SCENARIOS = [(name, scn) for name, scn in FIXTURES + RANDOM if mechanism.pure_profile_count(scn) <= PURE_CAP]


def _typed(bet) -> list:
    return [(f.name, type(getattr(bet, f.name)), getattr(bet, f.name)) for f in fields(bet)]


def _outcome(call, *args):
    """A call's result, or the type of the exception it raised."""
    try:
        return call(*args)
    except (ValueError, RuntimeError, ArithmeticError, LookupError, TypeError) as exc:
        return type(exc)


def _table(enumerate_fn, scn):
    result = _outcome(enumerate_fn, scn)
    if isinstance(result, type):
        return result
    bets, values = result
    return list(bets), [_typed(bet) for bet in bets.values()], [(type(v), v) for v in values]


def test_challenge_tables_match_the_reference():
    checked = challenges = 0
    for name, scn in SCENARIOS:
        new = _table(enumerate_challenges, scn)
        assert new == _table(ref.enumerate_challenges, scn), name
        checked += 1
        challenges += len(new[0])
    assert checked >= 180 and challenges >= 2000


def test_each_subject_plan_is_synthesized_once(monkeypatch):
    plans = []

    def synthesize(scn, plan):
        plans.append(plan)
        return synthesize_gamma_delta(scn, plan)

    monkeypatch.setattr(mechanism, "synthesize_gamma_delta", synthesize)
    shared = 0
    for name, scn in SCENARIOS:
        plans.clear()
        bets, _ = enumerate_challenges(scn)
        assert len(set(plans)) == len(plans) == len({id(bet) for bet in bets.values()}), name
        shared += len(bets) - len(plans)
    assert shared > 1000  # challenges whose subject plan another challenge already has


def test_masses_that_cancel_match_the_reference():
    # negative masses, which validation refuses but the library accepts: at S
    # the sources {} and {a} carry 1/2 and -1/2, so the plan sending both to
    # {} and {a,b} to {a} induces no mass on {} and meets T's marginal
    A, AB, EMPTY = frozenset("a"), frozenset("ab"), frozenset()
    scn = fixtures.make_scenario(
        agents=("P", "Q"),
        states=("S", "T"),
        articles=("a", "b"),
        dists={
            ("P", "S"): {EMPTY: Fraction(1, 2), A: Fraction(-1, 2), AB: Fraction(1)},
            ("P", "T"): {A: Fraction(1)},
            ("Q", "S"): {EMPTY: Fraction(1)},
            ("Q", "T"): {EMPTY: Fraction(1)},
        },
        scf={"S": "o", "T": "p"},
        outcomes=("o", "p"),
    )
    new = _table(enumerate_challenges, scn)
    assert new == _table(ref.enumerate_challenges, scn)
    challenged = [dict(c.assignments)["P"] for c, _ in new[0] if c.source_state == "S"]
    assert ((EMPTY, EMPTY), (A, EMPTY), (AB, A)) not in challenged
    assert len(challenged) == len(mechanism.pure_assignments(scn, "P", "S")) - 1


def test_an_unequal_total_raises_alike():
    # A's masses at L sum to 9/10: no collection is short against L
    scn = parse_scenario(json.loads((Path(__file__).parent / "data" / "broken_sum.json").read_text()))
    assert _table(enumerate_challenges, scn) == _table(ref.enumerate_challenges, scn) == NoImbalance


@st.composite
def _plans(draw):
    name, scn = draw(st.sampled_from(FIXTURES))
    agent = draw(st.sampled_from(scn.agents))
    source, target = draw(st.sampled_from(scn.states)), draw(st.sampled_from(scn.states))
    collections = subsets(scn.articles)
    support = scn.support(agent, source)
    pairs = st.tuples(st.sampled_from(support + collections[:4]), st.sampled_from(collections))
    return name, scn, PurePlan(agent, source, target, tuple(draw(st.lists(pairs, max_size=4))))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_plans())
def test_two_point_bets_match_the_reference_on_drawn_plans(case):
    name, scn, plan = case
    new = _outcome(synthesize_gamma_delta, scn, plan)
    old = _outcome(ref.synthesize_gamma_delta, scn, plan)
    if isinstance(old, type):
        assert new is old, (name, plan)
    else:
        assert _typed(new) == _typed(old), (name, plan)


def test_two_point_bets_match_the_reference_on_every_pure_plan_of_the_fixtures():
    bets = refused = 0
    for name, scn in FIXTURES:
        for agent in scn.agents:
            for source in scn.states:
                for rows in mechanism.pure_assignments(scn, agent, source):
                    for target in scn.states:
                        plan = PurePlan(agent, source, target, rows)
                        new = _outcome(synthesize_gamma_delta, scn, plan)
                        old = _outcome(ref.synthesize_gamma_delta, scn, plan)
                        if isinstance(old, type):
                            assert new is old, (name, plan)
                            refused += 1
                        else:
                            assert _typed(new) == _typed(old), (name, plan)
                            bets += 1
    assert bets > 100 and refused > 10


def _tables(kernel) -> tuple:
    return kernel.D, kernel.tau_low, kernel.tau_high, kernel.score, kernel.incentive, kernel._claims


def _mechanisms(scn):
    try:
        yield mechanism.assemble_bne_mechanism(scn)
        if mechanism.pure_profile_count(scn) <= PURE_CAP:
            yield mechanism.assemble_pure_mechanism(scn, z_cap=PURE_CAP)
    except (DegenerateGap, SlackViolation, NoImbalance):
        return


OVERRIDES = [{}, {"tau_low": Fraction(7, 3), "tau_high": Fraction(5, 4), "eps": Fraction(3, 8)}]


@pytest.mark.parametrize("overrides", OVERRIDES, ids=["built", "overridden"])
def test_kernel_tables_match_the_reference_compile(overrides):
    compiled = {"bne": 0, "pure": 0}
    for name, scn in FIXTURES + RANDOM[:200]:
        for mech in _mechanisms(scn):
            mech = mech.with_scaling(**overrides)
            new, old = _tables(mech.kernel()), ref.compile_tables(mech)
            assert list(map(type, _scalars(new))) == list(map(type, _scalars(old)))
            assert new == old, (name, mech.variant)
            compiled[mech.variant] += 1
    assert compiled["bne"] >= 200 and compiled["pure"] >= 35


def _scalars(tables) -> list:
    """Every key and scalar of the tables, flattened in order."""
    out = []
    stack = [tables]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(reversed([*value.keys(), *value.values()]))
        elif isinstance(value, (list, tuple)):
            stack.extend(reversed(value))
        else:
            out.append(value)
    return out
