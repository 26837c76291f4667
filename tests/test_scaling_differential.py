"""Differential test: `compute_scaling` against `scaling_reference`, the
quadratic-pair pass it replaced. Every `ScalingParams` field must be equal,
with the same type, for the bet values of both builders."""

from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest

import scaling_reference
from evimech import fixtures, generators, mechanism
from evimech.mechanism import DegenerateGap, compute_scaling

# the stress seeds 5 and 27 are among them
SEEDS = range(600)
PURE_Z_CAP = 20000


def _scenarios():
    out = [(name, build()) for name, build in fixtures.ALL_FIXTURES.items()]
    out.extend((f"seed {seed}", generators.random_scenario(seed)) for seed in SEEDS)
    return out


def _typed(params):
    return [(f.name, type(getattr(params, f.name)), getattr(params, f.name)) for f in fields(params)]


def _scaling(compute, scn, values):
    try:
        return _typed(compute(scn, values))
    except DegenerateGap:  # both sides must refuse alike
        return "DegenerateGap"


def _bet_value_sets(scn):
    """The bet values each builder hands to `compute_scaling`, plus none."""
    bets, _ = mechanism._synthesize_bet_table(scn)
    out = {"none": [], "bne": [w for bet in bets.values() for _, w in bet.weights]}
    if mechanism.pure_profile_count(scn) <= PURE_Z_CAP:
        challenges, _ = mechanism.enumerate_challenges(scn)
        out["pure"] = [v for bet in challenges.values() for v in (bet.gamma, bet.delta)]
    return out


def test_population_scaling_matches_the_reference():
    checked = {"none": 0, "bne": 0, "pure": 0}
    refused = 0
    for name, scn in _scenarios():
        for builder, values in _bet_value_sets(scn).items():
            new = _scaling(compute_scaling, scn, values)
            assert new == _scaling(scaling_reference.compute_scaling, scn, values), (name, builder)
            checked[builder] += 1
            refused += new == "DegenerateGap"
    assert checked["none"] == checked["bne"] == 606
    assert checked["pure"] >= 70
    assert 0 < refused < 3 * 606


@pytest.mark.parametrize("values", [[Fraction(3, 7), Fraction(-5, 2)], [Fraction(10**6, 3)]])
def test_fixture_scaling_matches_the_reference_for_large_bets(values):
    for name, build in fixtures.ALL_FIXTURES.items():
        scn = build()
        assert _scaling(compute_scaling, scn, values) == _scaling(
            scaling_reference.compute_scaling, scn, values
        ), name


# -- the cached scaling terms ---------------------------------------------------


def _two_states(evidence_at_s2):
    """A holds `evidence_at_s2` at s2 and nothing elsewhere; the outcomes
    differ, so SM fails when that is nothing too."""
    empty = frozenset()
    dists = {(a, s): {empty: Fraction(1)} for a in ("A", "B") for s in ("s1", "s2")}
    dists[("A", "s2")] = {frozenset(evidence_at_s2): Fraction(1)}
    return fixtures.make_scenario(
        agents=("A", "B"),
        states=("s1", "s2"),
        articles=("x",),
        dists=dists,
        scf={"s1": "o1", "s2": "o2"},
        outcomes=("o1", "o2"),
    )


def test_a_scenario_failing_sm_is_refused_on_every_call():
    scn = _two_states(())
    for values in ([], [Fraction(1, 2)], []):
        with pytest.raises(DegenerateGap):
            compute_scaling(scn, values)
    assert "scaling_terms" in scn._cache
    with pytest.raises(DegenerateGap):
        mechanism.assemble_pure_mechanism(scn)
    # nor does a mechanism moved onto the scenario compile a kernel
    mech = replace(mechanism.build_bne_mechanism(_two_states({"x"})), scenario=scn)
    with pytest.raises(DegenerateGap):
        mech.kernel()


@pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
def test_calls_with_other_bets_each_match_the_reference(name):
    scn = fixtures.ALL_FIXTURES[name]()
    for values in ([Fraction(3, 7), Fraction(-5, 2)], [], [Fraction(10**6, 3)], [Fraction(3, 7)]):
        assert _scaling(compute_scaling, scn, values) == _scaling(scaling_reference.compute_scaling, scn, values)


def test_a_copy_computes_its_own_terms():
    scn = fixtures.perturbed_example()
    terms = mechanism.scaling_terms(scn)
    assert mechanism.scaling_terms(scn) is terms
    copy = replace(scn)
    assert "scaling_terms" not in copy._cache
    assert mechanism.scaling_terms(copy) == terms and mechanism.scaling_terms(copy) is not terms
    # a copy with wider utilities gets its own span, and its own eps
    wider = replace(scn, utility_profiles=[_scaled(profile, 2) for profile in scn.utility_profiles])
    assert mechanism.scaling_terms(wider).span == 2 * terms.span
    assert _scaling(compute_scaling, wider, []) == _scaling(scaling_reference.compute_scaling, wider, [])
    assert compute_scaling(wider, []).eps != compute_scaling(scn, []).eps


def _scaled(profile, factor):
    return {agent: {key: factor * value for key, value in row.items()} for agent, row in profile.items()}


def test_cached_terms_are_read_only():
    scn = fixtures.perturbed_example()
    terms = mechanism.scaling_terms(scn)
    with pytest.raises(FrozenInstanceError):
        terms.tau_low = Fraction(3)
    rows = scn.alphabet_table(scn.agents[0]).masses
    assert isinstance(rows, tuple)
    with pytest.raises(TypeError):
        rows[0][next(iter(rows[0]))] = 0
