"""Differential test: `compute_scaling` against `scaling_reference`, the
quadratic-pair pass it replaced. Every `ScalingParams` field must be equal,
with the same type, for the bet values of both builders."""

from dataclasses import fields
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
