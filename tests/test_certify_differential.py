"""Differential tests: `certify_bet` as a sum of per-source minima against
the product enumeration over pure mimicry plans it replaced
(`certify_reference.py`). All four report fields must be identical, as
`Fraction`s, on synthesized bets for the fixtures and random scenarios, on
the hand, zero and negated bets, and on fuzzed weight maps."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import certify_reference
from evimech import fixtures
from evimech.deception import Bet, InfeasibleSeparation, certify_bet, synthesize_bet
from evimech.generators import random_scenario

F = Fraction
TOP = frozenset({"mh", "lmh"})
LOW = frozenset({"lmh"})
FIXTURES = (
    fixtures.leading_example,
    fixtures.perturbed_example,
    fixtures.pure_deception_example,
    fixtures.projection_example,
    fixtures.micro_example,
    fixtures.appended_article_example,
)


def _typed(value):
    return type(value), value


def assert_matches_reference(scenario, bet):
    new = certify_bet(scenario, bet)
    old = certify_reference.certify_bet(scenario, bet)
    fields = ("value_at_lie", "worst_case_at_truth", "passed", "robust_worst_case")
    assert [_typed(getattr(new, f)) for f in fields] == [_typed(getattr(old, f)) for f in fields], bet
    return new


def _synthesized_bets(scenario):
    for agent in scenario.agents:
        for truth in scenario.states:
            for lie in scenario.states:
                if truth != lie:
                    try:
                        yield synthesize_bet(scenario, agent, truth, lie)
                    except InfeasibleSeparation:
                        continue


def test_hand_zero_and_negated_bets_match_the_reference():
    leading = fixtures.leading_example()
    hand = Bet("A", "M", "H", ((LOW, F(1)), (TOP, F(-1))), margin=F(1, 5))
    zero = Bet("A", "M", "H", (), margin=F(0))
    negated = Bet("A", "M", "H", ((LOW, F(-1)), (TOP, F(1))), margin=F(0))
    reports = [assert_matches_reference(leading, bet) for bet in (hand, zero, negated)]
    assert [report.passed for report in reports] == [True, False, False]


def test_synthesized_bets_on_the_fixtures_match_the_reference():
    checked = 0
    for make in FIXTURES:
        scenario = make()
        for bet in _synthesized_bets(scenario):
            assert assert_matches_reference(scenario, bet).passed
            checked += 1
    assert checked > 20


def test_synthesized_bets_on_random_scenarios_match_the_reference():
    checked = 0
    for seed in range(40):
        scenario = random_scenario(seed)
        for bet in _synthesized_bets(scenario):
            assert_matches_reference(scenario, bet)
            checked += 1
    assert checked > 100


WEIGHTS = st.sampled_from((F(0), F(1), F(-1), F(1, 2), F(-1, 3), F(5, 7), F(-7, 4), F(3)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_weight_maps_match_the_reference(data):
    index = data.draw(st.integers(-len(FIXTURES), 199))
    scenario = FIXTURES[index]() if index < 0 else random_scenario(index)
    agent = data.draw(st.sampled_from(scenario.agents))
    truth = data.draw(st.sampled_from(scenario.states))
    lie = data.draw(st.sampled_from(scenario.states))
    collections = scenario.presentable(agent)
    weights = data.draw(st.lists(WEIGHTS, min_size=len(collections), max_size=len(collections)))
    bet = Bet(agent, truth, lie, tuple((c, w) for c, w in zip(collections, weights) if w != 0), margin=F(0))
    assert_matches_reference(scenario, bet)
