"""Differential tests: the integer-row simplex against the `Fraction`-row
simplex it replaced (`simplex_reference.py`). Status, objective, values and
the whole pivot sequence must be identical, on every LP of criterion 9's
population, on the LPs of `test_simplex.py`, and on fuzzed small LPs."""

from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import simplex_reference
import test_simplex
from evimech import simplex
from evimech.deception import InfeasibleSeparation, synthesize_bet
from test_acceptance import _population


def _outcome(solve, objective, constraints, bounds):
    try:
        result = solve(objective, constraints, bounds)
    except Exception as exc:  # both sides must fail alike
        return type(exc).__name__
    if result.status == "optimal":
        assert type(result.objective) is Fraction
        assert all(type(v) is Fraction for v in result.values)
    return result.status, result.objective, result.values


def assert_matches_reference(objective, constraints, bounds):
    with test_simplex.pivot_log() as log:
        new = _outcome(simplex.maximize, objective, constraints, bounds)
    reference_pivots = []
    reference = _outcome(
        lambda *lp: simplex_reference.maximize(*lp, pivots=reference_pivots),
        objective,
        constraints,
        bounds,
    )
    assert new == reference, (objective, constraints, bounds)
    assert [(pivot.row, pivot.col) for pivot in log] == reference_pivots


@contextmanager
def captured_lps():
    """Collect the distinct LPs passed to `simplex.maximize` inside the block."""
    lps = {}
    original = simplex.maximize

    def capture(objective, constraints, bounds):
        lps.setdefault(repr((objective, constraints, bounds)), (objective, constraints, bounds))
        return original(objective, constraints, bounds)

    simplex.maximize = capture
    try:
        yield lps
    finally:
        simplex.maximize = original


def test_every_criterion_9_lp_matches_the_reference():
    with captured_lps() as lps:
        for scn in _population():
            for agent in scn.agents:
                for s in scn.states:
                    for s_prime in scn.states:
                        if s != s_prime:
                            try:
                                synthesize_bet(scn, agent, s, s_prime)
                            except InfeasibleSeparation:
                                pass
    assert len(lps) > 3000
    for lp in lps.values():
        assert_matches_reference(*lp)


def test_simplex_suite_lps_match_the_reference():
    with captured_lps() as lps:
        for name, test in vars(test_simplex).items():
            if name.startswith("test_"):
                test()
    assert len(lps) >= 11
    for lp in lps.values():
        assert_matches_reference(*lp)


_coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_integer = st.integers(min_value=-3, max_value=3)


@st.composite
def small_lps(draw, value=_coefficient):
    n = draw(st.integers(1, 4))
    row = st.lists(value, min_size=n, max_size=n)
    constraint = st.tuples(row, st.sampled_from([simplex.LE, simplex.GE, simplex.EQ]), value)
    constraints = draw(st.lists(constraint, max_size=4))
    bound = st.one_of(
        st.tuples(value, st.none()),
        st.tuples(st.none(), value),
        st.tuples(value, value),
        st.just((None, None)),
    )
    bounds = draw(st.lists(bound, min_size=n, max_size=n))
    return draw(row), constraints, bounds


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(small_lps())
def test_fuzzed_small_lps_match_the_reference(lp):
    assert_matches_reference(*lp)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(small_lps(_integer))
def test_fuzzed_integer_lps_match_the_reference(lp):
    # plain ints throughout, as the bet LP passes them
    assert_matches_reference(*lp)
