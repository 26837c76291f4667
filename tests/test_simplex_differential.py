"""Differential tests: the integer-row simplex against the `Fraction`-row
simplex it replaced (`simplex_reference.py`). Each integer `<=` LP goes to
the reference as `<=` rows over nonnegative variables. Status, objective,
values and the whole pivot sequence must be identical, on every LP of
criterion 9's population, on the LPs of `test_simplex.py`, and on fuzzed
small LPs."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import simplex_reference
import test_simplex
from evimech import simplex
from evimech.deception import InfeasibleSeparation, synthesize_bet
from test_acceptance import _population


def _outcome(solve, objective, constraints):
    try:
        result = solve(objective, constraints)
    except Exception as exc:  # both sides must fail alike
        return type(exc).__name__
    if result.status == "optimal":
        assert type(result.objective) is Fraction
        assert all(type(v) is Fraction for v in result.values)
    return result.status, result.objective, result.values


def _reference(objective, constraints, pivots):
    rows = [(row, simplex_reference.LE, rhs) for row, rhs in constraints]
    return simplex_reference.maximize(objective, rows, [(0, None)] * len(objective), pivots=pivots)


def assert_matches_reference(objective, constraints):
    with test_simplex.pivot_log() as log:
        new = _outcome(simplex.maximize, objective, constraints)
    reference_pivots = []
    reference = _outcome(lambda *lp: _reference(*lp, reference_pivots), objective, constraints)
    assert new == reference, (objective, constraints)
    assert [(pivot.row, pivot.col) for pivot in log] == reference_pivots


def _distinct(lps):
    return {repr(lp): lp for lp in lps}.values()


def test_every_criterion_9_lp_matches_the_reference():
    with test_simplex.captured_lps() as lps:
        for scn in _population():
            for agent in scn.agents:
                for s in scn.states:
                    for s_prime in scn.states:
                        if s != s_prime:
                            try:
                                synthesize_bet(scn, agent, s, s_prime)
                            except InfeasibleSeparation:
                                pass
    lps = _distinct(lps)
    assert len(lps) > 3000
    for lp in lps:
        assert_matches_reference(*lp)


def test_simplex_suite_lps_match_the_reference():
    with test_simplex.captured_lps() as lps:
        for name, test in vars(test_simplex).items():
            if name.startswith("test_"):
                test()
    lps = _distinct(lps)
    assert len(lps) >= 6
    for lp in lps:
        assert_matches_reference(*lp)


@st.composite
def small_lps(draw, low=-3, high=3, bound_rows=False):
    """An integer `<=` LP with nonnegative right-hand sides; with
    `bound_rows`, unit rows x_j <= b_j follow, as the bet LP's bounds do."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(low, high), min_size=n, max_size=n)
    rhs = st.integers(0, high)
    constraints = draw(st.lists(st.tuples(row, rhs), max_size=4))
    if bound_rows:
        for j in sorted(draw(st.sets(st.integers(0, n - 1)))):
            constraints.append(([int(k == j) for k in range(n)], draw(rhs)))
    return draw(row), constraints


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(small_lps(-12, 12))
def test_fuzzed_small_lps_match_the_reference(lp):
    # wider coefficients, so eliminations rescale rows and reduce them by gcds
    assert_matches_reference(*lp)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(small_lps(bound_rows=True))
def test_fuzzed_integer_lps_match_the_reference(lp):
    assert_matches_reference(*lp)
