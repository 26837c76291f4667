"""Differential tests: `synthesize_bet` over integer rows with a feasible
origin against the `Fraction`-row LP it replaced (`bet_lp_reference.py`).

Margins and verdicts (a bet, or `InfeasibleSeparation`) must be identical on
every (agent, truth, lie) of the fixtures and of random scenarios with up to
four and up to three states. A bet may sit on another optimal vertex of the
same LP, so weights are not compared; every bet must certify instead, with
sup-norm at most 1. Guards check every LP the function hands to
`simplex.maximize`: its form (integer `(row, rhs)` pairs with nonnegative
right-hand sides, one simplex run from the slack basis), its presolve (no
column that an optimum fixes, found from the trailing u_c <= 2 rows), and
the pivot total over criterion 9's population."""

from fractions import Fraction

import pytest

import bet_lp_reference
from evimech import fixtures, simplex
from evimech.deception import InfeasibleSeparation, certify_bet, synthesize_bet
from evimech.generators import random_scenario
from evimech.scenario import ScenarioError
from test_acceptance import _population
from test_simplex import captured_lps


def _scenarios():
    yield from (build() for build in fixtures.ALL_FIXTURES.values())
    yield from (random_scenario(seed) for seed in range(1500))
    yield from (random_scenario(seed, max_states=3) for seed in range(1500))


def _pairs(scenario):
    for agent in scenario.agents:
        for truth in scenario.states:
            for lie in scenario.states:
                if truth != lie:
                    yield agent, truth, lie


def _outcome(synthesize, scenario, *args):
    try:
        return synthesize(scenario, *args)
    except (InfeasibleSeparation, ScenarioError) as exc:
        return type(exc)


def test_margins_and_verdicts_match_the_reference():
    pairs = bets = 0
    for scenario in _scenarios():
        for case in _pairs(scenario):
            new = _outcome(synthesize_bet, scenario, *case)
            old = _outcome(bet_lp_reference.synthesize_bet, scenario, *case)
            pairs += 1
            if old is InfeasibleSeparation:
                assert new is InfeasibleSeparation, case
                continue
            assert new is not InfeasibleSeparation, case
            assert (type(new.margin), new.margin) == (Fraction, old.margin), case
            assert (new.agent, new.truth_state, new.lie_state) == case
            assert all(type(w) is Fraction and -1 <= w <= 1 for _, w in new.weights), case
            report = certify_bet(scenario, new)
            assert report.passed, case
            assert report.value_at_lie <= -new.margin, case
            assert report.robust_worst_case >= new.margin, case
            bets += 1
    assert pairs == 40460
    assert 0 < bets < pairs


@pytest.mark.parametrize(
    "agent, truth, lie",
    [("Z", "M", "H"), ("A", "X", "H"), ("A", "M", "X"), ("A", "M", "M"), ("A", "H", "H"), ("A", "L", "L")],
)
def test_errors_match_the_reference(agent, truth, lie):
    leading = fixtures.leading_example()
    new = _outcome(synthesize_bet, leading, agent, truth, lie)
    old = _outcome(bet_lp_reference.synthesize_bet, leading, agent, truth, lie)
    assert new is old
    assert new in (InfeasibleSeparation, ScenarioError)


def test_every_criterion_9_bet_lp_starts_from_a_feasible_origin(monkeypatch):
    runs = []
    run_simplex = simplex._run_simplex

    def count(*args):
        runs.append(None)
        return run_simplex(*args)

    monkeypatch.setattr(simplex, "_run_simplex", count)
    pairs = 0
    with captured_lps() as lps:
        for scenario in _population():
            for case in _pairs(scenario):
                _outcome(synthesize_bet, scenario, *case)
                pairs += 1
    assert len(lps) == pairs == 8354
    # one simplex run per LP, from the slack basis
    assert len(runs) == len(lps)
    for objective, constraints in lps:
        assert all(type(a) is int for a in objective)
        for row, rhs in constraints:
            assert len(row) == len(objective)
            assert all(type(a) is int for a in row)
            assert type(rhs) is int and rhs >= 0


def _solve_criterion_9(monkeypatch):
    """Every bet LP of criterion 9's population as handed to
    `simplex.maximize`, and the number of pivots made on them."""
    pivots = []
    pivot = simplex._pivot

    def count(*args):
        pivots.append(None)
        return pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", count)
    with captured_lps() as lps:
        for scenario in _population():
            for case in _pairs(scenario):
                _outcome(synthesize_bet, scenario, *case)
    return lps, len(pivots)


def _u_bounds(constraints, t_col):
    """Split off the trailing unit rows x_j <= 2 with j < t_col: the bounds
    u_c <= 2. No other row of the bet LP is one (the lie and truth rows
    reach t, a link row has a -1)."""
    k = len(constraints)
    while k:
        row, rhs = constraints[k - 1]
        if rhs != 2 or row[t_col] or sorted(row) != [0] * t_col + [1]:
            break
        k -= 1
    return [row for row, _ in constraints[k:]], [row for row, _ in constraints[:k]]


def test_every_criterion_9_bet_lp_is_presolved(monkeypatch):
    lps, _ = _solve_criterion_9(monkeypatch)
    assert len(lps) == 8354
    for objective, constraints in lps:
        t_col = len(objective) - 1
        assert objective == [0] * t_col + [1]
        # the lie row, one u_c - v_K <= 0 row per c within K, the truth row,
        # then u_c <= 2 for the leading u columns in column order
        bounds, (lie_row, *links, truth_row) = _u_bounds(constraints, t_col)
        u_cols = range(len(bounds))
        assert bounds == [[int(j == u) for j in range(t_col + 1)] for u in u_cols]
        assert lie_row[t_col] > 0 and truth_row[t_col] > 0
        v_cols = range(len(bounds), t_col)
        for row in links:
            assert sorted((a, j in u_cols, j in v_cols) for j, a in enumerate(row) if a) == [
                (-1, False, True),
                (1, True, False),
            ]
        # a source within reach of one lie-support collection or none has no
        # v column, and every u column is capped by a source
        for v in v_cols:
            assert sum(row[v] == -1 for row in links) >= 2
        for u in u_cols:
            assert any(row[u] == 1 for row in links) or truth_row[u] > 0


def test_criterion_9_pivot_total(monkeypatch):
    # Exact for this LP form and pivot rule: 34,848 before the presolve, so a
    # change that undoes it (or alters the pivots) shows here.
    _, pivots = _solve_criterion_9(monkeypatch)
    assert pivots == 23363
