from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction

import pytest

import simplex_reference
import two_phase_reference as two_phase
from evimech import simplex

F = Fraction


def test_simple_maximization():
    # max 3x + 2y st x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), value 12
    result = simplex.maximize([3, 2], [([1, 1], 4), ([1, 3], 6)])
    assert result.status == "optimal"
    assert result.objective == F(12)
    assert result.values == [F(4), F(0)]


def test_fractional_optimum():
    # max x + y st 3x <= 1, x + 2y <= 1 -> x = 1/3, y = 1/3
    result = simplex.maximize([1, 1], [([3, 0], 1), ([1, 2], 1)])
    assert result.status == "optimal"
    assert result.objective == F(2, 3)
    assert result.values == [F(1, 3), F(1, 3)]


def test_zero_objective_stays_at_the_origin():
    result = simplex.maximize([0], [([1], 1)])
    assert result.status == "optimal"
    assert result.objective == 0
    assert result.values == [F(0)]


def test_unbounded():
    result = simplex.maximize([1], [])
    assert result.status == "unbounded"
    assert result.objective is None and result.values is None


def test_degenerate_cycling_guard():
    # Beale's cycling example with its rows and objective scaled to integers:
    # max 75x1 - 15000x2 + 2x3 - 600x4 -> x = (1/25, 0, 1, 0), value 5
    result = simplex.maximize(
        [75, -15000, 2, -600],
        [([25, -6000, -4, 900], 0), ([50, -9000, -2, 300], 0), ([0, 0, 1, 0], 1)],
    )
    assert result.status == "optimal"
    assert result.objective == F(5)
    assert result.values == [F(1, 25), F(0), F(1), F(0)]


# -- input outside the one form raises, never solves -------------------------


def test_negative_rhs_raises():
    with pytest.raises(ValueError, match="negative rhs"):
        simplex.maximize([1, 1], [([1, 1], 4), ([1, -1], -1)])


def test_row_length_mismatch_raises():
    for row in ([1], [1, 1, 1]):
        with pytest.raises(ValueError, match="entries for 2 variables"):
            simplex.maximize([1, 1], [([1, 1], 4), (row, 1)])


def test_entries_that_are_not_ints_raise():
    # a bool is an int subclass but not an LP entry
    for bad in (True, F(1), F(1, 2), 1.0):
        with pytest.raises(TypeError):
            simplex.maximize([1, bad], [([1, 1], 4)])
        with pytest.raises(TypeError):
            simplex.maximize([1, 1], [([1, bad], 4)])
        with pytest.raises(TypeError):
            simplex.maximize([1, 1], [([1, 1], bad)])


# -- pivot and LP capture; the switch to Bland's rule -------------------------


Pivot = namedtuple("Pivot", "row col entry rhs")  # entry, rhs: numerators before the pivot


@contextmanager
def pivot_log():
    """Record every pivot `simplex.maximize` or the two-phase oracle makes
    inside the block (the oracle's drive-out pivots call its own import)."""
    log = []
    original = simplex._pivot

    def record(rows, dens, bas, r, c):
        log.append(Pivot(r, c, rows[r][c], rows[r][-1]))
        return original(rows, dens, bas, r, c)

    simplex._pivot = two_phase._pivot = record
    try:
        yield log
    finally:
        simplex._pivot = two_phase._pivot = original


@contextmanager
def captured_lps():
    """Record every (objective, constraints) LP that `simplex.maximize`
    solves inside the block, in call order; an LP it refuses raises before
    it is recorded."""
    lps = []
    original = simplex.maximize

    def capture(objective, constraints):
        result = original(objective, constraints)
        lps.append((objective, constraints))
        return result

    simplex.maximize = capture
    try:
        yield lps
    finally:
        simplex.maximize = original


# Six homogeneous rows and x1 + ... + x8 <= 1: the largest-coefficient rule
# makes 14 degenerate pivots in a row from the origin.
STALLING_LP = (
    [3, 2, 2, 2, 0, 0, -1, 1],
    [
        ([3, 2, -1, -2, 3, 1, 3, -2], 0),
        ([-3, 3, 3, 1, -1, -3, -3, -2], 0),
        ([3, 0, 3, -1, 1, -3, -2, 1], 0),
        ([3, -3, -1, 2, -2, 2, -2, -2], 0),
        ([3, 3, 1, 0, 1, 0, 3, 0], 0),
        ([3, -1, -2, 1, -1, -2, -1, 1], 0),
        ([1, 1, 1, 1, 1, 1, 1, 1], 1),
    ],
)


def test_bland_switch_after_stall_limit():
    # The stall limit switches to Bland's rule before the degenerate run
    # ends, which changes the path; the optimum is the reference's.
    objective, constraints = STALLING_LP
    limit = simplex._STALL_LIMIT
    with pivot_log() as log:
        result = simplex.maximize(objective, constraints)
    degenerate_run = next(k for k, pivot in enumerate(log) if pivot.rhs)
    assert degenerate_run > limit
    reference = simplex_reference.maximize(
        objective, [(row, simplex_reference.LE, rhs) for row, rhs in constraints], [(0, None)] * len(objective)
    )
    assert (result.status, result.objective, result.values) == (reference.status, reference.objective, reference.values)
    assert result.objective == F(5, 6)

    simplex._STALL_LIMIT = len(log) + 1  # no switch this time
    try:
        with pivot_log() as unswitched:
            assert simplex.maximize(objective, constraints).objective == F(5, 6)
    finally:
        simplex._STALL_LIMIT = limit
    assert unswitched[:limit] == log[:limit]
    assert unswitched != log


# -- the two-phase oracle of the bet-LP differential test ----------------------
#
# `two_phase_reference.maximize` decides that test's verdicts, so its senses,
# bounds, phase 1 and drive-out pivots keep their hand-checked optima.


def test_equality_and_fractional_optimum():
    # max x + y st x + 2y == 1, x <= 1/3 -> x=1/3, y=1/3
    result = two_phase.maximize(
        [F(1), F(1)],
        [([F(1), F(2)], two_phase.EQ, F(1))],
        [(F(0), F(1, 3)), (F(0), None)],
    )
    assert result.status == "optimal"
    assert result.objective == F(2, 3)
    assert result.values == [F(1, 3), F(1, 3)]


def test_free_variables():
    # max -x st x >= -5 encoded with free variable and explicit constraint
    result = two_phase.maximize(
        [F(-1)],
        [([F(1)], two_phase.GE, F(-5))],
        [(None, None)],
    )
    assert result.status == "optimal"
    assert result.objective == F(5)
    assert result.values == [F(-5)]


def test_infeasible():
    result = two_phase.maximize(
        [F(1)],
        [([F(1)], two_phase.LE, F(1)), ([F(1)], two_phase.GE, F(2))],
        [(F(0), None)],
    )
    assert result.status == "infeasible"
    # the same program as `<=` rows has a negative rhs, which `simplex` refuses
    with pytest.raises(ValueError, match="negative rhs"):
        simplex.maximize([1], [([1], 1), ([-1], -2)])


def test_feasibility_helper():
    # with a zero objective, phase 1 alone decides feasibility
    assert two_phase.maximize([F(0)], [([F(1)], two_phase.LE, F(1))], [(F(0), None)]).status == "optimal"
    assert (
        two_phase.maximize([F(0)], [([F(1)], two_phase.LE, F(0)), ([F(1)], two_phase.GE, F(1))], [(F(0), None)]).status
        == "infeasible"
    )


def test_redundant_equality_keeps_its_artificial_basic():
    # max x st x + y == 1, 2x + 2y == 2 -> (1, 0), value 1; the second row is
    # the first doubled, so its artificial stays basic at zero after phase 1
    # and no pivot can drive it out.
    with pivot_log() as log:
        result = two_phase.maximize(
            [F(1), F(0)],
            [([F(1), F(1)], two_phase.EQ, F(1)), ([F(2), F(2)], two_phase.EQ, F(2))],
            [(F(0), None), (F(0), None)],
        )
    assert result.status == "optimal"
    assert result.objective == F(1)
    assert result.values == [F(1), F(0)]
    assert len(log) == 1


def test_drive_out_pivot_on_a_negative_entry():
    # max x + y + z st x - y == 0, x - 2y == 0, x + z <= 3 -> x = y = 0, z = 3.
    # Phase 1 ends with the second artificial basic at zero in a row reading
    # -y + ..., so the drive-out pivots on -1.
    with pivot_log() as log:
        result = two_phase.maximize(
            [F(1), F(1), F(1)],
            [
                ([F(1), F(-1), F(0)], two_phase.EQ, F(0)),
                ([F(1), F(-2), F(0)], two_phase.EQ, F(0)),
                ([F(1), F(0), F(1)], two_phase.LE, F(3)),
            ],
            [(F(0), None)] * 3,
        )
    assert result.status == "optimal"
    assert result.objective == F(3)
    assert result.values == [F(0), F(0), F(3)]
    assert any(pivot.entry < 0 for pivot in log)


def test_upper_bounded_only_variable():
    # max x + 2y st x + y <= 2, x <= 5 (no lower bound), 0 <= y <= 1
    # -> y = 1, x = 1, value 3; x sits strictly inside its bound.
    result = two_phase.maximize(
        [F(1), F(2)],
        [([F(1), F(1)], two_phase.LE, F(2))],
        [(None, F(5)), (F(0), F(1))],
    )
    assert result.status == "optimal"
    assert result.objective == F(3)
    assert result.values == [F(1), F(1)]


def test_ge_row_with_negative_rhs_flips_to_le():
    # max x + 2y st -x - y >= -4, x - y >= -2 (that is x + y <= 4, y - x <= 2)
    # -> the unique vertex (1, 3), value 7; both rows start with a basic slack.
    with pivot_log() as log:
        result = two_phase.maximize(
            [F(1), F(2)],
            [([F(-1), F(-1)], two_phase.GE, F(-4)), ([F(1), F(-1)], two_phase.GE, F(-2))],
            [(F(0), None), (F(0), None)],
        )
    assert result.status == "optimal"
    assert result.objective == F(7)
    assert result.values == [F(1), F(3)]
    assert len(log) == 2 and all(pivot.entry > 0 for pivot in log)
