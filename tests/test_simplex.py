from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction

from evimech import simplex

F = Fraction


def test_simple_maximization():
    # max 3x + 2y st x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), value 12
    result = simplex.maximize(
        [F(3), F(2)],
        [([F(1), F(1)], simplex.LE, F(4)), ([F(1), F(3)], simplex.LE, F(6))],
        [(F(0), None), (F(0), None)],
    )
    assert result.status == "optimal"
    assert result.objective == F(12)
    assert result.values == [F(4), F(0)]


def test_equality_and_fractional_optimum():
    # max x + y st x + 2y == 1, x <= 1/3 -> x=1/3, y=1/3
    result = simplex.maximize(
        [F(1), F(1)],
        [([F(1), F(2)], simplex.EQ, F(1))],
        [(F(0), F(1, 3)), (F(0), None)],
    )
    assert result.status == "optimal"
    assert result.objective == F(2, 3)
    assert result.values == [F(1, 3), F(1, 3)]


def test_free_variables():
    # max -x st x >= -5 encoded with free variable and explicit constraint
    result = simplex.maximize(
        [F(-1)],
        [([F(1)], simplex.GE, F(-5))],
        [(None, None)],
    )
    assert result.status == "optimal"
    assert result.objective == F(5)
    assert result.values == [F(-5)]


def test_infeasible():
    result = simplex.maximize(
        [F(1)],
        [([F(1)], simplex.LE, F(1)), ([F(1)], simplex.GE, F(2))],
        [(F(0), None)],
    )
    assert result.status == "infeasible"


def test_unbounded():
    result = simplex.maximize([F(1)], [], [(F(0), None)])
    assert result.status == "unbounded"


def test_degenerate_cycling_guard():
    # classic degenerate LP; Bland's rule must terminate
    result = simplex.maximize(
        [F(3, 4), F(-150), F(1, 50), F(-6)],
        [
            ([F(1, 4), F(-60), F(-1, 25), F(9)], simplex.LE, F(0)),
            ([F(1, 2), F(-90), F(-1, 50), F(3)], simplex.LE, F(0)),
            ([F(0), F(0), F(1), F(0)], simplex.LE, F(1)),
        ],
        [(F(0), None)] * 4,
    )
    assert result.status == "optimal"
    assert result.objective == F(1, 20)


def test_feasibility_helper():
    # with a zero objective, phase 1 alone decides feasibility
    assert simplex.maximize([F(0)], [([F(1)], simplex.LE, F(1))], [(F(0), None)]).status == "optimal"
    assert (
        simplex.maximize([F(0)], [([F(1)], simplex.LE, F(0)), ([F(1)], simplex.GE, F(1))], [(F(0), None)]).status
        == "infeasible"
    )


# -- branches of the integer-row tableau, each with a hand-checked optimum ------


Pivot = namedtuple("Pivot", "row col entry rhs")  # entry, rhs: numerators before the pivot


@contextmanager
def pivot_log():
    """Record every pivot `simplex.maximize` makes inside the block."""
    log = []
    original = simplex._pivot

    def record(rows, dens, bas, r, c):
        log.append(Pivot(r, c, rows[r][c], rows[r][-1]))
        return original(rows, dens, bas, r, c)

    simplex._pivot = record
    try:
        yield log
    finally:
        simplex._pivot = original


def test_redundant_equality_keeps_its_artificial_basic():
    # max x st x + y == 1, 2x + 2y == 2 -> (1, 0), value 1; the second row is
    # the first doubled, so its artificial stays basic at zero after phase 1
    # and no pivot can drive it out.
    with pivot_log() as log:
        result = simplex.maximize(
            [F(1), F(0)],
            [([F(1), F(1)], simplex.EQ, F(1)), ([F(2), F(2)], simplex.EQ, F(2))],
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
        result = simplex.maximize(
            [F(1), F(1), F(1)],
            [
                ([F(1), F(-1), F(0)], simplex.EQ, F(0)),
                ([F(1), F(-2), F(0)], simplex.EQ, F(0)),
                ([F(1), F(0), F(1)], simplex.LE, F(3)),
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
    result = simplex.maximize(
        [F(1), F(2)],
        [([F(1), F(1)], simplex.LE, F(2))],
        [(None, F(5)), (F(0), F(1))],
    )
    assert result.status == "optimal"
    assert result.objective == F(3)
    assert result.values == [F(1), F(1)]


def test_ge_row_with_negative_rhs_flips_to_le():
    # max x + 2y st -x - y >= -4, x - y >= -2 (that is x + y <= 4, y - x <= 2)
    # -> the unique vertex (1, 3), value 7; both rows start with a basic slack.
    with pivot_log() as log:
        result = simplex.maximize(
            [F(1), F(2)],
            [([F(-1), F(-1)], simplex.GE, F(-4)), ([F(1), F(-1)], simplex.GE, F(-2))],
            [(F(0), None), (F(0), None)],
        )
    assert result.status == "optimal"
    assert result.objective == F(7)
    assert result.values == [F(1), F(3)]
    assert len(log) == 2 and all(pivot.entry > 0 for pivot in log)


def test_bland_switch_after_stall_limit():
    # Beale's cycling example: the largest-coefficient rule cycles through
    # degenerate pivots until the stall limit switches to Bland's rule, which
    # reaches x = (1/25, 0, 1, 0), value 1/20.
    with pivot_log() as log:
        result = simplex.maximize(
            [F(3, 4), F(-150), F(1, 50), F(-6)],
            [
                ([F(1, 4), F(-60), F(-1, 25), F(9)], simplex.LE, F(0)),
                ([F(1, 2), F(-90), F(-1, 50), F(3)], simplex.LE, F(0)),
                ([F(0), F(0), F(1), F(0)], simplex.LE, F(1)),
            ],
            [(F(0), None)] * 4,
        )
    assert result.status == "optimal"
    assert result.objective == F(1, 20)
    assert result.values == [F(1, 25), F(0), F(1), F(0)]
    degenerate_run = next(k for k, pivot in enumerate(log) if pivot.rhs)
    assert degenerate_run > simplex._STALL_LIMIT
