"""Oracle for the bet-LP differential test: the two-phase
`evimech.simplex.maximize` as it stood before it was narrowed to integer
`<=` programs with a feasible origin.

`maximize` is copied verbatim: `<=`, `>=` and `==` rows with `Fraction` or
int entries, per-variable bounds (free, shifted and boxed variables), and
phase 1 over artificial columns with its drive-out pivots. It shares the
integer-row tableau helpers of `evimech.simplex`; besides "optimal" and
"unbounded" its `LpResult` status can read "infeasible".
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from evimech.rationals import common_denominator, numerators
from evimech.simplex import LpResult, _eliminate, _pivot, _run_simplex

LE, GE, EQ = "<=", ">=", "=="


def maximize(objective, constraints, bounds):
    """Maximize objective subject to constraints.

    objective: list of Fractions (one per variable).
    constraints: list of (coeffs, sense, rhs) with sense in {"<=", ">=", "=="}.
    bounds: list of (lo, hi) per variable; None means unbounded on that side.
    """
    # Rewrite into standard-form variables y >= 0 via x = base + M y (per variable
    # a single column, or two columns for free variables).
    col_of = []
    base = []
    spans = []  # (column, hi - lo as numerator, denominator) of boxed variables
    y_count = 0
    for lo, hi in bounds:
        if lo is not None:
            base.append(lo)
            col_of.append(((y_count, 1),))
            if hi is not None:
                span = hi.numerator * lo.denominator - lo.numerator * hi.denominator
                spans.append((y_count, span, hi.denominator * lo.denominator))
            y_count += 1
        elif hi is not None:
            base.append(hi)
            col_of.append(((y_count, -1),))
            y_count += 1
        else:
            base.append(0)
            col_of.append(((y_count, 1), (y_count + 1, -1)))
            y_count += 2
    base = [b.numerator if b.denominator == 1 else b for b in base]
    shifted = any(base)

    def expand(coeffs):
        # int coefficients are their own numerators over 1
        if all(type(a) is int for a in coeffs):
            den, nums = 1, coeffs
        else:
            den = common_denominator(coeffs)
            nums = numerators(coeffs, den)
        row = [0] * y_count
        for j, a in enumerate(nums):
            if a:
                for y_idx, sign in col_of[j]:
                    row[y_idx] += a * sign
        shift = sum(a * b for a, b in zip(nums, base) if a) if shifted else 0
        return row, den, shift  # the row is row / den, shifted by shift / den

    # Each standard-form row is [numerators over y, denominator, sense, rhs
    # numerator]: (row / den) . y  (sense)  rhs - shift / den.
    std_rows = []
    for coeffs, sense, rhs in constraints:
        row, den, shift = expand(coeffs)
        rn, rd = rhs.numerator, rhs.denominator
        sn, sd = shift.numerator, shift.denominator
        scale = rd * sd
        if scale != 1:
            row = [a * scale for a in row]
        std_rows.append([row, den * scale, sense, rn * sd * den - sn * rd])
    for y_idx, num, den in spans:
        row = [0] * y_count
        row[y_idx] = den
        std_rows.append([row, den, LE, num])
    obj_row = expand(objective)[0]

    # Normalize every rhs nonnegative, attach slack columns, and use slacks of
    # "<=" rows as the starting basis where possible (artificials elsewhere).
    m = len(std_rows)
    for entry in std_rows:
        if entry[3] < 0:
            entry[0] = [-a for a in entry[0]]
            entry[3] = -entry[3]
            entry[2] = LE if entry[2] == GE else (GE if entry[2] == LE else EQ)

    slack_count = sum(1 for entry in std_rows if entry[2] in (LE, GE))
    width = y_count + slack_count
    art_count = m - sum(1 for entry in std_rows if entry[2] == LE)
    total = width + art_count
    rows = []
    dens = []
    basis = []
    slack_used = 0
    art_used = 0
    for row, den, sense, rhs in std_rows:
        row = row + [0] * (slack_count + art_count) + [rhs]
        if sense in (LE, GE):
            row[y_count + slack_used] = den if sense == LE else -den
            slack_used += 1
        if sense == LE:
            basis.append(y_count + slack_used - 1)
        else:
            row[width + art_used] = den
            basis.append(width + art_used)
            art_used += 1
        if den != 1:  # else the gcd is 1
            g = reduce(gcd, row, den)
            if g != 1:
                row = [a // g for a in row]
                den //= g
        rows.append(row)
        dens.append(den)

    if art_count:
        # cost1 = sum of artificials, priced out against the artificial rows.
        art_rows = [i for i in range(m) if basis[i] >= width]
        cost_den = reduce(lcm, [dens[i] for i in art_rows])
        cost1 = [0] * width + [cost_den] * art_count + [0]
        for i in art_rows:
            k = cost_den // dens[i]
            cost1 = [a - k * b for a, b in zip(cost1, rows[i])]
        status, cost1 = _run_simplex(rows, dens, basis, cost1, cost_den, total)
        if cost1[-1]:
            return LpResult("infeasible", None, None)
        for i in range(m):
            if basis[i] >= width:
                for j in range(width):
                    if rows[i][j]:
                        _pivot(rows, dens, basis, i, j)
                        break

    # Phase 2: minimize -objective (we maximize); artificial columns are never
    # eligible to enter because the column scan stops at `width`.
    cost2 = [-a for a in obj_row] + [0] * (total - y_count + 1)
    cost_den = 1
    for i in range(m):
        col = basis[i]
        if col < width and cost2[col]:
            cost2, cost_den = _eliminate(
                cost2, cost_den, col, rows[i], [j for j, b in enumerate(rows[i]) if b]
            )
    status, cost2 = _run_simplex(rows, dens, basis, cost2, cost_den, width)
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    # A basic column reads rhs / den; x = base + sum of sign * y over its columns.
    y = {col: (rows[i][-1], dens[i]) for i, col in enumerate(basis) if col < y_count}
    values = []
    for j, b in enumerate(base):
        n, d = b.numerator, b.denominator
        for y_idx, sign in col_of[j]:
            if y_idx in y:
                yn, yd = y[y_idx]
                n, d = n * yd + sign * yn * d, d * yd
        values.append(Fraction(n, d))
    achieved = sum((c * v for c, v in zip(objective, values) if c), Fraction(0))
    return LpResult("optimal", achieved, values)
