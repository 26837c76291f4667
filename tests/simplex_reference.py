"""Reference for the differential tests: the dense `Fraction`-row simplex.

This is `evimech.simplex.maximize` as it stood before the tableau moved to
integer rows, copied verbatim except for the optional `pivots` log, which
records each (row, column) pivot so a test can compare pivot sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

LE, GE, EQ = "<=", ">=", "=="

_STALL_LIMIT = 12


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    values: list | None


def maximize(objective, constraints, bounds, pivots=None):
    """Maximize objective subject to constraints.

    objective: list of Fractions (one per variable).
    constraints: list of (coeffs, sense, rhs) with sense in {"<=", ">=", "=="}.
    bounds: list of (lo, hi) per variable; None means unbounded on that side.
    """
    objective = [Fraction(c) for c in objective]
    rows = [([Fraction(a) for a in coeffs], sense, Fraction(rhs)) for coeffs, sense, rhs in constraints]

    # Rewrite into standard-form variables y >= 0 via x = base + M y (per variable
    # a single column, or two columns for free variables).
    col_of = []
    base = []
    extra_rows = []
    y_count = 0
    for lo, hi in bounds:
        if lo is not None:
            base.append(Fraction(lo))
            col_of.append([(y_count, Fraction(1))])
            if hi is not None:
                extra_rows.append(([(y_count, Fraction(1))], LE, Fraction(hi) - Fraction(lo)))
            y_count += 1
        elif hi is not None:
            base.append(Fraction(hi))
            col_of.append([(y_count, Fraction(-1))])
            y_count += 1
        else:
            base.append(Fraction(0))
            col_of.append([(y_count, Fraction(1)), (y_count + 1, Fraction(-1))])
            y_count += 2

    def expand(coeffs):
        row = [Fraction(0)] * y_count
        shift = Fraction(0)
        for j, a in enumerate(coeffs):
            if a == 0:
                continue
            shift += a * base[j]
            for y_idx, sign in col_of[j]:
                row[y_idx] += a * sign
        return row, shift

    std_rows = []
    for coeffs, sense, rhs in rows:
        row, shift = expand(coeffs)
        std_rows.append([row, sense, rhs - shift])
    for sparse, sense, rhs in extra_rows:
        row = [Fraction(0)] * y_count
        for y_idx, a in sparse:
            row[y_idx] = a
        std_rows.append([row, sense, rhs])

    obj_row, _ = expand(objective)

    # Normalize every rhs nonnegative, attach slack columns, and use slacks of
    # "<=" rows as the starting basis where possible (artificials elsewhere).
    m = len(std_rows)
    for entry in std_rows:
        row, sense, rhs = entry
        if rhs < 0:
            entry[0] = [-a for a in row]
            entry[2] = -rhs
            entry[1] = LE if sense == GE else (GE if sense == LE else EQ)

    slack_count = sum(1 for _, sense, _ in std_rows if sense in (LE, GE))
    width = y_count + slack_count
    needs_artificial = []
    filled = []
    slack_used = 0
    for row, sense, rhs in std_rows:
        full = row + [Fraction(0)] * slack_count
        basis_col = None
        if sense in (LE, GE):
            sign = Fraction(1) if sense == LE else Fraction(-1)
            full[y_count + slack_used] = sign
            if sense == LE:
                basis_col = y_count + slack_used
            slack_used += 1
        filled.append((full, rhs, basis_col))
        needs_artificial.append(basis_col is None)

    art_count = sum(needs_artificial)
    total = width + art_count
    tableau = []
    basis = []
    art_used = 0
    for full, rhs, basis_col in filled:
        row = full + [Fraction(0)] * art_count + [rhs]
        if basis_col is None:
            row[width + art_used] = Fraction(1)
            basis.append(width + art_used)
            art_used += 1
        else:
            basis.append(basis_col)
        tableau.append(row)

    def pivot(tab, bas, row_i, col_j):
        if pivots is not None:  # the pivot log, the only addition
            pivots.append((row_i, col_j))
        piv = tab[row_i][col_j]
        if piv != 1:
            tab[row_i] = [a / piv for a in tab[row_i]]
        pivot_row = tab[row_i]
        for r in range(len(tab)):
            if r != row_i:
                factor = tab[r][col_j]
                if factor != 0:
                    tab[r] = [a - factor * p for a, p in zip(tab[r], pivot_row)]
        bas[row_i] = col_j

    def run_simplex(tab, bas, cost, ncols):
        stall = 0
        bland = False
        while True:
            enter = -1
            if bland:
                for j in range(ncols):
                    if cost[j] < 0:
                        enter = j
                        break
            else:
                best_cost = Fraction(0)
                for j in range(ncols):
                    if cost[j] < best_cost:
                        best_cost = cost[j]
                        enter = j
            if enter < 0:
                return "optimal", cost
            leave = -1
            best = None
            for i in range(len(tab)):
                if tab[i][enter] > 0:
                    ratio = tab[i][-1] / tab[i][enter]
                    if best is None or ratio < best or (ratio == best and bas[i] < bas[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded", cost
            if best == 0:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
            pivot(tab, bas, leave, enter)
            piv_cost = cost[enter]
            if piv_cost != 0:
                cost = [a - piv_cost * p for a, p in zip(cost, tab[leave])]

    if art_count:
        cost1 = [Fraction(0)] * (total + 1)
        for j in range(width, total):
            cost1[j] = Fraction(1)
        for i in range(m):
            if basis[i] >= width:
                cost1 = [a - p for a, p in zip(cost1, tableau[i])]
        status, cost1 = run_simplex(tableau, basis, cost1, total)
        if -cost1[-1] != 0:
            return LpResult("infeasible", None, None)
        for i in range(m):
            if basis[i] >= width:
                for j in range(width):
                    if tableau[i][j] != 0:
                        pivot(tableau, basis, i, j)
                        break

    # Phase 2: minimize -objective (we maximize); artificial columns are never
    # eligible to enter because the column scan stops at `width`.
    cost2 = [Fraction(0)] * (total + 1)
    for j in range(y_count):
        cost2[j] = -obj_row[j]
    for i in range(m):
        if basis[i] < width and cost2[basis[i]] != 0:
            factor = cost2[basis[i]]
            cost2 = [a - factor * p for a, p in zip(cost2, tableau[i])]
    status, cost2 = run_simplex(tableau, basis, cost2, width)
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    y = [Fraction(0)] * total
    for i, col in enumerate(basis):
        y[col] = tableau[i][-1]
    values = []
    for j in range(len(bounds)):
        val = base[j]
        for y_idx, sign in col_of[j]:
            val += sign * y[y_idx]
        values.append(val)
    achieved = sum((c * v for c, v in zip(objective, values)), Fraction(0))
    return LpResult("optimal", achieved, values)
