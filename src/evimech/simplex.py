"""Primal simplex over exact rationals for integer `<=` programs with a
feasible origin, pivoting on integer rows.

`maximize` takes one LP form: maximize c·x over x >= 0 subject to
row·x <= rhs, with every entry an `int` and every rhs >= 0. The origin is
then feasible, so the slack columns are the starting basis and one simplex
run reaches the optimum (no phase 1). Input outside the form raises.

Small problems only; every verdict downstream depends on exact optima, which
rules out floating-point LP backends. Outputs are `Fraction`s. Inside, each
tableau row holds integer numerators over a positive per-row denominator, so
it stands for exactly the rational row a `Fraction` tableau would hold.
An elimination step touches only the nonzero entries of the pivot row unless
it must rescale the row to stay integral; a rescaled row is reduced by its
gcd. Pivoting uses the largest-coefficient rule with an automatic switch to
Bland's rule on stalls, so it is fast in practice and provably terminating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd

_STALL_LIMIT = 12


@dataclass
class LpResult:
    status: str  # "optimal" | "unbounded"
    objective: Fraction | None
    values: list | None


def _eliminate(row, den, c, prow, nz):
    """Subtract the multiple of the pivot row that zeroes `row[c]`.

    The pivot row has numerator prow[c] > 0 in column c and nonzero entries
    at the indices nz. Returns the new row and its denominator; `row` may be
    updated in place.
    """
    f = row[c]
    p = prow[c]
    h = gcd(p, f)
    s, f = p // h, f // h
    if s == 1:
        for j in nz:
            row[j] -= f * prow[j]
        return row, den
    row = [a * s for a in row]
    for j in nz:
        row[j] -= f * prow[j]
    # reduce() rather than gcd(*row): unpacking builds a tuple per call, and
    # CPython keeps freed short tuples on free lists, which measurably raised
    # peak memory.
    g = reduce(gcd, row, den * s)
    if g != 1:
        row = [a // g for a in row]
    return row, den * s // g


def _pivot(rows, dens, bas, r, c):
    """Make column c basic in row r; returns the pivot row's nonzero entries."""
    prow = rows[r]
    g = reduce(gcd, prow)
    if prow[c] < 0:
        g = -g
    if g != 1:
        prow = rows[r] = [a // g for a in prow]
    p = dens[r] = prow[c]
    nz = [j for j, b in enumerate(prow) if b]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            rows[i], dens[i] = _eliminate(row, dens[i], c, prow, nz)
    bas[r] = c
    return nz


def _run_simplex(rows, dens, bas, cost, cost_den, ncols):
    """Minimize the cost row (numerators over one positive denominator)."""
    stall = 0
    bland = False
    columns = range(ncols)
    while True:
        if bland:
            enter = next((j for j in columns if cost[j] < 0), -1)
        else:
            # the first of the most negative costs
            enter = min(columns, key=cost.__getitem__, default=-1)
            if enter >= 0 and cost[enter] >= 0:
                enter = -1
        if enter < 0:
            return "optimal", cost
        # Ratio test: row i's ratio is row[-1] / row[enter], its denominator
        # cancels; ratios are compared by cross-multiplication.
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                b = row[-1]
                if leave < 0:
                    leave, best_a, best_b = i, a, b
                    continue
                lhs, rhs = b * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and bas[i] < bas[leave]):
                    leave, best_a, best_b = i, a, b
        if leave < 0:
            return "unbounded", cost
        if best_b == 0:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        nz = _pivot(rows, dens, bas, leave, enter)
        if cost[enter]:
            cost, cost_den = _eliminate(cost, cost_den, enter, rows[leave], nz)


def _check_ints(entries, where):
    for a in entries:
        if type(a) is not int:  # a bool, Fraction or float too
            raise TypeError(f"{where}: LP entries must be ints, got {type(a).__name__}")


def maximize(objective, constraints):
    """Maximize objective · x over x >= 0 subject to row · x <= rhs.

    objective: list of ints, one per variable.
    constraints: list of (row, rhs) pairs, each row a list of ints as long as
    the objective and each rhs an int >= 0.

    A non-`int` entry raises `TypeError`; a row of another length or a
    negative rhs raises `ValueError`.
    """
    n = len(objective)
    m = len(constraints)
    _check_ints(objective, "objective")
    rows = []
    for i, (row, rhs) in enumerate(constraints):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries for {n} variables")
        _check_ints((*row, rhs), f"row {i}")
        if rhs < 0:
            raise ValueError(f"row {i} has a negative rhs {rhs}: the origin is infeasible")
        slacks = [0] * m
        slacks[i] = 1
        rows.append([*row, *slacks, rhs])
    dens = [1] * m
    basis = list(range(n, n + m))
    cost = [-c for c in objective] + [0] * (m + 1)
    status, _ = _run_simplex(rows, dens, basis, cost, 1, n + m)
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    # A basic column reads rhs / den; every other variable is 0.
    values = [Fraction(0)] * n
    for row, den, col in zip(rows, dens, basis):
        if col < n:
            values[col] = Fraction(row[-1], den)
    achieved = sum((c * v for c, v in zip(objective, values) if c), Fraction(0))
    return LpResult("optimal", achieved, values)
