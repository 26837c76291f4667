"""Exact rationals: the "num/den" wire format, and the one home of common
denominators, products of independent laws, the quadratic score and the
squared distance."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm


class RationalFormatError(ValueError):
    pass


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer string) into a Fraction."""
    if not isinstance(text, str):
        raise RationalFormatError(f"rational must be a string, got {type(text).__name__}")
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise RationalFormatError(f"bad rational {text!r}: {exc}") from exc
    raise RationalFormatError(f"bad rational {text!r}")


def is_exact(value) -> bool:
    """True for an int (not a bool) or a Fraction, the only numbers a verdict
    may read: a float (or a bool) would enter as its binary value."""
    return type(value) is int or isinstance(value, Fraction)


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


# -- exact arithmetic shared by every layer -----------------------------------


def common_denominator(values) -> int:
    """L, the lcm of the values' denominators (1 for no values)."""
    return lcm(*(value.denominator for value in values))


def numerators(values, L) -> list:
    """Each value as its integer numerator over L, a multiple of its denominator."""
    return [value.numerator * (L // value.denominator) for value in values]


def joint(factors) -> tuple:
    """(W, [(weight numerator over W, the parts concatenated), ...]): the
    product law of independent factors, each a list of (numerator,
    denominator, part) rows with each part a tuple, one entry per choice of a
    row from every factor, in `itertools.product` order. Products stay
    unreduced: W, the lcm of their denominators, is a common denominator, and
    a caller's Fraction reduces."""
    combos = []
    common = 1
    for combo in itertools.product(*factors):
        num = den = 1
        key = ()
        for part_num, part_den, part in combo:
            num *= part_num
            den *= part_den
            key += part
        combos.append((num, den, key))
        common = lcm(common, den)
    return common, [(num * (common // den), key) for num, den, key in combos]


def quadratic_scores(report, points, scale=1) -> list:
    """The quadratic score 2 p(e) - |p|^2 of a report p (a map from points to
    masses; mass 0 off it) at each point e. With masses given as numerators
    over `scale`, each score comes as a numerator over scale^2."""
    self_dot = sum(mass * mass for mass in report.values())
    return [2 * scale * report.get(point, 0) - self_dot for point in points]


def squared_distance(p, q):
    """|p - q|^2 over the union of the points of two maps from points to
    masses: the expected loss of reporting q under the quadratic score when
    p is true. Numerators over a common L give a numerator over L^2."""
    total = sum((mass - q.get(point, 0)) ** 2 for point, mass in p.items())
    return total + sum(mass * mass for point, mass in q.items() if point not in p)
