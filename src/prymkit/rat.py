"""Exact rational scalars and their canonical string form."""

import math
from fractions import Fraction

Rat = Fraction


def rat(x) -> Fraction:
    """Coerce ints, strings like '-3/4', or Fractions to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x: Fraction) -> str:
    """Canonical serialization: 'p/q', or just 'p' when q == 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def sqrt_exact(x: Fraction):
    """Return the nonnegative rational square root, or None if x is not
    a square of a rational."""
    x = Fraction(x)
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)
