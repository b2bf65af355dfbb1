"""Igusa-Clebsch invariants of binary sextics.

A sextic is a coefficient list [a0..a6] (ascending in x) of the form
sum a_i x^i y^(6-i).  Invariants are computed from transvectants of the
form with itself and normalized so that, for a split sextic
lc * prod (x - r_i), they agree with the classical symmetric-function
expressions in the root differences; I10 is the discriminant.

The transvectant core is generic over the coefficient ring, so the same
code yields invariants with polynomial coefficients when the sextic's
coefficients live in Q[t].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .rat import Rat, rat, rat_str
from .upoly import UPoly, convolve, resultant, resultant_upoly_coeffs


def _deriv_x(form, order):
    # d/dX of sum a_i X^i Y^(order-i): coefficient i of result = (i+1) a_{i+1}
    return [form[i + 1] * (i + 1) for i in range(order)]


def _deriv_y(form, order):
    return [form[i] * (order - i) for i in range(order)]


def transvectant(f, g, m: int, n: int, r: int):
    """r-th transvectant of binary forms of orders m and n (coefficient lists
    ascending in x); returns a coefficient list of order m + n - 2r."""
    if r > m or r > n:
        raise ValueError("transvectant order exceeds form orders")
    total = None
    for k in range(r + 1):
        df = list(f)
        om = m
        for _ in range(r - k):
            df = _deriv_x(df, om)
            om -= 1
        for _ in range(k):
            df = _deriv_y(df, om)
            om -= 1
        dg = list(g)
        on = n
        for _ in range(k):
            dg = _deriv_x(dg, on)
            on -= 1
        for _ in range(r - k):
            dg = _deriv_y(dg, on)
            on -= 1
        term = convolve(df, dg)
        sgn = (-1) ** k * comb(r, k)
        term = [t * sgn for t in term]
        if total is None:
            total = term
        else:
            total = [a + b for a, b in zip(total, term)]
    pref = Fraction(factorial(m - r) * factorial(n - r), factorial(m) * factorial(n))
    return [t * pref for t in total]


def clebsch_abc(coeffs):
    """Clebsch invariants (A, B, C) of a binary sextic, generic coefficients."""
    f = list(coeffs)
    if len(f) != 7:
        raise ValueError("need 7 coefficients (a0..a6)")
    i4 = transvectant(f, f, 6, 6, 4)
    a = transvectant(f, f, 6, 6, 6)[0]
    b = transvectant(i4, i4, 4, 4, 4)[0]
    d4 = transvectant(i4, i4, 4, 4, 2)
    c = transvectant(i4, d4, 4, 4, 4)[0]
    return a, b, c


@dataclass(frozen=True)
class IgusaClebsch:
    """The weights-(2,4,6,10) invariants, a point of P(2,4,6,10)."""

    i2: Rat
    i4: Rat
    i6: Rat
    i10: Rat

    def as_tuple(self):
        return (self.i2, self.i4, self.i6, self.i10)

    def to_json(self):
        return {
            "I2": rat_str(self.i2),
            "I4": rat_str(self.i4),
            "I6": rat_str(self.i6),
            "I10": rat_str(self.i10),
        }

    @classmethod
    def from_json(cls, d):
        return cls(rat(d["I2"]), rat(d["I4"]), rat(d["I6"]), rat(d["I10"]))


def _disc_sextic_rational(coeffs):
    """Discriminant of the binary sextic with rational coefficients.

    For a degree-5 polynomial (a6 = 0) the extra root at infinity is simple
    and the binary discriminant equals disc(quintic) * lead(quintic)^2.
    Lower actual degree means a repeated root at infinity: discriminant 0.
    """
    p = UPoly(coeffs)
    d = p.degree
    if d <= 4:
        return Fraction(0)
    r = resultant(p, p.derivative())
    if d == 6:
        return -r / p.lead
    return (r / p.lead) * p.lead**2


def igusa_clebsch(coeffs) -> IgusaClebsch:
    """Invariants of a binary sextic with rational coefficients."""
    cs = [rat(c) for c in coeffs]
    if len(cs) < 7:
        cs = cs + [Fraction(0)] * (7 - len(cs))
    a, b, c = clebsch_abc(cs)
    return IgusaClebsch(
        -120 * a,
        -720 * a**2 + 6750 * b,
        8640 * a**3 - 108000 * a * b + 202500 * c,
        _disc_sextic_rational(cs),
    )


def igusa_clebsch_upoly(coeffs):
    """Invariants of a sextic whose coefficients are UPoly in a parameter.

    Returns (I2, I4, I6, I10) as UPoly; requires actual degree 6 in x.
    """
    cs = [c if isinstance(c, UPoly) else UPoly.const(c) for c in coeffs]
    if len(cs) < 7:
        cs = cs + [UPoly()] * (7 - len(cs))
    if not cs[6]:
        raise ValueError("leading coefficient vanishes identically")
    a, b, c = clebsch_abc(cs)
    i2 = a * -120
    i4 = a * a * -720 + b * 6750
    i6 = a * a * a * 8640 + a * b * -108000 + c * 202500
    dcs = [cs[i + 1] * (i + 1) for i in range(6)]
    res = resultant_upoly_coeffs(cs, dcs)
    i10 = -res.exact_div(cs[6])
    return i2, i4, i6, i10


# -- weighted projective comparisons ----------------------------------------


def wp_scale_equal(a: IgusaClebsch, b: IgusaClebsch, r) -> bool:
    """Exact check I_k(a) = r^k I_k(b) for k in (2, 4, 6, 10)."""
    r = rat(r)
    return (
        a.i2 == r**2 * b.i2
        and a.i4 == r**4 * b.i4
        and a.i6 == r**6 * b.i6
        and a.i10 == r**10 * b.i10
    )


def wp_equal(a: IgusaClebsch, b: IgusaClebsch) -> bool:
    """Equality in P(2,4,6,10): existence of a scale r (over the algebraic
    closure) with I_k(a) = r^k I_k(b).  All weights are even, so only
    rho = r^2 enters, with weights w = 1, 2, 3, 5.  Over the nonzero
    invariants with ratios q_w = rho^w, rho^g for g = gcd(w) is a product of
    the q_w raised to Bezout exponents; a scale exists iff each q_w is the
    power (rho^g)^(w/g) of it."""
    nonzero = []
    for x, y, w in zip(a.as_tuple(), b.as_tuple(), (1, 2, 3, 5)):
        if (x == 0) != (y == 0):
            return False
        if x != 0:
            nonzero.append((x, y, w))
    g, rho_g = 0, Fraction(1)
    for x, y, w in nonzero:
        if g == 1:
            break  # rho itself is known
        # extended Euclid on (g, w): u g + v w = gcd, so rho^gcd = rho_g^u q^v
        r0, r1, u0, u1, v0, v1 = g, w, 1, 0, 0, 1
        while r1:
            k = r0 // r1
            r0, r1, u0, u1, v0, v1 = r1, r0 - k * r1, u1, u0 - k * u1, v1, v0 - k * v1
        g, rho_g = r0, rho_g**u0 * (rat(x) / rat(y)) ** v0
    return all(x == rho_g ** (w // g) * y for x, y, w in nonzero)
