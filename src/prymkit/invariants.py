"""Igusa-Clebsch invariants of binary sextics.

A sextic is a coefficient list [a0..a6] (ascending in x) of the form
sum a_i x^i y^(6-i).  Invariants are computed from transvectants of the
form with itself and normalized so that, for a split sextic
lc * prod (x - r_i), they agree with the classical symmetric-function
expressions in the root differences; I10 is the discriminant.

The transvectants run over Z: a rational sextic f = F/D is scaled to the
integer form F once, and I_k(f) = I_k(F)/D^k.  A sextic with coefficients
in Q[t] is evaluated at integer nodes, and each invariant is interpolated
from its values there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm

from .rat import Rat, rat, rat_str
from .upoly import (
    UPoly,
    _from_ints,
    _int_horner,
    _int_interpolate,
    _int_rows,
    _int_scaled,
    discriminant,
    resultant_upoly_coeffs,
)


def _partial(f, m: int, a: int, b: int):
    """d^a/dx^a d^b/dy^b of the form sum f_j x^j y^(m-j), in one pass."""
    return [f[j + a] * perm(j + a, a) * perm(m - j - a, b) for j in range(m - a - b + 1)]


def transvectant(f, g, m: int, n: int, r: int):
    """r-th transvectant of binary forms of orders m and n, given as int
    coefficient lists ascending in x, without its normalizing factor
    (m-r)!(n-r)!/(m!n!): the int coefficient list, of order m + n - 2r, of

        sum_k (-1)^k C(r, k) d^r f/dx^(r-k) dy^k * d^r g/dx^k dy^(r-k).
    """
    if r > m or r > n:
        raise ValueError("transvectant order exceeds form orders")
    total = [0] * (m + n - 2 * r + 1)
    for k in range(r + 1):
        dg = _partial(g, n, k, r - k)
        w = -comb(r, k) if k % 2 else comb(r, k)
        for i, x in enumerate(_partial(f, m, r - k, k)):
            if x:
                x *= w
                for j, y in enumerate(dg):
                    total[i + j] += x * y
    return total


def _norm(m: int, n: int, r: int) -> Fraction:
    """The normalizing factor of the r-th transvectant of orders m and n."""
    return Fraction(factorial(m - r) * factorial(n - r), factorial(m) * factorial(n))


# the factors of the unnormalized transvectants, collected into A, B and C
_N4 = _norm(6, 6, 4)
_KA = _norm(6, 6, 6)
_KB = _norm(4, 4, 4) * _N4**2
_KC = _norm(4, 4, 4) * _norm(4, 4, 2) * _N4**3


def _i246(f):
    """(I2, I4, I6) of the binary sextic with int coefficients f = [a0..a6],
    from the Clebsch invariants A = (f,f)_6, B = (i,i)_4 and C = (i,(i,i)_2)_4
    with i = (f,f)_4.  The transvectants are unnormalized, so their factors
    are collected into A, B and C once."""
    u = transvectant(f, f, 6, 6, 4)  # i = _N4 u
    v = transvectant(u, u, 4, 4, 2)  # (i,i)_2 = _norm(4, 4, 2) _N4^2 v
    a = _KA * transvectant(f, f, 6, 6, 6)[0]
    b = _KB * transvectant(u, u, 4, 4, 4)[0]
    c = _KC * transvectant(u, v, 4, 4, 4)[0]
    return (
        -120 * a,
        -720 * a**2 + 6750 * b,
        8640 * a**3 - 108000 * a * b + 202500 * c,
    )


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


def _disc_sextic_rational(p: UPoly, disc=None):
    """Discriminant of p read as a binary sextic; disc, when given, is
    discriminant(p).

    For a degree-5 polynomial (a6 = 0) the extra root at infinity is simple
    and the binary discriminant equals disc(quintic) * lead(quintic)^2.
    Lower actual degree means a repeated root at infinity: discriminant 0.
    """
    d = p.degree
    if d <= 4:
        return Fraction(0)
    if disc is None:
        disc = discriminant(p)
    return disc if d == 6 else disc * p.lead**2


def igusa_clebsch(coeffs, disc=None) -> IgusaClebsch:
    """Invariants of a binary sextic with rational coefficients [a0..a6]; a
    shorter list is padded with zeros.  disc, when given, is the
    discriminant of the polynomial of coeffs, which gives I10."""
    cs = [rat(c) for c in coeffs]
    if len(cs) > 7:
        raise ValueError("need at most 7 coefficients (a0..a6)")
    cs += [Fraction(0)] * (7 - len(cs))
    den, ints = _int_scaled(cs)
    i2, i4, i6 = _i246(ints)
    return IgusaClebsch(
        i2 / den**2, i4 / den**4, i6 / den**6, _disc_sextic_rational(UPoly(cs), disc)
    )


def igusa_clebsch_upoly(coeffs):
    """Invariants of a sextic whose coefficients are UPoly in a parameter t.

    Returns (I2, I4, I6, I10) as UPoly; requires actual degree 6 in x.
    I_k has degree at most k h in t, h the largest degree of a coefficient,
    so the integer copy F = D f is evaluated at t = 0..6h, I_k(F) is taken
    at the first k h + 1 nodes and interpolated there, and the division by
    D^k is made once.  I10 comes from the resultant of f and f_x over Q[t].
    """
    cs = [c if isinstance(c, UPoly) else UPoly.const(c) for c in coeffs]
    if len(cs) < 7:
        cs = cs + [UPoly()] * (7 - len(cs))
    if not cs[6]:
        raise ValueError("leading coefficient vanishes identically")
    h = max(c.degree for c in cs)
    den, rows = _int_rows(cs)
    nodes = [_i246([_int_horner(r, t) for r in rows]) for t in range(6 * h + 1)]
    out = []
    for k, w in enumerate((2, 4, 6)):
        values = [node[k] for node in nodes[: w * h + 1]]
        vden, ints = _int_scaled(values)
        acc, scale = _int_interpolate(ints)
        out.append(_from_ints(acc, scale * vden * den**w))
    dcs = [cs[i + 1] * (i + 1) for i in range(6)]
    i10 = -resultant_upoly_coeffs(cs, dcs).exact_div(cs[6])
    return (*out, i10)


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
