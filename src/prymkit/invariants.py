"""Igusa-Clebsch invariants of binary sextics.

A sextic is a coefficient list [a0..a6] (ascending in x) of the form
sum a_i x^i y^(6-i).  Invariants are computed from transvectants of the
form with itself and normalized so that, for a split sextic
lc * prod (x - r_i), they agree with the classical symmetric-function
expressions in the root differences; I10 is the discriminant of the binary
form, so for a quintic (a6 = 0) it is disc(f) lc^2.

Everything runs over Z.  A transvectant of orders (m, n, r) is one
straight-line integer function, compiled on first use from the sparse
bilinear table of entries (s, p, q, w) with output[s] += w f[p] g[q].  A
rational sextic f = F/D is taken as its integer form F.  With u = (F,F)_4
and y1 = (F,u)_4, the unnormalized Clebsch invariants

    A = (F,F)_6,  B = (u,u)_4,  C = (u,(u,u)_2)_4,
    D = ((u,(u,y1)_2)_2, y1)_2                         (degree 10)

give all four invariants as integer numerators over fixed denominators:

    I2 = -A / 4320,
    I4 = (25 B - 96 A^2) / 35831808000,                (2^17 3^7 5^3)
    I6 = (6912 A^3 - 2400 A B + 125 C) / 111451255603200000,
                                                       (2^26 3^12 5^5)
    I10 = (-1492992 A^5 + 648000 A^3 B + 30000 A^2 C - 56250 A B^2
           - 3125 B C - 84375 D) / (2^43 3^21 5^10),

and I_k(f) = I_k(F)/D^k is one Fraction per invariant.  No discriminant or
resultant is taken.  A sextic with coefficients in Q[t] is evaluated at
integer nodes, and each numerator is interpolated from its values there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, perm

from .rat import Rat, rat, rat_str
from .upoly import UPoly, _from_ints, _int_horner, _int_interpolate, _int_rows


@cache
def _table(m: int, n: int, r: int):
    """The entries (s, p, q, w) of the unnormalized r-th transvectant of
    orders m and n: output[s] += w f[p] g[q], nonzero w only.  The k-th
    term of the definition below pairs d^r f/dx^(r-k) dy^k at x^p with
    d^r g/dx^k dy^(r-k) at x^q, with the falling-factorial weight of each."""
    acc = {}
    for k in range(r + 1):
        sign = -1 if k % 2 else 1
        for p in range(r - k, m - k + 1):
            wf = sign * comb(r, k) * perm(p, r - k) * perm(m - p, k)
            for q in range(k, n - r + k + 1):
                key = (p + q - r, p, q)
                acc[key] = acc.get(key, 0) + wf * perm(q, k) * perm(n - q, r - k)
    return tuple((s, p, q, w) for (s, p, q), w in acc.items() if w)


@cache
def _kernel(m: int, n: int, r: int, same: bool):
    """The transvectant of orders (m, n, r) compiled from _table(m, n, r): the
    coefficients unpacked into locals once, then one sum of w * f{p} * g{q}
    per output coefficient.  With same (g is f), (p, q) and (q, p) merge."""
    if r > m or r > n:
        raise ValueError("transvectant order exceeds form orders")
    if same and m != n:
        raise ValueError("a form paired with itself needs equal orders")
    acc = {}
    for s, p, q, w in _table(m, n, r):
        key = (s, min(p, q), max(p, q)) if same else (s, p, q)
        acc[key] = acc.get(key, 0) + w
    sums = [[] for _ in range(m + n - 2 * r + 1)]
    for (s, p, q), w in acc.items():
        if w:
            sums[s].append(f"{w} * f{p} * {'f' if same else 'g'}{q}")
    unpack = f"    {''.join(f'f{i}, ' for i in range(m + 1))}= f\n"
    if not same:
        unpack += f"    {''.join(f'g{i}, ' for i in range(n + 1))}= g\n"
    body = ",\n        ".join(" + ".join(t) or "0" for t in sums)
    namespace = {}
    exec(f"def kernel(f, g):\n{unpack}    return [\n        {body},\n    ]\n", namespace)
    return namespace["kernel"]


def transvectant(f, g, m: int, n: int, r: int):
    """r-th transvectant of binary forms of orders m and n, given as int
    coefficient lists ascending in x of exactly m + 1 and n + 1 entries
    (ValueError otherwise, or if r > m or r > n), without its normalizing
    factor (m-r)!(n-r)!/(m!n!): a new int coefficient list, of order
    m + n - 2r, of

        sum_k (-1)^k C(r, k) d^r f/dx^(r-k) dy^k * d^r g/dx^k dy^(r-k).
    """
    return _kernel(m, n, r, f is g)(f, g)


# I2, I4, I6 and I10 are the numerators of _numerators over these denominators
_DENOMS = (4320, 35831808000, 111451255603200000, 2**43 * 3**21 * 5**10)


def _numerators(f):
    """Integer numerators of (I2, I4, I6, I10), over _DENOMS, of the binary
    sextic with int coefficients f = [a0..a6], from the unnormalized
    transvectants A = (f,f)_6, B = (u,u)_4, C = (u,(u,u)_2)_4 and
    D = (y3,y1)_2 with u = (f,f)_4, y1 = (f,u)_4, y2 = (u,y1)_2 and
    y3 = (u,y2)_2."""
    u = transvectant(f, f, 6, 6, 4)
    a = transvectant(f, f, 6, 6, 6)[0]
    b = transvectant(u, u, 4, 4, 4)[0]
    c = transvectant(u, transvectant(u, u, 4, 4, 2), 4, 4, 4)[0]
    y1 = transvectant(f, u, 6, 4, 4)
    y3 = transvectant(u, transvectant(u, y1, 4, 2, 2), 4, 2, 2)
    d = transvectant(y3, y1, 2, 2, 2)[0]
    a2 = a * a
    return (
        -a,
        25 * b - 96 * a2,
        (6912 * a2 - 2400 * b) * a + 125 * c,
        ((648000 * b - 1492992 * a2) * a + 30000 * c) * a2
        - (56250 * a * b + 3125 * c) * b
        - 84375 * d,
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


def igusa_clebsch(coeffs) -> IgusaClebsch:
    """Invariants of a binary sextic, given as a UPoly of degree at most 6
    or as its rational coefficients [a0..a6] (a shorter list is padded with
    zeros)."""
    f = coeffs if isinstance(coeffs, UPoly) else UPoly(coeffs)
    if f.degree > 6:
        raise ValueError("need at most 7 coefficients (a0..a6)")
    n2, n4, n6, n10 = _numerators(list(f.n) + [0] * (6 - f.degree))
    d2 = f.d * f.d
    d4 = d2 * d2
    return IgusaClebsch(
        Fraction(n2, _DENOMS[0] * d2),
        Fraction(n4, _DENOMS[1] * d4),
        Fraction(n6, _DENOMS[2] * d4 * d2),
        Fraction(n10, _DENOMS[3] * d4 * d4 * d2),
    )


def igusa_clebsch_upoly(coeffs):
    """Invariants of a sextic whose coefficients are UPoly in a parameter t.

    Returns (I2, I4, I6, I10) as UPoly; requires actual degree 6 in x.
    I_k has degree at most k h in t, h the largest degree of a coefficient,
    so the integer copy F = D f is evaluated at t = 0..10h, the numerator of
    I_k(F) is taken at the first k h + 1 nodes and interpolated there, and
    the division by its denominator and D^k is made once.  Every numerator
    is a polynomial in the coefficients, so a node where a6 vanishes needs
    no special case.
    """
    cs = [c if isinstance(c, UPoly) else UPoly.const(c) for c in coeffs]
    if len(cs) < 7:
        cs = cs + [UPoly()] * (7 - len(cs))
    if not cs[6]:
        raise ValueError("leading coefficient vanishes identically")
    h = max(c.degree for c in cs)
    den, rows = _int_rows(cs)
    nodes = [_numerators([_int_horner(r, t) for r in rows]) for t in range(10 * h + 1)]
    out = []
    for k, w in enumerate((2, 4, 6, 10)):
        acc, scale = _int_interpolate([node[k] for node in nodes[: w * h + 1]])
        out.append(_from_ints(acc, scale * _DENOMS[k] * den**w))
    return tuple(out)


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
    rho = r^2 enters, with weights w = 1, 2, 3, 5, which are pairwise
    coprime.  So a scale exists iff the zero patterns agree and every two
    nonzero ratios q_i = n_i/d_i = I(a)/I(b) satisfy q_i^w_j = q_j^w_i,
    checked over Z as n_i^w_j d_j^w_i = n_j^w_i d_i^w_j.  When I2 is nonzero,
    rho = q_2 is the only scale, and q_i = rho^w_i alone decides."""
    ratios = []
    for x, y, w in zip(a.as_tuple(), b.as_tuple(), (1, 2, 3, 5)):
        if (x == 0) != (y == 0):
            return False
        if x != 0:
            ratios.append((x.numerator * y.denominator, x.denominator * y.numerator, w))
    if a.i2:
        (n0, d0, _), *rest = ratios
        return all(ni * d0**wi == di * n0**wi for ni, di, wi in rest)
    return all(
        ni**wj * dj**wi == nj**wi * di**wj
        for k, (ni, di, wi) in enumerate(ratios)
        for nj, dj, wj in ratios[k + 1:]
    )
