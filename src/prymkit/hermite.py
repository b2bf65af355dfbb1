"""Jacobians of genus-one quartics and the explicit point map onto them.

A quartic curve w^2 = P(x) with P of degree 3 or 4 has Jacobian
eta^2 = xi^3 + f xi + g with (f, g) polynomial in the coefficients of P;
a choice of base point realizes the map explicitly through the symmetric
biquadratic R(x, x0) and its companion R1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rat import Rat, rat
from .bpoly import MPoly, _canon
from . import quadforms
from .upoly import UPoly, bracket, discriminant


@dataclass(frozen=True)
class QuarticGenus1:
    """w^2 = P(x), P squarefree of degree 3 or 4."""

    p: UPoly

    def __post_init__(self):
        if self.p.degree not in (3, 4):
            raise ValueError("quartic model needs degree 3 or 4")
        if discriminant(self.p) == 0:
            raise ValueError("quartic has a repeated root")

    def coeffs(self):
        """[p0..p4] ascending; p4 = 0 is allowed for the degree-3 model."""
        return [self.p.coeff(i) for i in range(5)]

    def contains(self, x, w) -> bool:
        return rat(w) ** 2 == self.p(rat(x))


@dataclass(frozen=True)
class EllipticW:
    """eta^2 = xi^3 + f xi + g, nonsingular."""

    f: Rat
    g: Rat

    def __post_init__(self):
        object.__setattr__(self, "f", rat(self.f))
        object.__setattr__(self, "g", rat(self.g))
        if 4 * self.f**3 + 27 * self.g**2 == 0:
            raise ValueError("singular Weierstrass curve")

    def rhs(self, xi):
        xi = rat(xi)
        return xi**3 + self.f * xi + self.g

    def contains(self, pt) -> bool:
        if pt is None:
            return True
        x, y = pt
        return rat(y) ** 2 == self.rhs(x)


def jacobian_fg(p0, p1, p2, p3, p4):
    """(f, g) of the Jacobian of w^2 = P(x) from the coefficients of P, which
    may be rationals or MPolys."""
    f = p4 * p0 * -4 + p3 * p1 - p2 * p2 * Fraction(1, 3)
    g = (
        p4 * p2 * p0 * Fraction(-8, 3)
        + p4 * p1 * p1
        + p3 * p3 * p0
        - p3 * p2 * p1 * Fraction(1, 3)
        + p2**3 * Fraction(2, 27)
    )
    return f, g


def jacobian_of_quartic(q: QuarticGenus1) -> EllipticW:
    return EllipticW(*jacobian_fg(*q.coeffs()))


def _biquadratic(x, y, p0, p1, p2, p3, p4):
    """The symmetric biquadratic R(x, y) with R(x, x) = P(x), from the
    coefficients of P, which may be rationals or MPolys."""
    return (
        x * x * y * y * p4
        + x * y * (x + y) * (p3 * Fraction(1, 2))
        + (x * x + y * y) * (p2 * Fraction(1, 6))
        + x * y * (p2 * Fraction(2, 3))
        + (x + y) * (p1 * Fraction(1, 2))
        + p0
    )


def hermite_polys(q: QuarticGenus1):
    """(R, R1, Q): the symmetric biquadratic with R(x,x) = P(x), the exact
    quotient R1 = (P(x)P(x0) - R^2)/(x - x0)^2, and Q(x) = R1(x, x)."""
    x, y = MPoly.var(0, 2), MPoly.var(1, 2)
    r = _biquadratic(x, y, *q.coeffs())
    num = MPoly.from_upoly(q.p, 0, 2) * MPoly.from_upoly(q.p, 1, 2) - r * r
    r1 = num.exact_divide((x - y) * (x - y))
    return r, r1, r1.to_upoly()


# -- the identities over Z[p0..p4] -------------------------------------------------

_SWAP = (1, 0, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class GenericQuartic:
    """P = p0 + p1 x + ... + p4 x^4 with indeterminate coefficients and its
    Hermite data R, R1, Q and Jacobian (f, g), all in Q[x, y, p0, ..., p4]
    (variables 0..6).  An identity between these holds for every quartic."""

    p: MPoly
    r: MPoly
    r1: MPoly
    q: MPoly
    f: MPoly
    g: MPoly

    @classmethod
    def build(cls) -> "GenericQuartic":
        x, y, *ps = (MPoly.var(i, 7) for i in range(7))
        p = sum((c * x**i for i, c in enumerate(ps)), MPoly(7))
        r = _biquadratic(x, y, *ps)
        r1 = (p * p.permute(_SWAP) - r * r).exact_divide((x - y) ** 2)
        return cls(p, r, r1, r1(x, x, *ps), *jacobian_fg(*ps))

    def identities(self):
        """(label, lhs, rhs) of the four Hermite identities: the biquadratic
        factor, the closed form of Q, disc Q = g^2 disc P, and
        disc P = disc(xi^3 + f xi + g)."""
        x, y = MPoly.var(0, 7), MPoly.var(1, 7)
        p, d1 = self.p, self.p.deriv(0)
        disc_p = discriminant_mpoly(p, 4)
        return [
            ("biquadratic factor identity",
             self.r * self.r + self.r1 * (x - y) ** 2, p * p.permute(_SWAP)),
            ("companion-quartic closed form",
             self.q, p * d1.deriv(0) * Fraction(1, 3) - d1 * d1 * Fraction(1, 4)),
            ("companion discriminant relation",
             discriminant_mpoly(self.q, 4), self.g**2 * disc_p),
            ("Jacobian preserves the discriminant",
             disc_p, discriminant_mpoly(x**3 + x * self.f + self.g, 3)),
        ]


def discriminant_mpoly(f: MPoly, n: int) -> MPoly:
    """Discriminant in variable 0 of f, taken of formal degree n, with
    coefficients in variables 2.. (variable 1 must not occur).  The n x n
    Bezoutian B(x, y) = (f(x) f'(y) - f(y) f'(x)) / (x - y) has determinant
    lc^2 disc, lc the coefficient of x^n."""
    k = f.n
    swap = (1, 0) + tuple(range(2, k))
    d = f.deriv(0)
    bez = (f * d.permute(swap) - f.permute(swap) * d).exact_divide(
        MPoly.var(0, k) - MPoly.var(1, k))
    cells = [[{} for _ in range(n)] for _ in range(n)]
    for e, v in bez.m.items():
        cells[e[0]][e[1]][(0, 0) + e[2:]] = v
    det = quadforms.det([[_canon(k, c, bez.den) for c in row] for row in cells])
    lc = _canon(k, {(0, 0) + e[2:]: v for e, v in f.m.items() if e[0] == n}, f.den)
    return det if lc == 1 else det.exact_divide(lc * lc)


def _aj_image(coeffs, bx, w0, px, pw):
    """Image of (px, pw) under the point map with base data (bx, w0).

    Here w0 is the w-coordinate whose sign convention sends (bx, -w0) to
    the point at infinity; coefficients and w-values may live in any
    commutative ring containing the rationals (the x-values are rational).
    """
    p0, p1, p2, p3, p4 = coeffs
    bx, px = rat(bx), rat(px)
    dx = px - bx
    if dx == 0:
        raise ValueError("base and target share the x-coordinate")
    rv = (
        p4 * (px**2 * bx**2)
        + p3 * (px * bx * (px + bx) * Fraction(1, 2))
        + p2 * ((px**2 + bx**2) * Fraction(1, 6) + px * bx * Fraction(2, 3))
        + p1 * ((px + bx) * Fraction(1, 2))
        + p0
    )
    dpx = p1 + p2 * (2 * px) + p3 * (3 * px**2) + p4 * (4 * px**3)
    dbx = p1 + p2 * (2 * bx) + p3 * (3 * bx**2) + p4 * (4 * bx**3)
    xi = (rv - pw * w0) * (2 / dx**2)
    eta = (pw * w0 * (pw - w0)) * (4 / dx**3) - (dpx * w0 + dbx * pw) * (
        Fraction(1) / dx**2
    )
    return xi, eta


def abel_jacobi(q: QuarticGenus1, base, pt):
    """Map a rational point to the Jacobian, with the given base point
    (the base itself goes to the point at infinity)."""
    bx, bw = rat(base[0]), rat(base[1])
    px, pw = rat(pt[0]), rat(pt[1])
    if not q.contains(bx, bw) or not q.contains(px, pw):
        raise ValueError("points must satisfy w^2 = P(x)")
    if bw == 0:
        raise ValueError("base point is a ramification point")
    if (px, pw) == (bx, bw):
        return None
    if px == bx:
        # the conjugate of the base: the explicit finite image
        p = q.p
        _, _, qq = hermite_polys(q)
        xi = -qq(bx) / p(bx)
        eta = bracket(p, qq)(bx) / (2 * pw**3)
        return (xi, eta)
    xi, eta = _aj_image(q.coeffs(), bx, -bw, px, pw)
    e = jacobian_of_quartic(q)
    if not e.contains((xi, eta)):
        raise AssertionError("image left the Jacobian curve")
    return (xi, eta)


def correspondence(q: QuarticGenus1, x0) -> MPoly:
    """The biquadratic in (xi, x) linking abscissas of the point map at the
    given base abscissa; vanishes on matched pairs."""
    x0 = rat(x0)
    r, r1, _ = hermite_polys(q)
    rx = r.subs(1, x0).permute((1, 0))  # R(x, x0) in the second variable
    r1x = r1.subs(1, x0).permute((1, 0))
    xi, xv = MPoly.var(0, 2), MPoly.var(1, 2)
    return xi * xi * (xv - x0) ** 2 - xi * rx * 4 - r1x * 4


# -- elliptic curve group law -----------------------------------------------------


def ec_neg(pt):
    if pt is None:
        return None
    return (pt[0], -pt[1])


def ec_add(e: EllipticW, p, q):
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = rat(p[0]), rat(p[1])
    x2, y2 = rat(q[0]), rat(q[1])
    if x1 == x2:
        if y1 == -y2:
            return None
        lam = (3 * x1 * x1 + e.f) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def ec_double(e: EllipticW, p):
    return ec_add(e, p, p)


def ec_mul(e: EllipticW, n: int, p):
    if n < 0:
        return ec_mul(e, -n, ec_neg(p))
    acc = None
    while n:
        if n & 1:
            acc = ec_add(e, acc, p)
        p = ec_add(e, p, p)
        n >>= 1
    return acc


def j_invariant(e: EllipticW) -> Rat:
    den = 4 * e.f**3 + 27 * e.g**2
    return 1728 * 4 * e.f**3 / den


def j_from_cubic(a2, a4, a6=0) -> Rat:
    """j-invariant of y^2 = x^3 + a2 x^2 + a4 x + a6."""
    a2, a4, a6 = rat(a2), rat(a4), rat(a6)
    c4 = 16 * a2 * a2 - 48 * a4
    c6 = -64 * a2**3 + 288 * a2 * a4 - 864 * a6
    den = c4**3 - c6**2
    if den == 0:
        raise ValueError("singular cubic")
    return 1728 * c4**3 / den
