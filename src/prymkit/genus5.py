"""Genus-5 covers as intersections of three quadrics in P^4, their rank
locus, the associated genus-2 curve, the bielliptic elliptic quotient, and
the second component of the special-divisor scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .rat import Rat, rat, rat_str, sqrt_exact
from .upoly import UPoly, bracket, convolve, gcd, resultant_upoly_coeffs
from .bpoly import MPoly
from .factorq import rational_roots
from .hermite import j_from_cubic
from .genus2 import CoverPoint, Genus2Curve, NormalFormCoeffs, moduli_ef
from .pencil3 import PencilParams, _homogenize, bitangent_conics, data_polys, scaled_even_subs
from .quadforms import QuadForm3, det_pencil3, det_pencil5


@dataclass(frozen=True)
class QuadricTriple:
    """Three 5x5 symmetric matrices in variables (V, W, X, Y, Z) cutting out
    the genus-5 curve: Q0 = q0 - VW, Q1 = q1 - V^2, Q2 = q2 - W^2."""

    q0: QuadForm3
    q1: QuadForm3
    q2: QuadForm3
    pp: PencilParams
    x0: Rat

    @cached_property
    def locus(self) -> "GammaLocus":
        """The rank locus of the net of quadrics, computed once per triple."""
        return gamma_locus(self)

    def matrices(self):
        """Row-major 5x5 symmetric matrices in the basis (V, W, X, Y, Z)."""

        def embed(q: QuadForm3, vv, vw, ww):
            m = [[Fraction(0)] * 5 for _ in range(5)]
            m[0][0] = rat(vv)
            m[1][1] = rat(ww)
            m[0][1] = m[1][0] = rat(vw)
            for i in range(3):
                for j in range(3):
                    m[2 + i][2 + j] = q.m[i][j]
            return tuple(tuple(r) for r in m)

        half = Fraction(-1, 2)
        return (
            embed(self.q0, 0, half, 0),
            embed(self.q1, -1, 0, 0),
            embed(self.q2, 0, 0, -1),
        )

    def evaluate(self, v, w, x, y, z):
        v, w = rat(v), rat(w)
        return (
            self.q0.evaluate(x, y, z) - v * w,
            self.q1.evaluate(x, y, z) - v * v,
            self.q2.evaluate(x, y, z) - w * w,
        )

    def to_json(self):
        return [
            [[rat_str(v) for v in row] for row in m] for m in self.matrices()
        ]


def build_quadrics(pp: PencilParams, x0) -> QuadricTriple:
    q0, q1, q2 = bitangent_conics(pp, x0)
    return QuadricTriple(q0, q1, q2, pp, rat(x0))


def build_quadrics_moduli(cp: CoverPoint, coeffs: NormalFormCoeffs, t):
    """The moduli-level quadrics at parameter t: three ternary forms
    (for V^2, W^2, VW) built from the data polynomials."""
    e, f = moduli_ef(coeffs)
    dp = data_polys(cp, t)
    c2 = coeffs.c2
    v2 = dp.delta_t * (c2 * e * e) + dp.r_t * (2 * c2 * e) + dp.r1_t * c2
    w2 = dp.delta_t * (c2 * f * f) + dp.r_t * (2 * c2 * f) + dp.r1_t * c2
    vw_xy = dp.delta_t * coeffs.c0 + dp.r_t * coeffs.c1 + dp.r1_t * c2
    q1 = QuadForm3.from_xy_quadratic(v2)
    q2 = QuadForm3.from_xy_quadratic(w2)
    q0 = QuadForm3.from_xy_quadratic(vw_xy, 2 * dp.p0_t)
    return q0, q1, q2


def quadrics_frames_agree(
    base: PencilParams, cp: CoverPoint, coeffs: NormalFormCoeffs, t
) -> bool:
    """The moduli quadrics equal the conics of the base-frame pencil base
    (PencilParams.base_frame of cp and coeffs) under x -> sqrt(l) X,
    x0 -> sqrt(l) t, scaled by 9 c2 l (and V, W rescaled accordingly)."""
    t = rat(t)
    ell = cp.ell
    scale = 9 * coeffs.c2 * ell
    g, d = base.ip.gamma, base.ip.delta
    q0m, q1m, q2m = build_quadrics_moduli(cp, coeffs, t)
    for (h, k), mat in (((g, g), q1m), ((d, d), q2m), ((g, d), q0m)):
        # the base-frame conic after x -> sqrt(l) X, x0 -> sqrt(l) t
        want = base.conic(h, k).scaled_subs(ell).subs(1, t).to_upoly() * scale
        if QuadForm3.from_xy_quadratic(_homogenize(want, 2), mat.m[2][2]) != mat:
            return False
    p0_base = scaled_even_subs(base.p, ell)(t)
    return q0m.m[2][2] == 2 * p0_base


def rational_points8(qt: QuadricTriple):
    """The eight marked rational points [V:W:X:Y:Z] with Z = 0 over the
    roots of the quartic."""
    roots = rational_roots(qt.pp.p)
    if len(roots) != 4:
        raise ValueError("quartic does not split over the rationals")
    pts = []
    for xr in roots:
        v2 = qt.q1.evaluate(xr, 1, 0)
        vv = sqrt_exact(v2)
        if vv is None:
            raise ValueError("marked point is not rational (square root missing)")
        q0v = qt.q0.evaluate(xr, 1, 0)
        if vv == 0:
            raise ValueError("degenerate marked point")
        wv = q0v / vv
        if wv * wv != qt.q2.evaluate(xr, 1, 0):
            raise AssertionError("marked-point square structure violated")
        pts.append((vv, wv, xr, Fraction(1), Fraction(0)))
        pts.append((-vv, -wv, xr, Fraction(1), Fraction(0)))
    return pts


@dataclass(frozen=True)
class GammaLocus:
    cubic: MPoly
    line: MPoly
    residual_conic: MPoly
    conic_minus: MPoly  # a0^2 - 4 a1 a2


def gamma_locus(qt: QuadricTriple) -> GammaLocus:
    cubic = det_pencil3(qt.q0, qt.q1, qt.q2)
    a0, a1, a2 = (MPoly.var(i, 3) for i in range(3))
    residual = cubic.exact_divide(a0)
    minus = a0 * a0 - a1 * a2 * 4
    # block identity: det5 = det3 * (a1 a2 - a0^2/4)
    det5 = det_pencil5(qt.matrices())
    block = cubic * (a1 * a2 - a0 * a0 * Fraction(1, 4))
    if det5 != block:
        raise AssertionError("5x5 determinant lost its block factorization")
    return GammaLocus(cubic, a0, residual, minus)


def prym_genus2(qt: QuadricTriple) -> Genus2Curve:
    """eta^2 = -det(2 xi q0 + q1 + xi^2 q2) as a sextic model."""
    from .quadforms import det3_upoly

    two_xi = UPoly((0, 2))
    one = UPoly.one()
    xi2 = UPoly((0, 0, 1))
    det = det3_upoly([(two_xi, qt.q0), (one, qt.q1), (xi2, qt.q2)])
    return Genus2Curve(-det)


def bielliptic_quotient(pp: PencilParams, x0):
    """The elliptic quotient of the genus-5 cover at the given member:
    y^2 = a x^3 + b x^2 + c x, returned as (a, b, c)."""
    x0 = rat(x0)
    p0 = pp.p(x0)
    q0v = pp.q(x0)
    g, d = pp.ip.gamma, pp.ip.delta
    sg = pp.s.rhs(g)
    sd = pp.s.rhs(d)
    if pp.delta_z(x0) == 0:
        raise ValueError("singular member")
    a = sg * p0
    b = 2 * pp.ip.mu * p0 + (g - d) ** 2 * q0v
    c = sd * p0
    return a, b, c


def bielliptic_quotient_j(pp: PencilParams, x0) -> Rat:
    a, b, c = bielliptic_quotient(pp, x0)
    return j_from_cubic(b, a * c)


def gamma_line_branch_cubic(qt: QuadricTriple) -> UPoly:
    """Branch cubic of the double cover over the line component, obtained by
    restricting (residual conic) * (a0^2 - 4 a1 a2) to the line a0 = 0 with
    the parametrization [0 : x : 1]."""
    loc = qt.locus
    return (loc.residual_conic * loc.conic_minus).subs(0, 0).subs(2, 1).to_upoly()


def fixed_point_data(qt: QuadricTriple):
    """Whether the sign involution (V, W) -> (-V, -W) is fixed-point free on
    the curve, with a witness."""
    b1 = _xy_binary(qt.q1)
    b2 = _xy_binary(qt.q2)
    if b1.degree < 2 and b2.degree < 2:
        return False, {"reason": "common conic zero at [X:Y] = [1:0]"}
    g = gcd(b1, b2)
    if g.degree == 0:
        return True, {"reason": "V = W = 0 misses the curve"}
    if qt.q0.m[2][2] != 0:
        return False, {"reason": "common conic zero extends to Z", "gcd": g.to_json()}
    q0b = _xy_binary(qt.q0)
    gg = gcd(g, q0b)
    if gg.degree > 0:
        return False, {"reason": "common zero of all three conics", "gcd": gg.to_json()}
    return True, {"reason": "Z-free member separates the conics"}


def _xy_binary(q: QuadForm3) -> UPoly:
    return UPoly((q.m[1][1], 2 * q.m[0][1], q.m[0][0]))


# -- the second special-divisor component ----------------------------------------


def w14_factors(pp: PencilParams):
    """The three factors (p1, p2, p3) of the degree-6 branch model of the
    second component, as polynomials in xi with coefficients in Q[x0]."""
    g, d = pp.ip.gamma, pp.ip.delta
    sg = pp.s.rhs(g)
    f_, g_ = pp.s.f, pp.s.g
    p = pp.p
    q = pp.q
    # p1 = (gamma xi + 1) P + xi Q       (degree 1 in xi)
    p1 = [p, p * g + q]
    # p2 = S(gamma) xi^3 + (3 gamma^2 + S'(0)) xi^2 + 3 gamma xi + 1
    p2 = [
        UPoly.one(),
        UPoly.const(3 * g),
        UPoly.const(3 * g * g + f_),
        UPoly.const(sg),
    ]
    # p3 = (S(g) xi^2 + (2g^2 + g d + S'(0)) xi + (g + d)) P - ((g-d) xi + 1) Q
    p3 = [
        p * (g + d) - q,
        p * (2 * g * g + g * d + f_) - q * (g - d),
        p * sg,
    ]
    return p1, p2, p3


def w14_component(pp: PencilParams, x0) -> Genus2Curve:
    """The genus-2 member of the second component at a smooth member."""
    x0 = rat(x0)
    p1, p2, p3 = w14_factors(pp)
    sxt = convolve([c(x0) for c in p1], [c(x0) for c in p2])
    sxt = convolve(sxt, [c(x0) for c in p3])
    return Genus2Curve(UPoly(sxt))


def w14_resultants(pp: PencilParams):
    """The three pairwise resultants in xi, as polynomials in x0, together
    with the degeneration polynomial t0 = S(0) P^3 - S'(0) P^2 Q - Q^3."""
    p1, p2, p3 = w14_factors(pp)
    r12 = resultant_upoly_coeffs(p1, p2)
    r13 = resultant_upoly_coeffs(p1, p3)
    r23 = resultant_upoly_coeffs(p2, p3)
    p, q = pp.p, pp.q
    t0 = p**3 * pp.s.g - p * p * q * pp.s.f - q**3
    return r12, r13, r23, t0


def w14_epsilon_identity(pp: PencilParams) -> bool:
    """4 (S(0) P^3 - S'(0) P^2 Q - Q^3) = [P, Q]^2 as polynomials."""
    p, q = pp.p, pp.q
    t0 = p**3 * pp.s.g - p * p * q * pp.s.f - q**3
    br = bracket(p, q)
    return t0 * 4 == br * br


def w14_parametrized_sextic(qt: QuadricTriple) -> UPoly:
    """Branch sextic of the double cover over the residual conic, derived by
    intersecting the pencil of lines through the rational point [-2 : 1 : 1]
    with the conic.  Cross-checks the closed-form factors up to the mirror
    xi -> -xi and a nonzero constant."""
    loc = qt.locus
    conic = loc.residual_conic
    g, d = qt.pp.ip.gamma, qt.pp.ip.delta
    # alpha1 = alpha2 + lam (alpha0 + 2 alpha2) with lam = -1 + (g-d) xi / 2
    # turns the conic into a20 alpha0^2 + a11 alpha0 alpha2 + a02 alpha2^2
    # over Q[xi], read off at [alpha0 : alpha2] = [1 : 0], [0 : 1], [1 : 1]
    lam = UPoly((-1, (g - d) / Fraction(2)))
    a20 = conic(1, lam, 0)
    a02 = conic(0, lam * 2 + 1, 1)
    a11 = conic(1, lam * 3 + 1, 1) - a20 - a02
    # factor out the known root [alpha0 : alpha2] = [-2 : 1]:
    # a20 a0^2 + a11 a0 a2 + a02 a2^2 = (a0 + 2 a2)(a20 a0 + (a02/2) a2)
    if a20 * 4 - a11 * 2 + a02 != UPoly():
        raise AssertionError("base point left the residual conic")
    al0 = -(a02 * Fraction(1, 2))
    al2 = a20
    al1 = al2 + lam * (al0 + al2 * 2)
    return al0 * (al0 * al0 - al1 * al2 * 4)
