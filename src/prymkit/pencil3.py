"""The pencil of bielliptic plane quartics attached to a marked quartic.

Members are P(x0) z^4 + B(x, x0) z^2 + (gamma-delta)^2 P(x) = 0 over the
base parameter x0; special members are classified by which factor of the
degree-24 discriminant vanishes.  The moduli-level builder realizes the
same pencil through the data polynomials of a square-split cover point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .rat import Rat, rat, sqrt_exact
from .upoly import UPoly, bracket, discriminant, valuation
from .bpoly import MPoly
from .factorq import squarefree_places, rational_roots
from .hermite import QuarticGenus1, EllipticW, hermite_polys, jacobian_of_quartic
from .fibration import IsogenyParams, mu_nu_kappa
from .genus2 import CoverPoint, Genus2Curve, NormalFormCoeffs, moduli_ef, normal_form_coeffs


@dataclass(frozen=True)
class PencilParams:
    """A marked quartic with two chosen Jacobian abscissas (gamma, delta),
    and the data of its pencil: the Hermite polynomials R, R1 and Q of the
    quartic, the conics built from them, and the discriminant Delta_z.
    Build it with create, from_cover or base_frame."""

    quartic: QuarticGenus1
    s: EllipticW
    ip: IsogenyParams
    r: MPoly
    r1: MPoly
    q: UPoly

    @classmethod
    def create(cls, quartic: QuarticGenus1, gamma, delta) -> "PencilParams":
        s = jacobian_of_quartic(quartic)
        ip = mu_nu_kappa(s, gamma, delta)
        r, r1, q = hermite_polys(quartic)
        if discriminant(q) != s.g**2 * discriminant(quartic.p):
            raise AssertionError("companion-quartic discriminant identity failed")
        if discriminant(q) == 0:
            raise ValueError("companion quartic is not separable")
        pp = cls(quartic, s, ip, r, r1, q)
        if pp.b.permute((1, 0)) != pp.b:
            raise AssertionError("section polynomial lost its symmetry")
        return pp

    @classmethod
    def from_cover(cls, cp: CoverPoint, variant: str = "k15") -> "PencilParams":
        """Reference pencil of a cover point: the quartic with roots at the
        four square roots (+-k15, +-k23) and the matched (gamma, delta)."""
        e, f = moduli_ef(normal_form_coeffs(cp, variant))
        gamma, delta = -e / 3, -f / 3
        l1 = cp.base.l1
        l23 = cp.base.l2 * cp.base.l3
        quartic = QuarticGenus1(UPoly((l1 * l23, 0, -(l1 + l23), 0, 1)))
        return cls.create(quartic, gamma, delta)

    @classmethod
    def base_frame(cls, cp: CoverPoint, coeffs: NormalFormCoeffs) -> "PencilParams":
        """The base-frame pencil of the moduli pencil: the quartic
        x^4 - Lambda1 x^2 + 1 with (gamma, delta) = (-e, -f) / (3 l)."""
        e, f = moduli_ef(coeffs)
        quartic = QuarticGenus1(UPoly((1, 0, -cp.lam1, 0, 1)))
        return cls.create(quartic, -e / (3 * cp.ell), -f / (3 * cp.ell))

    # -- derived data -------------------------------------------------------
    @property
    def p(self) -> UPoly:
        return self.quartic.p

    @cached_property
    def roots(self) -> tuple:
        """The rational roots of P, ascending, found once per pencil."""
        return tuple(rational_roots(self.p))

    @property
    def csq(self) -> Rat:
        return (self.ip.gamma - self.ip.delta) ** 2

    @cached_property
    def b(self) -> MPoly:
        """B(x, x0), the conic at (gamma, delta) that the members are built on."""
        return self.conic(self.ip.gamma, self.ip.delta)

    def conic(self, g, h) -> MPoly:
        """(x - x0)^2 g h - 2 (g + h) R - 4 R1, a symmetric biquadratic in
        (x, x0)."""
        x, y = MPoly.var(0, 2), MPoly.var(1, 2)
        return (x - y) * (x - y) * (g * h) - self.r * (2 * (g + h)) - self.r1 * 4

    @cached_property
    def delta_z(self) -> UPoly:
        """The degree-24 discriminant of the pencil:
        2^20 nu^2 (mu^2 - nu kappa) P^2 (kappa P^2 + 2 mu P Q + nu Q^2)^2."""
        p, octic = self.p, self.octic
        return p * p * octic * octic * (Fraction(2**20) * self.ip.nu**2 * self.ip.norm)

    @cached_property
    def octic(self) -> UPoly:
        p, q = self.p, self.q
        return p * p * self.ip.kappa + p * q * (2 * self.ip.mu) + q * q * self.ip.nu


@dataclass(frozen=True)
class PlaneQuartic:
    """a0 Z^4 + b2(X, Y) Z^2 + c4(X, Y) = 0 with b2, c4 homogeneous."""

    a0: Rat
    b2: MPoly
    c4: MPoly

    def affine_g(self) -> UPoly:
        """b2(x,1)^2 - 4 a0 c4(x,1): repeated roots locate singular members."""
        b = self.b2.subs(1, 1).to_upoly()
        c = self.c4.subs(1, 1).to_upoly()
        return b * b - c * (4 * self.a0)

    def evaluate(self, xv, yv, zv) -> Rat:
        xv, yv, zv = rat(xv), rat(yv), rat(zv)
        return (
            self.a0 * zv**4
            + self.b2(xv, yv) * zv**2
            + self.c4(xv, yv)
        )


def _homogenize(p: UPoly, deg: int) -> MPoly:
    if p.degree > deg:
        raise ValueError("degree exceeds homogenization order")
    return MPoly(2, {(i, deg - i): a for i, a in enumerate(p.c)})


def build_member_generic(pp: PencilParams, x0) -> PlaneQuartic:
    x0 = rat(x0)
    a0 = pp.p(x0)
    b2 = _homogenize(pp.b.subs(1, x0).to_upoly(), 2)
    c4 = _homogenize(pp.p * pp.csq, 4)
    return PlaneQuartic(a0, b2, c4)


# -- the moduli-frame data polynomials ------------------------------------------


@dataclass(frozen=True)
class DataPolys:
    """The four building blocks of the moduli pencil at parameter t."""

    delta_t: MPoly
    r_t: MPoly
    r1_t: MPoly
    p: MPoly
    p0_t: Rat


def data_polys(cp: CoverPoint, t) -> DataPolys:
    t = rat(t)
    l1, l2, l3 = cp.base.l1, cp.base.l2, cp.base.l3
    x, y = MPoly.var(0, 2), MPoly.var(1, 2)
    s123 = l1 * l2 * l3
    s = l1 + l2 * l3
    delta_t = (x - y * t) * (x - y * t)
    r_t = (
        x * x * (6 * s123 * t * t - s)
        + x * y * (-4 * s * t)
        + y * y * (-s * t * t + 6)
    )
    r1_t = (
        x * x * (24 * s123 * s * t * t + (l1 * l1 + l2 * l2 * l3 * l3 - 34 * s123))
        + x * y * (2 * (l1 - 5 * l2 * l3) * (5 * l1 - l2 * l3) * t)
        + y * y * ((l1 * l1 + l2 * l2 * l3 * l3 - 34 * s123) * t * t + 24 * s)
    )
    p = MPoly(2, {(4, 0): s123, (2, 2): -s, (0, 4): 1})
    p0 = s123 * t**4 - s * t * t + 1
    return DataPolys(delta_t, r_t, r1_t, p, p0)


def build_member_moduli(cp: CoverPoint, coeffs: NormalFormCoeffs, t) -> PlaneQuartic:
    k = cp.k15 if coeffs.variant == "k15" else cp.k23
    expected = 144 * k * k * (cp.base.l2 - 1) * (cp.base.l3 - 1) * (
        cp.base.l2 - cp.base.l1
    ) * (cp.base.l3 - cp.base.l1)
    if coeffs.disc() != expected:
        raise ValueError("coefficients are inconsistent with the cover point")
    dp = data_polys(cp, t)
    b2 = dp.r1_t * coeffs.c2 + dp.r_t * coeffs.c1 + dp.delta_t * coeffs.c0
    c4 = dp.p * (9 * coeffs.disc())
    return PlaneQuartic(dp.p0_t, b2, c4)


def scaled_even_subs(p: UPoly, scale_sq) -> UPoly:
    """p(s x) for s^2 = scale_sq; requires p even so the result is rational."""
    s2 = rat(scale_sq)
    if any(p.coeff(i) != 0 for i in range(1, p.degree + 1, 2)):
        raise ValueError("odd coefficients present; substitution leaves the rationals")
    return UPoly([c * s2 ** (i // 2) for i, c in enumerate(p.c)])


def member_frames_agree(
    base: PencilParams, cp: CoverPoint, coeffs: NormalFormCoeffs, t
) -> bool:
    """Polynomial identity between the moduli member at t and the member at
    x0 = sqrt(l) t of the base-frame pencil base (PencilParams.base_frame of
    cp and coeffs) after x -> sqrt(l) X, z -> Z / sqrt(9 c2 l), scaled
    through by (9 c2 l)^2.  Every substituted monomial must carry an even
    power of sqrt(l); scaled_even_subs and MPoly.scaled_subs enforce it.
    """
    t = rat(t)
    ell = cp.ell
    scale = 9 * coeffs.c2 * ell
    p_sub = scaled_even_subs(base.p, ell)
    b_sub = base.b.scaled_subs(ell)
    a0_gen = p_sub(t)
    b2_gen = _homogenize(b_sub.subs(1, t).to_upoly(), 2) * scale
    c4_gen = _homogenize(p_sub * base.csq, 4) * (scale * scale)
    mem = build_member_moduli(cp, coeffs, t)
    return mem.a0 == a0_gen and mem.b2 == b2_gen and mem.c4 == c4_gen


# -- classification -----------------------------------------------------------------


@dataclass(frozen=True)
class MemberClass:
    kind: str  # SmoothGenus3 | ReducibleLinePlusGenus2 | IrreducibleOneNodeGenus2 | SmoothHyperelliptic
    witness: dict

    def to_json(self):
        return {"class": self.kind, "witness": self.witness}


def classify_member(pp: PencilParams, x0) -> MemberClass:
    x0 = rat(x0)
    from .rat import rat_str

    p0 = pp.p(x0)
    if p0 == 0:
        return MemberClass("ReducibleLinePlusGenus2", {"vanishing": "P", "x0": rat_str(x0)})
    br = bracket(pp.p, pp.q)
    if br(x0) == 0:
        return MemberClass("SmoothHyperelliptic", {"vanishing": "[P,Q]", "x0": rat_str(x0)})
    if pp.octic(x0) == 0:
        return MemberClass(
            "IrreducibleOneNodeGenus2",
            {"vanishing": "kappa P^2 + 2 mu P Q + nu Q^2", "x0": rat_str(x0)},
        )
    if pp.delta_z(x0) != 0:
        return MemberClass("SmoothGenus3", {"x0": rat_str(x0)})
    raise AssertionError("discriminant vanished outside the known factors")


def classify_place(pp: PencilParams, place: UPoly) -> MemberClass:
    """Classify members over an irreducible place symbolically, by which
    discriminant factor the place divides."""
    if valuation(pp.p, place) > 0:
        return MemberClass("ReducibleLinePlusGenus2", {"vanishing": "P", "place": place.to_json()})
    if valuation(bracket(pp.p, pp.q), place) > 0:
        return MemberClass("SmoothHyperelliptic", {"vanishing": "[P,Q]", "place": place.to_json()})
    if valuation(pp.octic, place) > 0:
        return MemberClass(
            "IrreducibleOneNodeGenus2",
            {"vanishing": "kappa P^2 + 2 mu P Q + nu Q^2", "place": place.to_json()},
        )
    return MemberClass("SmoothGenus3", {"place": place.to_json()})


def quartic_singular_points(q: PlaneQuartic):
    """Singular points of the member, located through repeated roots of
    b2^2 - 4 a0 c4 and labeled by the Hessian rank; reducible members
    (a0 = 0) are reported through their double-line witness."""
    if q.a0 == 0:
        return [
            (
                "reducible",
                {"component": "double line Z^2 | member", "note": "a0 = 0"},
            )
        ]
    g = q.affine_g()
    out = []
    for f, mult in squarefree_places(g):
        if mult < 2:
            continue
        if f.degree != 1:
            out.append(("conjugate-pair", {"place": f.to_json(), "mult": mult}))
            continue
        xv = -f.coeff(0)
        b2v = q.b2(xv, 1)
        z2 = -b2v / (2 * q.a0)
        zr = sqrt_exact(z2) if z2 >= 0 else None
        if zr is None:
            out.append(
                ("node-pair-irrational-z", {"x": str(xv), "z_squared": str(z2)})
            )
            continue
        for zv in {zr, -zr}:
            rank = _hessian_rank(q, xv, Fraction(1), zv)
            out.append(("node" if rank == 2 else "worse", {"x": str(xv), "z": str(zv), "hessian_rank": rank}))
    # singular points on Z = 0 would be repeated roots of c4
    c4x = q.c4.subs(1, 1).to_upoly()
    for f, mult in squarefree_places(c4x):
        if mult >= 2:
            out.append(("singular-on-z0", {"place": f.to_json(), "mult": mult}))
    return out


def _hessian_rank(q: PlaneQuartic, xv, yv, zv) -> int:
    # second partials of F = a0 Z^4 + b2 Z^2 + c4 at the point
    def at(f, *ix):
        for i in ix:
            f = f.deriv(i)
        return f(xv, yv)

    z2 = zv * zv
    m = [[at(q.c4, i, j) + at(q.b2, i, j) * z2 for j in (0, 1)] + [2 * at(q.b2, i) * zv]
         for i in (0, 1)]
    m.append([m[0][2], m[1][2], 12 * q.a0 * z2 + 2 * q.b2(xv, yv)])
    return _rank3(m)


def _rank3(m) -> int:
    rows = [list(r) for r in m]
    rank = 0
    for col in range(3):
        piv = None
        for r_ in range(rank, 3):
            if rows[r_][col] != 0:
                piv = r_
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for r_ in range(3):
            if r_ != rank and rows[r_][col] != 0:
                f = rows[r_][col] / pv
                rows[r_] = [a - f * b for a, b in zip(rows[r_], rows[rank])]
        rank += 1
    return rank


def node_genus2(pp: PencilParams, x0) -> Genus2Curve:
    """Genus-2 component of a reducible member: the sextic model obtained by
    splitting off the double line of the member at a root of P."""
    x0 = rat(x0)
    if pp.p(x0) != 0:
        raise ValueError("x0 is not a root of the quartic")
    bx = pp.b.subs(1, x0).to_upoly()
    return Genus2Curve(bx * pp.p * (9 * pp.csq * pp.csq))


def nodal_target(pp: PencilParams) -> Genus2Curve:
    """(xi - gamma)(xi - delta) S(xi): the common normalization of all
    reducible members."""
    s = pp.s
    cubic = UPoly((s.g, s.f, 0, 1))
    return Genus2Curve(UPoly.from_roots([pp.ip.gamma, pp.ip.delta]) * cubic)


# -- bitangent conics ------------------------------------------------------------------


def bitangent_conics(pp: PencilParams, x0):
    """(q0, q1, q2) as ternary quadratic forms with q0^2 - q1 q2 equal to a
    nonzero constant times the member; q1, q2 do not involve Z."""
    from .quadforms import QuadForm3

    x0 = rat(x0)
    g, d = pp.ip.gamma, pp.ip.delta

    def form(h, k, z2_coeff=0):
        xy = _homogenize(pp.conic(h, k).subs(1, x0).to_upoly(), 2)
        return QuadForm3.from_xy_quadratic(xy, z2_coeff)

    return form(g, d, 2 * pp.p(x0)), form(g, g), form(d, d)


# -- hyperelliptic members --------------------------------------------------------------


def t_involution(a, b, c, d):
    """The fractional-linear involution exchanging a<->b and c<->d, as a
    (numerator, denominator) pair of linear polynomials."""
    a, b, c, d = rat(a), rat(b), rat(c), rat(d)
    num = UPoly((a * b * (c + d) - (a + b) * c * d, -(a * b - c * d)))
    den = UPoly((a * b - c * d, -(a + b - c - d)))
    return num, den


def r_commutator(a, b, c, d) -> UPoly:
    """The quadratic in x0 whose vanishing makes the pairing {a,b},{c,d}
    a hyperelliptic involution of the member."""
    a, b, c, d = rat(a), rat(b), rat(c), rat(d)
    return UPoly(
        (
            a * b * (c + d) - (a + b) * c * d,
            -2 * (a * b - c * d),
            (a + b - c - d),
        )
    )


def hyperelliptic_invariance(pp: PencilParams, pairing, place: UPoly) -> bool:
    """Exact invariance of the member under (x, z) -> (T(x), C(x) z) modulo
    the (possibly irreducible) place of the base parameter.

    With T the involution of the pairing, den its denominator, and
    K = C(x)^2 den(x)^2, invariance amounts to P(T) den^4 = K^2 P
    identically and B(T(x), x0) den^2 = K B(x, x0) modulo the place.
    """
    (a, b), (c, d) = pairing
    num, den = t_involution(a, b, c, d)
    k = (rat(a) - rat(c)) * (rat(a) - rat(d)) * (rat(b) - rat(c)) * (rat(b) - rat(d))
    p = pp.p
    pt = UPoly()
    for i in range(p.degree + 1):
        if p.coeff(i):
            pt = pt + num**i * den ** (p.degree - i) * p.coeff(i)
    if pt != p * (k * k):
        return False
    rows = pp.b.upoly_rows()  # B(x, x0) by powers of x; entries in Q[x0]
    bt_rows = {}
    for i in range(3):
        mono = num**i * den ** (2 - i)
        for j in range(mono.degree + 1):
            cc = mono.coeff(j)
            if cc:
                cur = bt_rows.get(j, UPoly())
                bt_rows[j] = cur + rows[i] * cc
    for j in range(3):
        diff = bt_rows.get(j, UPoly()) - rows[j] * k
        if diff and valuation(diff, place) < 1:
            return False
    return True


def hyperelliptic_pairings(pp: PencilParams):
    """All three pairings of the quartic's roots with their place data, and
    the two sides of the product identity
    r_ab,cd * r_ac,bd * r_ad,bc * lc(P)^3 = -4 [P, Q]."""
    if len(pp.roots) != 4:
        raise ValueError("quartic does not split over the rationals")
    a, b, c, d = pp.roots
    combos = [((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))]
    rs = [r_commutator(p1[0], p1[1], p2[0], p2[1]) for p1, p2 in combos]
    prod = rs[0] * rs[1] * rs[2] * pp.p.lead**3
    return list(zip(combos, rs)), prod, bracket(pp.p, pp.q) * -4
