"""Weierstrass families over the projective line.

Families are y^2 = x^3 + a2(t) x^2 + a4(t) x + a6(t) with polynomial
coefficients subject to the K3 degree bounds deg a_i <= i*d (d = 2).
Singular fibers are classified by the residue-characteristic-zero table
on the valuations of (c4, c6, Delta) at each place, with the place at
infinity handled in the flipped chart s = 1/t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rat import Rat, rat, sqrt_exact
from .upoly import UPoly, gcd, inv_mod, valuation
from .bpoly import MPoly
from .ratfunc import RatFunc
from .factorq import squarefree_places
from .hermite import EllipticW, _aj_image
from .genus2 import CoverPoint

INF_PLACE = "inf"


@dataclass(frozen=True)
class WeierstrassFamily:
    a2: UPoly
    a4: UPoly
    a6: UPoly
    var: str = "t"
    d: int = 2

    def __post_init__(self):
        for i, a in ((2, self.a2), (4, self.a4), (6, self.a6)):
            if a.degree > i * self.d:
                raise ValueError(f"deg a{i} exceeds the weight bound {i * self.d}")
        if not self.delta():
            raise ValueError("identically singular family")

    def c4(self) -> UPoly:
        return self.a2 * self.a2 * 16 - self.a4 * 48

    def c6(self) -> UPoly:
        return self.a2**3 * -64 + self.a2 * self.a4 * 288 - self.a6 * 864

    def delta(self) -> UPoly:
        return self.disc_cubic() * 16

    def disc_cubic(self) -> UPoly:
        """Discriminant of the defining cubic in x (equals delta()/16)."""
        a2, a4, a6 = self.a2, self.a4, self.a6
        return -(
            a2**3 * a6 * 4 - a2 * a2 * a4 * a4 - a2 * a4 * a6 * 18 + a4**3 * 4 + a6 * a6 * 27
        )

    def fiber(self, t):
        t = rat(t)
        return (self.a2(t), self.a4(t), self.a6(t))

    def flip(self) -> "WeierstrassFamily":
        """The family in the chart s = 1/t with the weighted coordinate change."""
        return WeierstrassFamily(
            self.a2.reciprocal(2 * self.d),
            self.a4.reciprocal(4 * self.d),
            self.a6.reciprocal(6 * self.d),
            var="s",
            d=self.d,
        )

    def twist(self, c) -> "WeierstrassFamily":
        """Quadratic twist (a2, a4, a6) -> (c a2, c^2 a4, c^3 a6)."""
        c = rat(c)
        return WeierstrassFamily(
            self.a2 * c, self.a4 * c * c, self.a6 * c**3, var=self.var, d=self.d
        )

    def section_on(self, x_, y_) -> bool:
        """Check Y^2 = X^3 + a2 X^2 + a4 X + a6 as a rational-function identity."""
        x_ = x_ if isinstance(x_, RatFunc) else RatFunc(x_)
        y_ = y_ if isinstance(y_, RatFunc) else RatFunc(y_)
        rhs = x_**3 + x_**2 * RatFunc(self.a2) + x_ * RatFunc(self.a4) + RatFunc(self.a6)
        return y_ * y_ == rhs

    def to_json(self):
        return {
            "var": self.var,
            "a2": self.a2.to_json(),
            "a4": self.a4.to_json(),
            "a6": self.a6.to_json(),
        }


@dataclass(frozen=True)
class FiberReport:
    place: object  # UPoly or INF_PLACE
    kodaira: str
    ord_delta: int
    mult: int
    var: str = "t"

    def to_json(self):
        if self.place is INF_PLACE:
            pl = INF_PLACE
        elif self.place.degree == 1 and self.place.coeff(0) == 0:
            pl = self.var
        else:
            pl = self.place.poly_str(self.var)
        return {
            "place": pl,
            "type": self.kodaira,
            "ord_delta": self.ord_delta,
            "mult": self.mult,
        }


def _kodaira_from_valuations(vc4, vc6, vdelta) -> str:
    while vc4 >= 4 and vc6 >= 6 and vdelta >= 12:
        vc4 -= 4
        vc6 -= 6
        vdelta -= 12
    if vdelta == 0:
        return "I0"
    if vc4 == 0:
        return f"I{vdelta}"
    if vdelta >= 7 and vc4 == 2 and vc6 == 3:
        return f"I{vdelta - 6}*"
    table = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*", 10: "II*"}
    if vdelta in table:
        return table[vdelta]
    raise AssertionError(f"no Kodaira type for valuations {(vc4, vc6, vdelta)}")


def classify_fibers(w: WeierstrassFamily):
    """Fiber reports at every place of bad reduction, including infinity."""
    delta = w.delta()
    c4, c6 = w.c4(), w.c6()
    reports = []
    for place, mult in squarefree_places(delta):
        vd = mult
        vc4 = valuation(c4, place) if c4 else 1 << 30
        vc6 = valuation(c6, place) if c6 else 1 << 30
        kind = _kodaira_from_valuations(min(vc4, 1 << 20), min(vc6, 1 << 20), vd)
        reports.append(FiberReport(place, kind, vd, place.degree, w.var))
    flip = w.flip()
    dflip = flip.delta()
    s = UPoly.x()
    vd = valuation(dflip, s)
    if vd > 0:
        c4f, c6f = flip.c4(), flip.c6()
        vc4 = valuation(c4f, s) if c4f else 1 << 30
        vc6 = valuation(c6f, s) if c6f else 1 << 30
        kind = _kodaira_from_valuations(min(vc4, 1 << 20), min(vc6, 1 << 20), vd)
        reports.append(FiberReport(INF_PLACE, kind, vd, 1, w.var))
    return reports


def fiber_inventory(reports):
    """Count fibers by Kodaira type, weighting each place by its degree."""
    inv = {}
    for r in reports:
        inv[r.kodaira] = inv.get(r.kodaira, 0) + r.mult
    return inv


def total_ord_delta(reports) -> int:
    return sum(r.ord_delta * r.mult for r in reports)


# -- the isogeny parameters --------------------------------------------------------


@dataclass(frozen=True)
class IsogenyParams:
    gamma: Rat
    delta: Rat
    mu: Rat
    nu: Rat
    kappa: Rat

    @property
    def norm(self) -> Rat:
        """mu^2 - nu*kappa = S(gamma) S(delta)."""
        return self.mu * self.mu - self.nu * self.kappa


def mu_nu_kappa(s: EllipticW, gamma, delta) -> IsogenyParams:
    gamma, delta = rat(gamma), rat(delta)
    if gamma == delta:
        raise ValueError("gamma = delta gives reducible members")
    s0, s1 = s.g, s.f  # S(0) and S'(0)
    mu = gamma * delta * (gamma + delta) / 2 + (gamma + delta) * s1 / 2 + s0
    nu = (gamma - delta) ** 2 / 2
    kappa = (gamma * delta) ** 2 / 2 - gamma * delta * s1 - 2 * (gamma + delta) * s0 + s1 * s1 / 2
    ip = IsogenyParams(gamma, delta, mu, nu, kappa)
    if ip.norm != s.rhs(gamma) * s.rhs(delta):
        raise AssertionError("norm identity mu^2 - nu kappa = S(gamma)S(delta) failed")
    if ip.norm == 0:
        raise ValueError("mu^2 - nu kappa = 0: a marked point is 2-torsion")
    return ip


# -- builders ------------------------------------------------------------------------


def build_shioda_lams(lam1, lam2, lam3) -> WeierstrassFamily:
    lam1, lam2, lam3 = rat(lam1), rat(lam2), rat(lam3)
    den = lam2 - lam3
    if den == 0:
        raise ValueError("Lambda2 = Lambda3 degenerates the fibration")
    u = UPoly.x()
    a = (u**3 - u * u * lam3 + u) * ((lam1 - lam2) / den)
    b = (u**3 - u * u * lam2 + u) * ((lam1 - lam3) / den)
    return WeierstrassFamily(-(a + b), a * b, UPoly(), var="u")


def build_shioda(cp: CoverPoint) -> WeierstrassFamily:
    return build_shioda_lams(cp.lam1, cp.lam2, cp.lam3)


def build_kummer12_lams(lam1, lam2, lam3) -> WeierstrassFamily:
    lam1, lam2, lam3 = rat(lam1), rat(lam2), rat(lam3)
    den = lam2 - lam3
    if den == 0:
        raise ValueError("Lambda2 = Lambda3 degenerates the fibration")
    v = UPoly.x()
    a = (v**4 - v * v * lam3 + 1) * ((lam1 - lam2) / den)
    b = (v**4 - v * v * lam2 + 1) * ((lam1 - lam3) / den)
    return WeierstrassFamily(-(a + b), a * b, UPoly(), var="v")


def build_kummer12(cp: CoverPoint) -> WeierstrassFamily:
    return build_kummer12_lams(cp.lam1, cp.lam2, cp.lam3)


def build_dual_kummer_lams(lam1, lam2, lam3) -> WeierstrassFamily:
    lam1, lam2, lam3 = rat(lam1), rat(lam2), rat(lam3)
    den = lam2 - lam3
    if den == 0:
        raise ValueError("Lambda2 = Lambda3 degenerates the fibration")
    v = UPoly.x()
    a2 = ((v**4 + 1) * (2 * lam1 - lam2 - lam3) + v * v * (2 * lam2 * lam3 - lam1 * lam2 - lam1 * lam3)) * (
        Fraction(1) / den
    )
    a4 = (v**4 - v * v * lam1 + 1) ** 2
    return WeierstrassFamily(a2, a4, UPoly(), var="v")


def build_dual_kummer(cp: CoverPoint) -> WeierstrassFamily:
    return build_dual_kummer_lams(cp.lam1, cp.lam2, cp.lam3)


def build_pencil_jac(pp) -> WeierstrassFamily:
    """The Jacobian family of the pencil pp (a pencil3.PencilParams) over
    the base parameter x0."""
    ip = pp.ip
    m = pp.p * ip.mu + pp.q * ip.nu
    return WeierstrassFamily(m * -2, m * m - pp.p * pp.p * ip.norm, UPoly(), var="x0")


def build_pencil_dual(pp) -> WeierstrassFamily:
    """The 2-isogenous dual of the Jacobian family of the pencil pp."""
    ip = pp.ip
    m = pp.p * ip.mu + pp.q * ip.nu
    return WeierstrassFamily(m * 4, pp.p * pp.p * (4 * ip.norm), UPoly(), var="x0")


def velu2(w: WeierstrassFamily) -> WeierstrassFamily:
    """Quotient by translation along the 2-torsion section (0, 0)."""
    if w.a6:
        raise ValueError("(0,0) is not 2-torsion: a6 != 0")
    return WeierstrassFamily(
        w.a2 * -2, w.a2 * w.a2 - w.a4 * 4, UPoly(), var=w.var, d=w.d
    )


def pullback_double_base(w: WeierstrassFamily, var: str = "v") -> WeierstrassFamily:
    """Pull back along the double cover u = v^2 of the base, rescaling
    fiber coordinates so the coefficients stay polynomial."""
    vsq = UPoly((0, 0, 1))
    a2 = w.a2.compose(vsq)
    a4 = w.a4.compose(vsq)
    a6 = w.a6.compose(vsq)
    x2 = UPoly.monomial(2)
    return WeierstrassFamily(
        a2.exact_div(x2),
        a4.exact_div(x2**2),
        a6.exact_div(x2**3) if a6 else UPoly(),
        var=var,
        d=w.d,
    )


# -- sections -----------------------------------------------------------------------


@dataclass(frozen=True)
class Section:
    """A section of a Weierstrass family, or the zero section."""

    x: RatFunc | None
    y: RatFunc | None
    name: str = ""

    @property
    def is_zero_section(self) -> bool:
        return self.x is None

    @classmethod
    def zero(cls) -> "Section":
        return cls(None, None, "sigma")

    @classmethod
    def of(cls, x_, y_, name="") -> "Section":
        wrap = lambda v: v if isinstance(v, RatFunc) else RatFunc(v)
        return cls(wrap(x_), wrap(y_), name)


@dataclass(frozen=True)
class SectionSet:
    """The section model of the Jacobian pencil together with its visible
    Mordell-Weil generators and 2-torsion sections."""

    model: WeierstrassFamily
    sigma: Section
    s1: Section
    s2: Section
    s3: Section
    t1: Section
    t2: Section
    t3: Section

    def all(self):
        return (self.sigma, self.t1, self.t2, self.t3, self.s1, self.s2, self.s3)


def sections_from_aj(pp) -> SectionSet:
    """Rational sections of the Jacobian pencil of pp (a
    pencil3.PencilParams) via the fiberwise point map.

    Requires the quartic to split over the rationals.  The returned model
    is the constant quadratic twist of the printed pencil on which these
    sections are rational.
    """
    from .factorq import rational_roots

    p, ip = pp.p, pp.ip
    roots = rational_roots(p)
    if len(roots) != 4 or p != UPoly.from_roots(roots, p.lead):
        raise ValueError("sections not rational: the quartic does not split")
    model = build_pencil_jac(pp).twist(-8)
    m = p * ip.mu + pp.q * ip.nu
    # fiber quartic G(x) = B(x, x0)^2 - 4 (gamma-delta)^2 P(x0) P(x), by
    # powers of x with coefficients in Q[x0]
    g = pp.b * pp.b - MPoly.from_upoly(p, 0, 2) * MPoly.from_upoly(p, 1, 2) * (4 * pp.csq)
    gcoeffs = (g.upoly_rows() + [UPoly()] * 5)[:5]
    wvals = [pp.b.subs(0, x0r).to_upoly() for x0r in roots]  # B(x''_n, x0) in x0
    bx = roots[0]
    bw = wvals[0]
    secs = []
    for n in (1, 2, 3):
        xi, eta = _aj_image(gcoeffs, bx, bw * -1, roots[n], wvals[n])
        xs = xi - m * Fraction(16, 3)
        secs.append(Section.of(RatFunc(xs), RatFunc(eta), f"S{n}"))
    sn = sqrt_exact(ip.norm)
    if sn is None:
        raise ValueError("torsion sections not rational: the norm is not a square")
    t1 = Section.of(RatFunc(UPoly()), RatFunc(UPoly()), "T1")
    t2 = Section.of(RatFunc((m + p * sn) * -8), RatFunc(UPoly()), "T2")
    t3 = Section.of(RatFunc((m - p * sn) * -8), RatFunc(UPoly()), "T3")
    out = SectionSet(model, Section.zero(), secs[0], secs[1], secs[2], t1, t2, t3)
    for s in out.all():
        if not s.is_zero_section and not model.section_on(s.x, s.y):
            raise AssertionError(f"section {s.name} is not on the model")
    return out


# -- intersections and the height pairing ----------------------------------------------


def _node_x(w: WeierstrassFamily, place: UPoly) -> UPoly | None:
    """x-coordinate (as residue mod the place) of the fiber node at a
    multiplicative place, or None when a2^2 - 3 a4 = c4/16 vanishes there.

    A nodal cubic (x - r)^2 (x - s) has a2^2 - 3 a4 = (r - s)^2 and
    9 a6 - a2 a4 = 2 r (r - s)^2, so r = (9 a6 - a2 a4) / (2 (a2^2 - 3 a4)).
    """
    a2, a4, a6 = (v % place for v in (w.a2, w.a4, w.a6))
    c = (a2 * a2 - a4 * 3) % place
    if not c:
        return None
    return ((a6 * 9 - a2 * a4) * inv_mod(c * 2, place)) % place


def _passes_node(sec: Section, w: WeierstrassFamily, place: UPoly) -> bool:
    return _meets_node(sec, place, _node_x(w, place))


def _meets_node(sec: Section, place: UPoly, xn: UPoly | None) -> bool:
    """Whether the section passes through the node at x = xn of the fiber
    over the place (xn None: no rational node there)."""
    if sec.is_zero_section or xn is None:
        return False
    try:
        xres = sec.x.residue(place)
        yres = sec.y.residue(place)
    except ZeroDivisionError:
        return False
    return (xres - xn) % place == 0 and yres % place == 0


def _contact(s1: Section, s2: Section, w: WeierstrassFamily):
    """Total and per-place contact multiplicity of two distinct sections on
    the Weierstrass model, including the place at infinity."""
    if s1.is_zero_section or s2.is_zero_section:
        other = s2 if s1.is_zero_section else s1
        return sum(v for _, v in _pole_places(other, w)), {}
    dx = s1.x - s2.x
    dy = s1.y - s2.y
    per = {}
    total = 0
    if not dx.num and not dy.num:
        raise ValueError("identical sections")
    base = dx if dx.num else dy
    places = set()
    for f, _ in squarefree_places(base.num if base.num else UPoly.one()):
        places.add(f)
    for f in places:
        ox = dx.valuation(f) if dx.num else 1 << 30
        oy = dy.valuation(f) if dy.num else 1 << 30
        mval = min(ox, oy)
        if mval > 0:
            per[f] = mval
            total += mval * f.degree
    oxi = _ord_inf(dx, 2 * w.d)
    oyi = _ord_inf(dy, 3 * w.d)
    mi = min(oxi, oyi)
    if mi > 0:
        per[INF_PLACE] = mi
        total += mi
    return total, per


def _ord_inf(f: RatFunc, weight: int) -> int:
    if not f.num:
        return 1 << 30
    return weight - (f.num.degree - f.den.degree)


def _pole_places(sec: Section, w: WeierstrassFamily):
    out = []
    for f, _ in squarefree_places(sec.x.den) if sec.x.den.degree > 0 else []:
        v = -sec.x.valuation(f)
        if v > 0:
            if v % 2:
                raise ValueError("odd pole order in a section x-coordinate")
            out.append((f, (v // 2) * f.degree))
    oxi = _ord_inf(sec.x, 2 * w.d)
    if oxi < 0:
        if oxi % 2:
            raise ValueError("odd pole order at infinity")
        out.append((INF_PLACE, -oxi // 2))
    return out


class HeightPairing:
    """Mordell-Weil height pairing on one family whose bad fibers are all
    multiplicative of type I1 or I2.  The fiber data that every pair shares
    is computed once: the fiber reports and the node x-coordinate at each
    finite I2 place.  Per section, its intersection with the zero section
    and the I2 nodes it passes through are computed on first use."""

    def __init__(self, w: WeierstrassFamily):
        reports = classify_fibers(w)
        for r in reports:
            if r.kodaira not in ("I1", "I2"):
                raise ValueError(f"unsupported fiber type {r.kodaira} for heights")
        self.w = w
        self.nodes = {
            r.place: _node_x(w, r.place)
            for r in reports
            if r.kodaira == "I2" and r.place is not INF_PLACE
        }
        self._sections = {}

    def _section(self, sec: Section):
        if sec not in self._sections:
            met = [pl for pl, xn in self.nodes.items() if _meets_node(sec, pl, xn)]
            self._sections[sec] = (_sigma_int(sec, self.w), met)
        return self._sections[sec]

    def __call__(self, s1: Section, s2: Section) -> Fraction:
        chi = 2
        sigma_s1, met1 = self._section(s1)
        sigma_s2, met2 = self._section(s2)
        both = [pl for pl in met1 if pl in met2]
        if s1 == s2:
            inter = Fraction(-2)  # self-intersection of any section on a K3
        elif s1.is_zero_section or s2.is_zero_section:
            inter = Fraction(sigma_s2 if s1.is_zero_section else sigma_s1)
        else:
            total, per = _contact(s1, s2, self.w)
            inter = Fraction(total)
            for place in both:
                m = per.get(place, 0)
                if m:
                    if m != 1:
                        raise ValueError("deep tangency at a node is unsupported")
                    inter -= place.degree
        corr = Fraction(0)
        for place in both:
            corr += Fraction(1, 2) * place.degree
        return chi + sigma_s1 + sigma_s2 - inter - corr


def height_pairing(w: WeierstrassFamily, s1: Section, s2: Section) -> Fraction:
    """Mordell-Weil height pairing for families whose bad fibers are all
    multiplicative of type I1 or I2."""
    return HeightPairing(w)(s1, s2)


def _sigma_int(sec: Section, w: WeierstrassFamily) -> int:
    """Intersection with the zero section (= -2 for the zero section itself)."""
    if sec.is_zero_section:
        return -2
    return sum(v for _, v in _pole_places(sec, w))
