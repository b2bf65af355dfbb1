"""Named verification suites over a square-split modulus.

Each suite returns a Certificate whose witness stores both sides of every
exact equality it asserts, so a certificate can be re-checked later from
the file alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .rat import Rat, rat, rat_str, sqrt_exact
from .upoly import (
    UPoly, bracket, convolve, discriminant, gcd, resultant_upoly_coeffs, valuation,
)
from .factorq import squarefree_places
from .invariants import IgusaClebsch, igusa_clebsch_upoly, wp_equal, wp_scale_equal
from . import genus2 as g2
from . import hermite as hm
from . import fibration as fb
from . import pencil3 as p3
from . import genus5 as g5
from .jsonio import canonical


@dataclass(frozen=True)
class RunConfig:
    """One configuration of the suites.  The data that several suites share
    is built on first use and then kept on the configuration."""

    lambdas: tuple
    k15: Rat
    k23: Rat
    variant: str = "k15"
    ts: tuple = ()
    suites: tuple = ("all",)

    @cached_property
    def cover(self) -> g2.CoverPoint:
        rp = g2.RosenhainPoint(*[rat(v) for v in self.lambdas])
        return g2.CoverPoint(rp, rat(self.k15), rat(self.k23))

    @cached_property
    def pencil(self) -> p3.PencilParams:
        return p3.PencilParams.from_cover(self.cover, self.variant)

    @cached_property
    def coeffs(self) -> g2.NormalFormCoeffs:
        return g2.normal_form_coeffs(self.cover, self.variant)

    @cached_property
    def base_frame(self) -> p3.PencilParams:
        """The base-frame pencil of the configuration's variant."""
        return p3.PencilParams.base_frame(self.cover, self.coeffs)

    @cached_property
    def richelot(self) -> g2.Genus2Curve:
        """The Richelot image of the Rosenhain curve under the Goepel group
        {0, (15), (23), (46)}."""
        group = frozenset(
            {
                g2.TwoTorsionPoint.identity(),
                g2.TwoTorsionPoint.of(1, 5),
                g2.TwoTorsionPoint.of(2, 3),
                g2.TwoTorsionPoint.of(4, 6),
            }
        )
        return g2.richelot_from_goepel(self.cover.base, group)

    @cached_property
    def families(self) -> dict:
        """The five Weierstrass families, keyed by their names."""
        cp, pp = self.cover, self.pencil
        return {
            "shioda": fb.build_shioda(cp),
            "kummer12": fb.build_kummer12(cp),
            "dual_kummer": fb.build_dual_kummer(cp),
            "pencil_jac": fb.build_pencil_jac(pp),
            "pencil_dual": fb.build_pencil_dual(pp),
        }

    def to_json(self):
        return {
            "lambda": [rat_str(rat(v)) for v in self.lambdas],
            "kappa15": rat_str(rat(self.k15)),
            "kappa23": rat_str(rat(self.k23)),
            "variant": self.variant,
            "t": [rat_str(rat(t)) for t in self.ts],
        }


@dataclass
class Certificate:
    suite: str
    status: str
    checks: list
    input_echo: dict
    wall_time: float

    def to_json(self):
        """The certificate without its wall time, so two runs give the same bytes."""
        return {
            "suite": self.suite,
            "status": self.status,
            "checks": self.checks,
            "input": self.input_echo,
        }


class _Suite:
    def __init__(self, name: str, cfg: RunConfig):
        self.name = name
        self.cfg = cfg
        self.checks = []
        self.start = time.monotonic()

    def eq(self, label, lhs, rhs):
        l, r = canonical(lhs), canonical(rhs)
        self.checks.append({"kind": "eq", "label": label, "lhs": l, "rhs": r, "ok": l == r})

    def wp_scale(self, label, a: IgusaClebsch, b: IgusaClebsch, r):
        ok = wp_scale_equal(a, b, r)
        self.checks.append(
            {
                "kind": "wp_scale",
                "label": label,
                "a": a.to_json(),
                "b": b.to_json(),
                "r": rat_str(rat(r)),
                "ok": ok,
            }
        )

    def wp(self, label, a: IgusaClebsch, b: IgusaClebsch):
        ok = wp_equal(a, b)
        self.checks.append(
            {"kind": "wp_equal", "label": label, "a": a.to_json(), "b": b.to_json(), "ok": ok}
        )

    def flag(self, label, ok: bool, **extra):
        self.checks.append({"kind": "flag", "label": label, "ok": bool(ok), **canonical(extra)})

    def done(self) -> Certificate:
        status = "pass" if all(c["ok"] for c in self.checks) else "fail"
        return Certificate(
            self.name, status, self.checks, self.cfg.to_json(), time.monotonic() - self.start
        )


# -- suite: richelot ---------------------------------------------------------------


def suite_richelot(cfg: RunConfig) -> Certificate:
    s = _Suite("richelot", cfg)
    cp0 = cfg.cover
    rp = cp0.base
    ic_rich = g2.igusa_clebsch(cfg.richelot)
    for variant in ("k15", "k23"):
        for sheet in (1, -1):
            cp = g2.CoverPoint(rp, cp0.k15 * (sheet if variant == "k15" else 1),
                               cp0.k23 * (sheet if variant == "k23" else 1))
            eps = cp.k15 if variant == "k15" else cp.k23
            nf, coeffs = g2.isogenous_normal_form(cp, variant)
            r = 18 * (rp.l1 - rp.l2 * rp.l3) * eps
            s.wp_scale(
                f"normal-form/{variant}/sheet{sheet} scales to the quotient curve",
                g2.igusa_clebsch(nf),
                ic_rich,
                r,
            )
            s.eq(
                f"coefficient discriminant identity {variant}/sheet{sheet}",
                coeffs.disc(),
                144 * eps**2 * (rp.l2 - 1) * (rp.l3 - 1) * (rp.l2 - rp.l1) * (rp.l3 - rp.l1),
            )
    return s.done()


# -- suite: fibers (inventories + the 2-isogeny pair) --------------------------------


EXPECTED_INVENTORIES = {
    "shioda": {"I0*": 2, "I2": 6},
    "kummer12": {"I2": 12},
    "dual_kummer": {"I4": 4, "I1": 8},
    "pencil_jac": {"I2": 12},
    "pencil_dual": {"I4": 4, "I1": 8},
}


def families(cfg: RunConfig):
    """The five families of the configuration, in a dict of the caller's own."""
    return dict(cfg.families)


def suite_fibers(cfg: RunConfig) -> Certificate:
    s = _Suite("fibers", cfg)
    fams = cfg.families
    for name, fam in fams.items():
        reports = fb.classify_fibers(fam)
        s.eq(f"{name} fiber inventory", fb.fiber_inventory(reports), EXPECTED_INVENTORIES[name])
        s.eq(f"{name} total ord(Delta)", fb.total_ord_delta(reports), 24)
    v2 = fb.velu2(fams["pencil_jac"])
    s.eq("two-isogeny image a2", v2.a2, fams["pencil_dual"].a2)
    s.eq("two-isogeny image a4", v2.a4, fams["pencil_dual"].a4)
    s.eq("two-isogeny image a6", v2.a6, fams["pencil_dual"].a6)
    s.eq(
        "pencil discriminant ratio 2^-18",
        fams["pencil_jac"].delta * Fraction(2**14),
        cfg.pencil.delta_z,
    )
    pb = fb.pullback_double_base(fams["shioda"])
    s.eq("base change squares onto the double-cover family (a2)", pb.a2, fams["kummer12"].a2)
    s.eq("base change squares onto the double-cover family (a4)", pb.a4, fams["kummer12"].a4)
    return s.done()


# -- suite: identification -------------------------------------------------------------


def suite_identification(cfg: RunConfig) -> Certificate:
    s = _Suite("identification", cfg)
    cp = cfg.cover
    km = cfg.families["kummer12"]
    for variant in ("k15", "k23"):
        if variant == cfg.variant:
            base = cfg.base_frame
        else:
            base = p3.PencilParams.base_frame(cp, g2.normal_form_coeffs(cp, variant))
        jac = fb.build_pencil_jac(base)
        sn = sqrt_exact(base.ip.norm)
        s.flag(f"norm is a rational square ({variant})", sn is not None)
        matched = None
        for c in (Fraction(1) / (2 * sn), Fraction(-1) / (2 * sn)):
            tw = jac.twist(c)
            if tw.a2 == km.a2 and tw.a4 == km.a4 and tw.a6 == km.a6:
                matched = c
        s.flag(
            f"rescaled pencil family is coefficient-identical to the Kummer family ({variant})",
            matched is not None,
            twist=rat_str(matched) if matched is not None else "none",
        )
    # the verbatim duplicated third modulus makes the builders degenerate
    lam3_dup = cp.lam2
    try:
        fb.build_kummer12_lams(cp.lam1, cp.lam2, lam3_dup)
        degenerate = False
    except (ValueError, ZeroDivisionError):
        degenerate = True
    s.flag("duplicated third modulus is rejected", degenerate)
    return s.done()


# -- suite: pencil (point-map identities, member classification, degenerations) ---------


def suite_pencil(cfg: RunConfig) -> Certificate:
    s = _Suite("pencil", cfg)
    cp, pp = cfg.cover, cfg.pencil

    # the Hermite identities, once over Z[p0..p4] for every quartic
    for label, lhs, rhs in hm.GenericQuartic.build().identities():
        s.eq(label, lhs, rhs)

    # member classification at the marked parameter values
    s.eq("member at t=1", p3.classify_member(pp, 1).kind, "SmoothGenus3")
    for t in (3, -3, 4, -4):
        mc = p3.classify_member(pp, t)
        s.eq(f"member at t={t}", mc.kind, "ReducibleLinePlusGenus2")
    ic_ng3 = g2.igusa_clebsch(p3.node_genus2(pp, 3))
    s.wp("normalized reducible member matches the quotient curve",
         ic_ng3, g2.igusa_clebsch(cfg.richelot))
    s.wp("normalized reducible member matches the nodal model",
         ic_ng3, g2.igusa_clebsch(p3.nodal_target(pp)))
    octic_places = [f for f, _ in squarefree_places(pp.octic)]
    s.eq("number of one-node places", sum(f.degree for f in octic_places), 8)
    for f in octic_places:
        s.eq(
            f"symbolic class at place {f.to_json()}",
            p3.classify_place(pp, f).kind,
            "IrreducibleOneNodeGenus2",
        )
    s.eq("member at t=0", p3.classify_member(pp, 0).kind, "SmoothHyperelliptic")
    pairings, prod, rhs = p3.hyperelliptic_pairings(pp)
    s.eq("commutator product identity r r' r'' = -4 [P,Q]", prod, rhs)
    zero_place = UPoly.x()
    inv0 = any(
        rpoly(Fraction(0)) == 0 and p3.hyperelliptic_invariance(pp, pairing, zero_place)
        for pairing, rpoly in pairings
    )
    s.flag("involution invariance of the member at t=0", inv0)
    br = bracket(pp.p, pp.q)
    hyper_places = [f for f, _ in squarefree_places(br)]
    for f in hyper_places:
        if f.degree == 1 and f.coeff(0) == 0:
            continue
        invf = any(
            valuation(rpoly, f) > 0 and p3.hyperelliptic_invariance(pp, pairing, f)
            for pairing, rpoly in pairings
        )
        s.flag(f"involution invariance at place {f.to_json()}", invf)

    # the resultant degeneration identity as a polynomial in u = a/b: the
    # rows of u P + Q against [P,Q], with the formal degrees (4, 6)
    rows = [UPoly((pp.q.coeff(i), pp.p.coeff(i))) for i in range(5)]
    cubic = UPoly((pp.s.g, pp.s.f, 0, 1))
    s.eq(
        "resultant degeneration identity in u = a/b",
        resultant_upoly_coeffs(rows, br.c, formal=(4, 6)),
        cubic * cubic * (discriminant(pp.p) ** 3 * Fraction(1, 2**8)),
    )

    # moduli-frame member equals the base-frame member
    for t in (1, Fraction(2, 3), 5):
        s.flag(
            f"moduli member identity at t={t}",
            p3.member_frames_agree(cfg.base_frame, cp, cfg.coeffs, t),
        )

    # the j-invariant bridge at the even member
    h, j_formula = g2.bielliptic_h_and_e(cp.base)
    quotient_quartic = hm.QuarticGenus1(
        UPoly.from_roots([1, cp.base.l1, cp.base.l2, cp.base.l3])
    )
    s.eq(
        "split-cover j equals the quotient-quartic Jacobian j",
        j_formula,
        hm.j_invariant(hm.jacobian_of_quartic(quotient_quartic)),
    )
    g0 = p3.build_member_generic(pp, 0).affine_g()
    q0 = hm.QuarticGenus1(g0)
    s.eq(
        "fiber at t=0 has the same Jacobian j",
        hm.j_invariant(hm.jacobian_of_quartic(q0)),
        j_formula,
    )
    return s.done()


# -- suite: genus5 ------------------------------------------------------------------------


def suite_genus5(cfg: RunConfig) -> Certificate:
    s = _Suite("genus5", cfg)
    cp, pp, coeffs = cfg.cover, cfg.pencil, cfg.coeffs
    qt = g5.build_quadrics(pp, 1)
    loc = qt.locus
    s.eq("rank-locus block factorization", loc.det5, loc.block)
    s.eq(
        "rational point on the residual conic",
        loc.residual_conic(-2, 1, 1),
        Fraction(0),
    )
    pts = g5.rational_points8(qt)
    s.eq("number of marked rational points", len(pts), 8)
    s.flag(
        "marked points satisfy all three quadrics",
        all(all(v == 0 for v in qt.evaluate(*p)) for p in pts),
    )
    free1, _ = g5.fixed_point_data(qt)
    s.flag("sign involution is free on the smooth member t=1", free1)
    # fixed points appear over the one-node places: the V,W conics meet there
    res12 = _conic_resultant(pp)
    octic = pp.octic
    ratio_num = res12 * octic.lead
    ratio_den = octic * res12.lead
    s.eq("conic intersection locus equals the one-node factor", ratio_num, ratio_den)
    ic_pr = g2.igusa_clebsch(g5.prym_genus2(qt))
    ic_nodal = g2.igusa_clebsch(p3.nodal_target(pp))
    s.wp("associated genus-2 curve matches the nodal model", ic_pr, ic_nodal)
    r16 = 16 * (pp.ip.gamma - pp.ip.delta) * pp.p(Fraction(1)) ** 2
    s.wp_scale("associated genus-2 scale factor 16 (gamma-delta) P(x0)^2", ic_pr, ic_nodal, r16)
    nf, _ = g2.isogenous_normal_form(cp, cfg.variant)
    s.wp("associated genus-2 curve matches the isogenous normal form",
         ic_pr, g2.igusa_clebsch(nf))
    pdual = cfg.families["pencil_dual"]
    for t in (1, 5, Fraction(7, 3), Fraction(1, 2), -2):
        a2v, a4v, _ = pdual.fiber(t)
        s.eq(
            f"elliptic quotient j matches the dual fiber at t={t}",
            g5.bielliptic_quotient_j(pp, t),
            hm.j_from_cubic(a2v, a4v),
        )
    # moduli-frame quadrics
    for t in (1, Fraction(2, 3)):
        s.flag(
            f"moduli quadrics identity at t={t}",
            g5.quadrics_frames_agree(cfg.base_frame, cp, coeffs, t),
        )
    e_val, f_val = g2.moduli_ef(coeffs)
    s.eq("split parameters multiply to c0/c2", e_val * f_val, coeffs.c0 / coeffs.c2)
    s.eq("split parameters sum to c1/c2", e_val + f_val, coeffs.c1 / coeffs.c2)

    # second-component identities
    s.flag("degeneration quantity equals the bracket square", g5.w14_epsilon_identity(pp))
    r12, r13, r23, t0 = g5.w14_resultants(pp)
    sg = pp.s.rhs(pp.ip.gamma)
    sd = pp.s.rhs(pp.ip.delta)
    s.eq("linear-cubic factor resultant", r12, -t0)
    s.eq("linear-quadratic factor resultant", r13, t0)
    s.eq("cubic-quadratic factor resultant", r23, t0 * (sg * sd))
    p1, p2, p3f = g5.w14_factors(pp)
    sext = convolve(convolve(p1, p2), p3f)
    i2, i4, i6, i10 = igusa_clebsch_upoly(sext)
    br = bracket(pp.p, pp.q)
    s.flag("I2 coprime to the bracket", _gcd_deg(i2, br) == 0)
    s.flag("I4 divisible by bracket^2", _divisible(i4, br**2))
    s.flag("I6 divisible by bracket^2", _divisible(i6, br**2))
    s.flag("I10 divisible by bracket^6", _divisible(i10, br**6))
    # the parametrized derivation reproduces the closed-form factors (mirrored)
    derived = g5.w14_parametrized_sextic(qt)
    closed = g5.w14_component(pp, 1).f
    mirrored = UPoly([c * (-1) ** i for i, c in enumerate(closed.c)])
    s.flag(
        "rank-locus parametrization matches the closed form up to mirror and scale",
        derived * mirrored.lead == mirrored * derived.lead,
    )
    return s.done()


def _conic_resultant(pp: p3.PencilParams) -> UPoly:
    g, d = pp.ip.gamma, pp.ip.delta
    q1, q2 = pp.conic(g, g), pp.conic(d, d)
    return resultant_upoly_coeffs(q1.upoly_rows(), q2.upoly_rows())


def _divisible(a: UPoly, b: UPoly) -> bool:
    try:
        a.exact_div(b)
        return True
    except ValueError:
        return False


def _gcd_deg(a: UPoly, b: UPoly) -> int:
    return gcd(a, b).degree


# -- suite: heights -------------------------------------------------------------------------


TABLE_HEIGHTS = {
    ("S1", "S1"): Fraction(4), ("S2", "S2"): Fraction(4), ("S3", "S3"): Fraction(4),
    ("S1", "S2"): Fraction(2), ("S1", "S3"): Fraction(2), ("S2", "S3"): Fraction(2),
}


def suite_heights(cfg: RunConfig) -> Certificate:
    s = _Suite("heights", cfg)
    pp = cfg.pencil
    ss = fb.sections_from_aj(pp)
    names = ["sigma", "T1", "T2", "T3", "S1", "S2", "S3"]
    secs = dict(zip(names, ss.all()))
    pairing = fb.HeightPairing(ss.model)
    got = {}
    for i, n1 in enumerate(names):
        for n2 in names[i:]:
            got[(n1, n2)] = pairing(secs[n1], secs[n2])
    expected = {}
    for i, n1 in enumerate(names):
        for n2 in names[i:]:
            expected[(n1, n2)] = TABLE_HEIGHTS.get((n1, n2), Fraction(0))
    s.eq(
        "height-pairing matrix",
        {f"{a},{b}": v for (a, b), v in sorted(got.items())},
        {f"{a},{b}": v for (a, b), v in sorted(expected.items())},
    )
    delta = ss.model.delta  # deg rad(Delta) counts its places with their degrees
    s.eq(
        "section model keeps the twelve nodal places",
        delta.degree - gcd(delta, delta.derivative()).degree,
        12,
    )
    return s.done()


SUITES = {
    "richelot": suite_richelot,
    "fibers": suite_fibers,
    "identification": suite_identification,
    "pencil": suite_pencil,
    "genus5": suite_genus5,
    "heights": suite_heights,
}

SUITE_ORDER = ["richelot", "fibers", "identification", "pencil", "genus5", "heights"]


def run_suites(cfg: RunConfig):
    """Run the selected suites one after another, in the canonical suite
    order; they share the data built on the configuration."""
    wanted = list(cfg.suites)
    if "all" in wanted:
        wanted = list(SUITE_ORDER)
    for name in wanted:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    return [SUITES[name](cfg) for name in SUITE_ORDER if name in wanted]


# -- recheck ------------------------------------------------------------------------------


def recheck_certificate(cert: dict):
    """Re-evaluate every stored equality of a certificate from its witness
    data alone; returns (ok, failures)."""
    from .rat import rat as _rat

    checks = cert.get("checks", [])
    if not isinstance(checks, list):
        return False, ["checks"]
    failures = []
    for i, c in enumerate(checks):
        if not isinstance(c, dict):
            failures.append(f"checks[{i}]")
            continue
        kind = c.get("kind")
        if kind == "eq":
            # both sides must be there: a missing pair is not an equality
            ok = "lhs" in c and "rhs" in c and c["lhs"] == c["rhs"]
        elif kind in ("wp_scale", "wp_equal"):
            # a witness that does not parse is a failed check, not a crash
            try:
                a = IgusaClebsch.from_json(c["a"])
                b = IgusaClebsch.from_json(c["b"])
                ok = wp_equal(a, b) if kind == "wp_equal" else wp_scale_equal(a, b, _rat(c["r"]))
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                ok = False
        elif kind == "flag":
            ok = bool(c.get("ok"))
        else:
            ok = False
        if not ok or not c.get("ok", False):
            failures.append(c.get("label", kind))
    status_ok = cert.get("status") == "pass"
    return status_ok and not failures, failures
