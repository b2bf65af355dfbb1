"""Acceptance criteria for the reference moduli (9, 2, 8) with square roots
kappa15 = 3 and kappa23 = 4.

Every asserted equality is exact (tolerance 0).  Each criterion prints one
pass/fail line; run with `pytest -s tests/test_acceptance.py` to see them.
Three sub-checks reproduce values printed in the source material that are
not attainable as stated; they are marked strict-xfail with the corrected
statement asserted alongside (see notes in the repository history).
"""

import random
from fractions import Fraction

import pytest

from prymkit.rat import sqrt_exact
from prymkit.upoly import UPoly, bracket, discriminant, gcd, resultant, valuation
from prymkit.factorq import squarefree_places
from prymkit.invariants import igusa_clebsch_upoly, wp_equal, wp_scale_equal
from prymkit.genus2 import (
    CoverPoint,
    TwoTorsionPoint,
    bielliptic_h_and_e,
    igusa_clebsch,
    isogenous_normal_form,
    normal_form_coeffs,
    richelot_from_goepel,
)
from prymkit.hermite import (
    QuarticGenus1,
    j_from_cubic,
    j_invariant,
    jacobian_of_quartic,
    hermite_polys,
)
from prymkit.fibration import (
    build_dual_kummer,
    build_kummer12,
    build_kummer12_lams,
    build_pencil_dual,
    build_pencil_jac,
    build_shioda,
    classify_fibers,
    fiber_inventory,
    height_pairing,
    pullback_double_base,
    sections_from_aj,
    total_ord_delta,
    velu2,
)
from prymkit.pencil3 import (
    PencilParams,
    build_member_generic,
    classify_member,
    classify_place,
    hyperelliptic_invariance,
    hyperelliptic_pairings,
    nodal_target,
    node_genus2,
    quartic_singular_points,
)
from prymkit.genus5 import (
    bielliptic_quotient_j,
    build_quadrics,
    fixed_point_data,
    gamma_locus,
    moduli_ef,
    prym_genus2,
    rational_points8,
    w14_epsilon_identity,
    w14_factors,
    w14_resultants,
)

G_PRIME = frozenset(
    {
        TwoTorsionPoint.identity(),
        TwoTorsionPoint.of(1, 5),
        TwoTorsionPoint.of(2, 3),
        TwoTorsionPoint.of(4, 6),
    }
)


def _report(num, name):
    print(f"ACCEPTANCE criterion {num:>2} ({name}): PASS")


def test_criterion_01_richelot_scale(rosenhain):
    rich = richelot_from_goepel(rosenhain, G_PRIME)
    ic_rich = igusa_clebsch(rich)
    for variant in ("k15", "k23"):
        for s15, s23 in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            cp = CoverPoint(rosenhain, 3 * s15, 4 * s23)
            eps = cp.k15 if variant == "k15" else cp.k23
            nf, _ = isogenous_normal_form(cp, variant)
            r = 18 * (rosenhain.l1 - rosenhain.l2 * rosenhain.l3) * eps
            assert wp_scale_equal(igusa_clebsch(nf), ic_rich, r)
    _report(1, "richelot suite, both branches and sign sheets")


def test_criterion_02_point_map_identities(pencil):
    from prymkit.bpoly import MPoly

    rng = random.Random(19)
    quartics = [pencil.quartic, QuarticGenus1(UPoly((1, 0, Fraction(-25, 12), 0, 1)))]
    while len(quartics) < 52:
        cs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(5)]
        if cs[4] == 0:
            continue
        try:
            quartics.append(QuarticGenus1(UPoly(cs)))
        except ValueError:
            continue
    xb, yb = MPoly.var(0, 2), MPoly.var(1, 2)
    for q in quartics:
        r, r1, qq = hermite_polys(q)
        pb, pb0 = MPoly.from_upoly(q.p, 0, 2), MPoly.from_upoly(q.p, 1, 2)
        assert r * r + r1 * ((xb - yb) * (xb - yb)) - pb * pb0 == 0
        assert qq == q.p * q.p.derivative().derivative() * Fraction(1, 3) \
            - q.p.derivative() ** 2 * Fraction(1, 4)
        e = jacobian_of_quartic(q)
        assert discriminant(qq) == e.g**2 * discriminant(q.p)
        assert discriminant(q.p) == discriminant(UPoly((e.g, e.f, 0, 1)))
    _report(2, "point-map identities on the reference and 50 random quartics")


def test_criterion_03_fiber_inventories(cover, pencil):
    expected = {
        "shioda": ({"I0*": 2, "I2": 6}, build_shioda(cover)),
        "kummer12": ({"I2": 12}, build_kummer12(cover)),
        "dual_kummer": ({"I4": 4, "I1": 8}, build_dual_kummer(cover)),
        "pencil_jac": ({"I2": 12}, build_pencil_jac(pencil)),
        "pencil_dual": ({"I4": 4, "I1": 8}, build_pencil_dual(pencil)),
    }
    for name, (want, fam) in expected.items():
        reports = classify_fibers(fam)
        assert fiber_inventory(reports) == want, name
        assert total_ord_delta(reports) == 24, name
    _report(3, "fiber inventories of all five families")


def test_criterion_04_identification(cover):
    quartic = QuarticGenus1(UPoly((1, 0, -cover.lam1, 0, 1)))
    km = build_kummer12(cover)
    for variant in ("k15", "k23"):
        coeffs = normal_form_coeffs(cover, variant)
        e, f = moduli_ef(coeffs)
        base = PencilParams.create(quartic, -e / (3 * cover.ell), -f / (3 * cover.ell))
        jac = build_pencil_jac(base)
        sn = sqrt_exact(base.ip.norm)
        assert sn is not None
        matches = [
            c
            for c in (Fraction(1) / (2 * sn), Fraction(-1) / (2 * sn))
            if (jac.twist(c).a2, jac.twist(c).a4, jac.twist(c).a6)
            == (km.a2, km.a4, km.a6)
        ]
        assert matches, variant
    # the verbatim duplicated modulus leaves no fibration to compare against
    with pytest.raises((ValueError, ZeroDivisionError)):
        build_kummer12_lams(cover.lam1, cover.lam2, cover.lam2)
    _report(4, "moduli identification; duplicated third modulus rejected")


def test_criterion_05_isogeny_pair(cover, pencil):
    jac = build_pencil_jac(pencil)
    dual = build_pencil_dual(pencil)
    img = velu2(jac)
    assert (img.a2, img.a4, img.a6) == (dual.a2, dual.a4, dual.a6)
    assert jac.disc_cubic() * Fraction(2**18) == pencil.delta_z
    pulled = pullback_double_base(build_shioda(cover))
    km = build_kummer12(cover)
    assert (pulled.a2, pulled.a4, pulled.a6) == (km.a2, km.a4, km.a6)
    _report(5, "two-isogeny pair, discriminant ratio, base change")


def test_criterion_06_pencil_members(pencil, rosenhain):
    assert classify_member(pencil, 1).kind == "SmoothGenus3"
    assert quartic_singular_points(build_member_generic(pencil, 1)) == []
    rich = richelot_from_goepel(rosenhain, G_PRIME)
    for t in (3, 4):
        assert classify_member(pencil, t).kind == "ReducibleLinePlusGenus2"
        ng = node_genus2(pencil, t)
        assert wp_equal(igusa_clebsch(ng), igusa_clebsch(rich))
        assert wp_equal(igusa_clebsch(ng), igusa_clebsch(nodal_target(pencil)))
    for place, _ in squarefree_places(pencil.octic):
        assert classify_place(pencil, place).kind == "IrreducibleOneNodeGenus2"
    # hyperelliptic members: t = 0 with the exact involution invariance
    assert classify_member(pencil, 0).kind == "SmoothHyperelliptic"
    pairs = hyperelliptic_pairings(pencil)
    assert any(
        rp(Fraction(0)) == 0 and hyperelliptic_invariance(pencil, pairing, UPoly.x())
        for pairing, rp in pairs
    )
    # the full hyperelliptic locus is t (t^4 - l1 l2 l3); its quadratic
    # places carry the involution exactly as well
    br = bracket(pencil.p, pencil.q)
    assert br == UPoly((0, 14112, 0, 0, 0, -98))  # -98 t (t^4 - 144)
    for place_coeffs in ((-12, 0, 1), (12, 0, 1)):
        place = UPoly(place_coeffs)
        assert valuation(br, place) == 1
        assert any(
            valuation(rp, place) > 0 and hyperelliptic_invariance(pencil, pairing, place)
            for pairing, rp in pairs
        )
    rs = [rp for _, rp in pairs]
    assert rs[0] * rs[1] * rs[2] * pencil.p.lead**3 == br * -4
    _report(6, "member classes, nodal normalization, hyperelliptic involutions")


@pytest.mark.xfail(
    strict=True,
    reason="the stated rational hyperelliptic parameters t = +-12 satisfy "
    "t^2 = l1 l2 l3, but the locus is t^4 = l1 l2 l3 (together with t = 0 "
    "and t = infinity): the quoted values square the true ones",
)
def test_criterion_06_literal_hyperelliptic_at_twelve(pencil):
    assert classify_member(pencil, 12).kind == "SmoothHyperelliptic"
    assert classify_member(pencil, -12).kind == "SmoothHyperelliptic"


def test_criterion_07_resultant_identity(pencil):
    rng = random.Random(23)
    p, q = pencil.p, pencil.q
    br = bracket(p, q)
    dp = discriminant(p)
    s = pencil.s
    pairs = []
    while len(pairs) < 20:
        a, b = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9))
        f = p * a + q * b
        if f and f.degree >= 1:
            pairs.append((a, b))
    for root, _ in squarefree_places(UPoly((s.g, s.f, 0, 1))):
        if root.degree == 1:
            pairs.append((-root.coeff(0), Fraction(1)))  # forces S(a/b) = 0
    zero_forced = 0
    for a, b in pairs:
        f = p * a + q * b
        lhs = resultant(f, br, formal=(f.degree, 6))
        rhs = Fraction(1, 2**8) * dp**3 * b**6 * s.rhs(a / b) ** 2
        assert lhs == rhs
        zero_forced += rhs == 0
    assert zero_forced >= 3
    _report(7, "resultant degeneration identity on 20 random pairs and the vanishing locus")


def test_criterion_08_genus5_suite(pencil, cover):
    qt1 = build_quadrics(pencil, Fraction(1))
    gamma_locus(qt1)  # asserts the 5x5 block factorization internally
    pts = rational_points8(qt1)
    assert len(pts) == 8
    assert all(all(v == 0 for v in qt1.evaluate(*p)) for p in pts)
    free1, _ = fixed_point_data(qt1)
    assert free1  # Delta_Z(1) != 0: the sign involution is free
    pr = prym_genus2(qt1)
    target = nodal_target(pencil)
    assert wp_equal(igusa_clebsch(pr), igusa_clebsch(target))
    r16 = 16 * (pencil.ip.gamma - pencil.ip.delta) * pencil.p(Fraction(1)) ** 2
    assert wp_scale_equal(igusa_clebsch(pr), igusa_clebsch(target), r16)
    nf, _ = isogenous_normal_form(cover, "k15")
    assert wp_equal(igusa_clebsch(pr), igusa_clebsch(nf))
    dual = build_pencil_dual(pencil)
    for t in (1, 5, Fraction(7, 3), Fraction(1, 2), -2):
        a2v, a4v, _ = dual.fiber(Fraction(t))
        assert bielliptic_quotient_j(pencil, t) == j_from_cubic(a2v, a4v)
    # over the one-node places the V,W-conics do collide (fixed points exist
    # after the base change to the place)
    from prymkit.verify import _conic_resultant

    res = _conic_resultant(pencil)
    octic = pencil.octic
    assert res * octic.lead == octic * res.lead
    _report(8, "quadric triple, rank locus, associated genus-2 curve, quotient j")


@pytest.mark.xfail(
    strict=True,
    reason="the quoted scale 32 (gamma-delta) P(x0)^2 is twice the exact "
    "one; 16 (gamma-delta) P(x0)^2 is verified in criterion 8",
)
def test_criterion_08_literal_scale_thirty_two(pencil):
    qt1 = build_quadrics(pencil, Fraction(1))
    pr = prym_genus2(qt1)
    target = nodal_target(pencil)
    r32 = 32 * (pencil.ip.gamma - pencil.ip.delta) * pencil.p(Fraction(1)) ** 2
    assert wp_scale_equal(igusa_clebsch(pr), igusa_clebsch(target), r32)


@pytest.mark.xfail(
    strict=True,
    reason="at a root of the quartic the V,W-conics acquire distinct double "
    "roots, so the sign involution stays free on the degenerate member; "
    "the stated iff holds only at smooth and one-node members",
)
def test_criterion_08_literal_fixed_points_at_reducible_member(pencil):
    free3, _ = fixed_point_data(build_quadrics(pencil, Fraction(3)))
    assert not free3


def test_criterion_09_degeneration_shadow(pencil):
    assert w14_epsilon_identity(pencil)
    r12, r13, r23, t0 = w14_resultants(pencil)
    sg = pencil.s.rhs(pencil.ip.gamma)
    sd = pencil.s.rhs(pencil.ip.delta)
    assert r12 == -t0
    assert r13 == t0
    assert r23 == t0 * (sg * sd)
    p1, p2, p3 = w14_factors(pencil)

    def mul(a, b):
        out = [UPoly() for _ in range(len(a) + len(b) - 1)]
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] = out[i + j] + u * v
        return out

    sext = mul(mul(p1, p2), p3)
    i2, i4, i6, i10 = igusa_clebsch_upoly(sext)
    br = bracket(pencil.p, pencil.q)
    assert gcd(i2, br).degree == 0
    i4.exact_div(br**2)
    i6.exact_div(br**2)
    i10.exact_div(br**6)
    _report(9, "degeneration identities and invariant divisibility")


@pytest.mark.xfail(
    strict=True,
    reason="the factor carrying S(gamma)S(delta) is the cubic-quadratic "
    "resultant, not the linear-cubic one; the corrected assignment is "
    "asserted in criterion 9",
)
def test_criterion_09_literal_resultant_assignment(pencil):
    r12, r13, r23, t0 = w14_resultants(pencil)
    sg = pencil.s.rhs(pencil.ip.gamma)
    sd = pencil.s.rhs(pencil.ip.delta)
    assert abs(r12(Fraction(1))) == abs((t0 * sg * sd)(Fraction(1)))


def test_criterion_10_elliptic_quotient_j(pencil, rosenhain):
    _, j_formula = bielliptic_h_and_e(rosenhain)
    g0 = build_member_generic(pencil, 0).affine_g()
    q0 = QuarticGenus1(g0)
    assert j_invariant(jacobian_of_quartic(q0)) == j_formula
    _report(10, "quotient member at t=0 has the split-cover j-invariant")


def test_criterion_11_height_table(pencil):
    ss = sections_from_aj(pencil)
    names = ["sigma", "T1", "T2", "T3", "S1", "S2", "S3"]
    secs = dict(zip(names, ss.all()))
    expected = {
        ("S1", "S1"): 4, ("S2", "S2"): 4, ("S3", "S3"): 4,
        ("S1", "S2"): 2, ("S1", "S3"): 2, ("S2", "S3"): 2,
    }
    for i, a in enumerate(names):
        for b in names[i:]:
            got = height_pairing(ss.model, secs[a], secs[b])
            assert got == Fraction(expected.get((a, b), 0)), (a, b, got)
    _report(11, "height-pairing matrix matches entry for entry")
