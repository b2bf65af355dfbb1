from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prymkit.upoly import UPoly
from prymkit.fibration import (
    INF_PLACE,
    WeierstrassFamily,
    build_dual_kummer,
    build_kummer12,
    build_kummer12_lams,
    build_pencil_dual,
    build_pencil_jac,
    build_shioda,
    classify_fibers,
    fiber_inventory,
    irreducible_reports,
    mu_nu_kappa,
    pullback_double_base,
    sections_from_aj,
    total_ord_delta,
    velu2,
)
from prymkit.hermite import jacobian_of_quartic, j_from_cubic


def test_shioda_inventory(cover):
    reports = classify_fibers(build_shioda(cover))
    assert fiber_inventory(reports) == {"I0*": 2, "I2": 6}
    assert total_ord_delta(reports) == 24
    at_zero = [r for r in reports if r.place != INF_PLACE and r.place == UPoly.x()]
    at_inf = [r for r in reports if r.place is INF_PLACE]
    assert at_zero[0].kodaira == "I0*" and at_inf[0].kodaira == "I0*"


def test_shioda_two_torsion_section(cover):
    fam = build_shioda(cover)
    assert fam.a6 == UPoly()  # (x, y) = (0, 0) satisfies the family


def test_kummer12_inventory(cover):
    reports = classify_fibers(build_kummer12(cover))
    assert fiber_inventory(reports) == {"I2": 12}
    assert total_ord_delta(reports) == 24


def test_dual_kummer_inventory(cover):
    reports = classify_fibers(build_dual_kummer(cover))
    assert fiber_inventory(reports) == {"I4": 4, "I1": 8}
    assert total_ord_delta(reports) == 24


def test_pencil_inventories(pencil):
    jac = build_pencil_jac(pencil)
    dual = build_pencil_dual(pencil)
    assert fiber_inventory(classify_fibers(jac)) == {"I2": 12}
    assert fiber_inventory(classify_fibers(dual)) == {"I4": 4, "I1": 8}
    assert total_ord_delta(classify_fibers(jac)) == 24
    assert total_ord_delta(classify_fibers(dual)) == 24


def test_degenerate_moduli_rejected(cover):
    with pytest.raises(ValueError):
        build_kummer12_lams(cover.lam1, cover.lam2, cover.lam2)


def test_base_change_squares(cover):
    pulled = pullback_double_base(build_shioda(cover))
    km = build_kummer12(cover)
    assert (pulled.a2, pulled.a4, pulled.a6) == (km.a2, km.a4, km.a6)


def test_velu2_reproduces_dual(pencil):
    jac = build_pencil_jac(pencil)
    dual = build_pencil_dual(pencil)
    img = velu2(jac)
    assert (img.a2, img.a4, img.a6) == (dual.a2, dual.a4, dual.a6)


def test_velu2_requires_two_torsion(cover):
    fam = build_dual_kummer(cover)
    shifted = WeierstrassFamily(fam.a2, fam.a4, UPoly.one(), var=fam.var)
    with pytest.raises(ValueError):
        velu2(shifted)


def test_velu2_twice_preserves_j(pencil):
    jac = build_pencil_jac(pencil)
    again = velu2(velu2(jac))
    dz = pencil.delta_z
    checked = 0
    for t in range(-8, 9):
        tv = Fraction(t)
        if dz(tv) == 0:
            continue
        a2a, a4a, a6a = jac.fiber(tv)
        a2b, a4b, a6b = again.fiber(tv)
        assert j_from_cubic(a2a, a4a, a6a) == j_from_cubic(a2b, a4b, a6b)
        checked += 1
    assert checked >= 10


def test_discriminant_ratio(pencil):
    jac = build_pencil_jac(pencil)
    # the cubic's discriminant is Delta/16, so disc * 2^18 = Delta * 2^14
    assert jac.delta * Fraction(2**14) == pencil.delta_z


def test_delta_z_is_the_fiber_discriminant(pencil):
    from prymkit.upoly import discriminant

    dz = pencil.delta_z
    for t in (Fraction(1), Fraction(5), Fraction(-7, 2)):
        g = pencil.b.subs(1, t).to_upoly() ** 2 - pencil.p * (4 * pencil.csq * pencil.p(t))
        assert discriminant(g) == dz(t)


def test_classification_table_small_cases():
    t = UPoly.x()

    def types_of(fam):
        out = {}
        for r in classify_fibers(fam):
            key = "inf" if r.place is INF_PLACE else tuple(r.place.c)
            out[key] = (r.kodaira, r.ord_delta)
        return out

    # y^2 = x^3 + t x^2 + t^2 x: (v(c4), v(c6), v(Delta)) = (2, 3, 6) at t = 0
    star = types_of(WeierstrassFamily(t, UPoly((0, 0, 1)), UPoly(), var="t"))
    assert star[(Fraction(0), Fraction(1))][0] == "I0*"

    # y^2 = x^3 + t: type II at t = 0, II* at infinity after minimalization
    cusp = types_of(WeierstrassFamily(UPoly(), UPoly(), t, var="t"))
    assert cusp[(Fraction(0), Fraction(1))] == ("II", 2)
    assert cusp["inf"] == ("II*", 22)

    # y^2 = x^3 + t x^2 + t^3 x: (v(c4), v(c6), v(Delta)) = (2, 3, 8), type I2*
    star2 = types_of(WeierstrassFamily(t, UPoly((0, 0, 0, 1)), UPoly(), var="t"))
    assert star2[(Fraction(0), Fraction(1))] == ("I2*", 8)

    # y^2 = x^3 + t^2 x^2 + t x: v(c4) = 1 and v(Delta) = 3 give type III
    third = types_of(WeierstrassFamily(UPoly((0, 0, 1)), t, UPoly(), var="t"))
    assert third[(Fraction(0), Fraction(1))][0] == "III"


def test_torsion_sections_satisfy_family(pencil):
    ss = sections_from_aj(pencil)
    for sec in (ss.t1, ss.t2, ss.t3, ss.s1, ss.s2, ss.s3):
        assert ss.model.section_on(sec.x, sec.y)
        assert sec.y.num == UPoly() or sec.name.startswith("S")


def test_section_degrees(pencil):
    ss = sections_from_aj(pencil)
    for sec in (ss.s1, ss.s2, ss.s3):
        assert sec.x.is_poly() and sec.y.is_poly()
        assert sec.x.num.degree <= 4 and sec.y.num.degree <= 6


def test_classification_matches_direct_fiber_counting(cover, pencil):
    from prymkit.upoly import gcd

    fams = (
        build_shioda(cover),
        build_kummer12(cover),
        build_dual_kummer(cover),
        build_pencil_jac(pencil),
        build_pencil_dual(pencil),
    )
    for fam in fams:
        # one report per irreducible place, so that every rational place is
        # tested, also one that the basis groups into an element of higher degree
        reports = irreducible_reports(classify_fibers(fam))
        for r in reports:
            if r.place is INF_PLACE or r.place.degree != 1:
                continue
            tv = -r.place.coeff(0)
            a2v, a4v, a6v = fam.fiber(tv)
            cubic = UPoly((a6v, a4v, a2v, 1))
            rep = gcd(cubic, cubic.derivative())
            if r.kodaira.startswith("I") and "*" not in r.kodaira and r.kodaira != "I0":
                assert rep.degree == 1  # multiplicative: exactly one fiber node
            if r.kodaira == "I0*":
                assert rep.degree >= 1  # additive: the fiber degenerates too
        smooth = 0
        for t in range(10, 25):
            if fam.delta(Fraction(t)) != 0:
                a2v, a4v, a6v = fam.fiber(Fraction(t))
                cubic = UPoly((a6v, a4v, a2v, 1))
                assert gcd(cubic, cubic.derivative()).degree == 0
                smooth += 1
            if smooth >= 5:
                break
        assert smooth >= 5


def test_mu_nu_kappa_norm_identity(pencil):
    s = jacobian_of_quartic(pencil.quartic)
    ip = mu_nu_kappa(s, Fraction(1, 2), Fraction(-3))
    assert ip.norm == s.rhs(Fraction(1, 2)) * s.rhs(Fraction(-3))
    assert ip.nu == (Fraction(1, 2) + 3) ** 2 / 2
    with pytest.raises(ValueError, match="reducible"):
        mu_nu_kappa(s, Fraction(2), Fraction(2))


def test_torsion_abscissas(pencil):
    from prymkit.rat import sqrt_exact

    ip = pencil.ip
    p, q = pencil.p, pencil.q
    m = p * ip.mu + q * ip.nu
    sn = sqrt_exact(ip.norm)
    ss = sections_from_aj(pencil)
    # on the section model the nonzero 2-torsion abscissas are -8(M +- sqrt(norm) P)
    assert ss.t2.x.num == (m + p * sn) * -8
    assert ss.t3.x.num == (m - p * sn) * -8


# -- the gcd-free basis against sympy ----------------------------------------------------

MODULI = (
    ("9,2,8", "3", "4"),
    ("9,16,36", "3", "24"),
    ("25,8,18", "5", "12"),
    ("49,5,45", "7", "15"),
    ("49,7,28", "7", "14"),
    ("49,10,40", "7", "20"),
    ("49,18,32", "7", "24"),
)


def _sympy_poly(p, t):
    import sympy

    return sympy.Poly([sympy.Rational(a.numerator, a.denominator) for a in reversed(p.c)] or [0], t)


def _sympy_valuation(c, f):
    if c.is_zero:
        return 1 << 20
    v = 0
    while True:
        q, r = c.div(f)
        if not r.is_zero:
            return v
        c, v = q, v + 1


def _basis_problems(fam):
    """Check the finite reports of classify_fibers as a gcd-free basis of the
    bad places against sympy's factorization; returns a list of problems."""
    import sympy

    from prymkit.fibration import _kodaira_from_valuations
    from prymkit.upoly import gcd as ugcd

    t = sympy.Symbol("t")
    reports = [r for r in classify_fibers(fam) if r.place is not INF_PLACE]
    out = []
    prod = UPoly.one()
    for i, r in enumerate(reports):
        b = r.place
        if b.lead != 1 or r.mult != b.degree:
            out.append(f"{b}: not monic or mult {r.mult} != degree")
        if ugcd(b, b.derivative()).degree:
            out.append(f"{b}: not squarefree")
        for other in reports[i + 1:]:
            if ugcd(b, other.place).degree:
                out.append(f"{b}, {other.place}: not coprime")
        prod = prod * b**r.ord_delta
        c4, c6, delta = (_sympy_poly(p, t) for p in (fam.c4(), fam.c6(), fam.delta))
        _, factors = sympy.factor_list(_sympy_poly(b, t).as_expr(), t)
        triples = set()
        for f, _ in factors:
            f = sympy.Poly(f, t)
            triples.add(tuple(_sympy_valuation(c, f) for c in (c4, c6, delta)))
        if len(triples) != 1:
            out.append(f"{b}: factors with different valuations {triples}")
            continue
        (vc4, vc6, vd), = triples
        if vd != r.ord_delta or _kodaira_from_valuations(vc4, vc6, vd) != r.kodaira:
            out.append(f"{b}: report ({r.kodaira}, {r.ord_delta}) but valuations {triples}")
    if prod != fam.delta.monic():
        out.append("the basis does not reassemble Delta")
    return out


@pytest.mark.parametrize("moduli", MODULI, ids=[m[0].replace(",", "_") for m in MODULI])
def test_fiber_basis_against_sympy(moduli):
    pytest.importorskip("sympy")
    from prymkit.verify import RunConfig

    lam, k15, k23 = moduli
    lambdas = tuple(Fraction(v) for v in lam.split(","))
    for variant in ("k15", "k23"):
        cfg = RunConfig(lambdas, Fraction(k15), Fraction(k23), variant)
        for name, fam in cfg.families.items():
            assert _basis_problems(fam) == [], (moduli, variant, name)


SMALL = (UPoly((0, 1)), UPoly((-1, 1)), UPoly((2, 1)), UPoly((1, 0, 1)), UPoly((-2, 0, 1)))


@st.composite
def _small_products(draw, max_degree):
    acc = UPoly.const(draw(st.sampled_from((1, -1, 2, Fraction(1, 3)))))
    for f in draw(st.lists(st.sampled_from(SMALL), max_size=6)):
        if acc.degree + f.degree <= max_degree:
            acc = acc * f
    return acc


@settings(max_examples=40, deadline=None)
@given(_small_products(4), _small_products(8), _small_products(12), st.booleans())
def test_fiber_basis_on_random_products(a2, a4, a6, drop_a6):
    pytest.importorskip("sympy")
    try:
        fam = WeierstrassFamily(a2, a4, UPoly() if drop_a6 else a6)
    except ValueError:
        return  # identically singular
    assert _basis_problems(fam) == []


def test_irreducible_reports_are_the_factored_reports(cover, pencil):
    """Splitting the basis reports gives, place by place and in order, the
    reports of classifying each irreducible factor of Delta directly."""
    from prymkit.factorq import squarefree_places
    from prymkit.fibration import _kodaira_from_valuations
    from prymkit.upoly import valuation

    for fam in (build_shioda(cover), build_kummer12(cover), build_dual_kummer(cover),
                build_pencil_jac(pencil), build_pencil_dual(pencil)):
        c4, c6 = fam.c4(), fam.c6()
        direct = [
            (f, _kodaira_from_valuations(valuation(c4, f), valuation(c6, f), m), m, f.degree)
            for f, m in squarefree_places(fam.delta)
        ]
        basis = classify_fibers(fam)
        split = irreducible_reports(basis)
        finite = [(r.place, r.kodaira, r.ord_delta, r.mult) for r in split[:len(direct)]]
        assert finite == direct
        assert split[len(direct):] == [r for r in basis if r.place is INF_PLACE]


def test_basis_splits_a_squarefree_component_by_type():
    # Delta has t (t - 1) to the second power, but c4 vanishes only at t = 0:
    # type II there and I2 at t = 1, two basis elements from one Yun component
    t = UPoly.x()
    fam = WeierstrassFamily(t, t * t - t, t * (t - 1) ** 2)
    got = {(r.place, r.kodaira, r.ord_delta) for r in classify_fibers(fam)
           if r.place is not INF_PLACE and r.ord_delta == 2}
    assert got == {(t, "II", 2), (t - 1, "I2", 2)}
    assert _basis_problems(fam) == []
