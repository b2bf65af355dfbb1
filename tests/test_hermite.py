import random
from fractions import Fraction

import pytest

from prymkit.upoly import UPoly, bracket, discriminant
from prymkit.bpoly import MPoly
from prymkit.hermite import (
    EllipticW,
    GenericQuartic,
    QuarticGenus1,
    abel_jacobi,
    correspondence,
    discriminant_mpoly,
    ec_add,
    ec_double,
    ec_mul,
    ec_neg,
    hermite_polys,
    j_from_cubic,
    j_invariant,
    jacobian_of_quartic,
)

x = UPoly.x()


def _random_quartic(rng):
    while True:
        cs = [Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for _ in range(5)]
        if cs[4] == 0:
            cs[4] = Fraction(1)
        try:
            return QuarticGenus1(UPoly(cs))
        except ValueError:
            continue


def test_jacobian_of_simple_quartic():
    q = QuarticGenus1(x**4 + 1)
    e = jacobian_of_quartic(q)
    assert (e.f, e.g) == (-4, 0)


def test_jacobian_of_even_quartic():
    lam = Fraction(25, 12)
    q = QuarticGenus1(UPoly((1, 0, -lam, 0, 1)))
    e = jacobian_of_quartic(q)
    assert e.f == -4 - lam**2 / 3
    assert e.g == Fraction(8, 3) * lam - Fraction(2, 27) * lam**3


def test_discriminant_preserved_on_random_quartics():
    rng = random.Random(3)
    for _ in range(50):
        q = _random_quartic(rng)
        e = jacobian_of_quartic(q)
        s_cubic = UPoly((e.g, e.f, 0, 1))
        assert discriminant(q.p) == discriminant(s_cubic)


def test_hermite_polys_identities():
    rng = random.Random(4)
    xb, yb = MPoly.var(0, 2), MPoly.var(1, 2)
    for _ in range(50):
        q = _random_quartic(rng)
        r, r1, qq = hermite_polys(q)
        # R(x, x) recovers the quartic
        assert r.to_upoly() == q.p
        # the factorization identity holds exactly
        pb, pb0 = MPoly.from_upoly(q.p, 0, 2), MPoly.from_upoly(q.p, 1, 2)
        assert r * r + r1 * ((xb - yb) * (xb - yb)) == pb * pb0
        # closed form of the companion quartic
        assert qq == q.p * q.p.derivative().derivative() * Fraction(1, 3) - \
            q.p.derivative() ** 2 * Fraction(1, 4)
        e = jacobian_of_quartic(q)
        assert discriminant(qq) == e.g**2 * discriminant(q.p)


def test_point_map_special_values():
    q = QuarticGenus1(UPoly.from_roots([1, 9, 2, 8]))
    base = (Fraction(0), Fraction(12))  # 1*9*2*8 = 144 = 12^2
    assert abel_jacobi(q, base, base) is None
    conj = (Fraction(0), Fraction(-12))
    img = abel_jacobi(q, base, conj)
    _, _, qq = hermite_polys(q)
    assert img[0] == -qq(Fraction(0)) / q.p(Fraction(0))
    assert img[1] == bracket(q.p, qq)(Fraction(0)) / (2 * Fraction(-12) ** 3)


def test_point_map_images_on_curve():
    q = QuarticGenus1(UPoly.from_roots([1, 9, 2, 8]))
    e = jacobian_of_quartic(q)
    pts = []
    from prymkit.rat import sqrt_exact

    for num in range(-60, 61):
        for den in (1, 2, 3):
            xv = Fraction(num, den)
            val = q.p(xv)
            w = sqrt_exact(val) if val >= 0 else None
            if w is not None and w != 0 and (xv, w) not in pts:
                pts.append((xv, w))
                pts.append((xv, -w))
    assert len(pts) >= 8
    base = pts[0]
    for pt in pts[1:24]:
        img = abel_jacobi(q, base, pt)
        assert img is None or e.contains(img)


def test_ramification_base_rejected():
    q = QuarticGenus1(UPoly.from_roots([1, 9, 2, 8]))
    with pytest.raises(ValueError, match="ramification"):
        abel_jacobi(q, (Fraction(1), Fraction(0)), (Fraction(0), Fraction(12)))


def test_correspondence_biquadratic():
    q = QuarticGenus1(UPoly.from_roots([1, 9, 2, 8]))
    x0 = Fraction(0)
    cor = correspondence(q, x0)
    assert cor.deg(0) == 2 and cor.deg(1) == 2
    # at x = x0 it reduces to -4 (xi P(x0) + Q(x0))
    _, _, qq = hermite_polys(q)
    assert cor.subs(1, x0).to_upoly() == UPoly((-4 * qq(x0), -4 * q.p(x0)))
    # matched point pairs annihilate it
    from prymkit.rat import sqrt_exact

    count = 0
    for xv in range(-30, 40):
        val = q.p(Fraction(xv))
        w = sqrt_exact(val) if val >= 0 else None
        if w is None or xv == 0:
            continue
        img = abel_jacobi(q, (x0, Fraction(12)), (Fraction(xv), w))
        assert cor(img[0], Fraction(xv)) == 0
        count += 1
    assert count >= 5


def test_correspondence_roots_are_the_two_sheets():
    q = QuarticGenus1(UPoly.from_roots([1, 9, 2, 8]))
    r, r1, _ = hermite_polys(q)
    x0 = Fraction(0)
    base = (x0, Fraction(12))
    from prymkit.rat import sqrt_exact

    for xv in range(2, 40):
        val = q.p(Fraction(xv))
        w = sqrt_exact(val) if val >= 0 else None
        if w is None or w == 0:
            continue
        plus = abel_jacobi(q, base, (Fraction(xv), w))
        minus = abel_jacobi(q, base, (Fraction(xv), -w))
        dx2 = (Fraction(xv) - x0) ** 2
        assert plus[0] + minus[0] == 4 * r(Fraction(xv), x0) / dx2
        assert plus[0] * minus[0] == -4 * r1(Fraction(xv), x0) / dx2


# Jacobian of (x^2-9)(x^2-16): rich in small rational points
ec = EllipticW(Fraction(-2353, 3), Fraction(227950, 27))


def _pts_on(e, generators=None):
    gens = generators or [
        (Fraction(-34, 3), Fraction(126)),
        (Fraction(29, 3), Fraction(42)),
        (Fraction(50, 3), Fraction(0)),
    ]
    out = {None}
    frontier = list(gens)
    for g in gens:
        assert e.contains(g)
    for _ in range(3):
        new = []
        for a in frontier:
            for b in list(out):
                s = ec_add(e, a, b)
                if s not in out:
                    out.add(s)
                    new.append(s)
        frontier = new
    return list(out)


def test_ec_group_law():
    pts = _pts_on(ec)
    assert len(pts) >= 5
    for p in pts:
        assert ec_add(ec, p, None) == p
        assert ec_add(ec, p, ec_neg(p)) is None
    rng = random.Random(6)
    for _ in range(60):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        lhs = ec_add(ec, ec_add(ec, a, b), c)
        rhs = ec_add(ec, a, ec_add(ec, b, c))
        assert lhs == rhs
        s = ec_add(ec, a, b)
        assert s is None or ec.contains(s)


def test_ec_doubling_consistency():
    pts = [p for p in _pts_on(ec) if p is not None and p[1] != 0]
    for p in pts[:5]:
        assert ec_double(ec, p) == ec_mul(ec, 2, p)
        assert ec_mul(ec, 3, p) == ec_add(ec, p, ec_double(ec, p))


def test_j_invariant_special_values():
    assert j_invariant(EllipticW(Fraction(-1), Fraction(0))) == 1728
    assert j_invariant(EllipticW(Fraction(0), Fraction(1))) == 0
    with pytest.raises(ValueError):
        EllipticW(Fraction(-3), Fraction(2))  # 4*27 = 108 = 27*4: singular


def test_j_from_cubic_matches_short_form():
    e = EllipticW(Fraction(-4), Fraction(1))
    assert j_from_cubic(Fraction(0), e.f, e.g) == j_invariant(e)


# -- the Hermite identities over Z[p0..p4] -------------------------------------------------


@pytest.fixture(scope="module")
def generic():
    return GenericQuartic.build()


def test_generic_identities_hold(generic):
    ids = generic.identities()
    assert [label for label, _, _ in ids] == [
        "biquadratic factor identity",
        "companion-quartic closed form",
        "companion discriminant relation",
        "Jacobian preserves the discriminant",
    ]
    for label, lhs, rhs in ids:
        assert lhs and lhs == rhs, label


def test_generic_data_specializes_to_each_quartic(generic):
    rng = random.Random(5)
    xb, yb = MPoly.var(0, 2), MPoly.var(1, 2)
    for _ in range(10):
        q = _random_quartic(rng)
        ps = q.coeffs()
        r, r1, qq = hermite_polys(q)
        assert generic.r(xb, yb, *ps) == r
        assert generic.r1(xb, yb, *ps) == r1
        e = jacobian_of_quartic(q)
        assert (generic.f(0, 0, *ps), generic.g(0, 0, *ps)) == (e.f, e.g)
        # the Bezoutian discriminant specializes to the resultant-based one
        assert discriminant_mpoly(generic.p, 4)(0, 0, *ps) == discriminant(q.p)
        assert discriminant_mpoly(generic.q, 4)(0, 0, *ps) == discriminant(qq)


def test_perturbed_generic_data_breaks_its_identity(generic):
    from dataclasses import replace

    from prymkit.jsonio import canonical

    def broken(gq):
        return [label for label, lhs, rhs in gq.identities() if canonical(lhs) != canonical(rhs)]

    # one coefficient of R: the x^2 y^2 p0 term
    bump = MPoly(7, {(2, 2, 1, 0, 0, 0, 0): 1})
    assert broken(replace(generic, r=generic.r + bump)) == ["biquadratic factor identity"]
    # one coefficient of g: the p2^3 term
    bump = MPoly(7, {(0, 0, 0, 0, 3, 0, 0): Fraction(1, 27)})
    assert broken(replace(generic, g=generic.g + bump)) == [
        "companion discriminant relation",
        "Jacobian preserves the discriminant",
    ]
