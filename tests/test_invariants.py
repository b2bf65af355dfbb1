"""Invariant machinery against the independent symmetric-function oracle."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from prymkit.upoly import UPoly
from prymkit.invariants import (
    IgusaClebsch, _kernel, _table, igusa_clebsch, igusa_clebsch_upoly, transvectant, wp_equal,
    wp_scale_equal,
)
from prymkit.genus2 import Genus2Curve, igusa_clebsch as ic_curve, rosenhain_curve


# -- the oracle: invariants from root differences --------------------------------
#
# For a split form lc * prod (x - r_i), with projective points (r_i : 1) and
# optionally (1 : 0), the four invariants are the classical symmetric sums of
# squared brackets over pairings, triple splits, and the full difference
# product.  This is computed straight from the definition, independently of
# the transvectant path it checks.


def _pairings(items):
    if not items:
        yield []
        return
    a = items[0]
    for k in range(1, len(items)):
        rest = [e for e in items[1:] if e != items[k]]
        for sub in _pairings(rest):
            yield [(a, items[k])] + sub


def oracle_ic_from_roots(roots, lead, with_infinity=False):
    pts = [(r, Fraction(1)) for r in roots]
    if with_infinity:
        pts.append((Fraction(1), Fraction(0)))
    assert len(pts) == 6

    def br(i, j):
        return pts[i][0] * pts[j][1] - pts[j][0] * pts[i][1]

    idx = list(range(6))
    i2 = sum(
        br(a, b) ** 2 * br(c, d) ** 2 * br(e, f) ** 2
        for (a, b), (c, d), (e, f) in _pairings(idx)
    )
    trips = set()
    for c3 in itertools.combinations(idx, 3):
        rest = tuple(sorted(set(idx) - set(c3)))
        trips.add(tuple(sorted((tuple(sorted(c3)), rest))))
    assert len(trips) == 10

    def tri(t):
        a, b, c = t
        return (br(a, b) * br(b, c) * br(c, a)) ** 2

    i4 = sum(tri(t1) * tri(t2) for t1, t2 in trips)
    i6 = Fraction(0)
    for t1, t2 in trips:
        for perm in itertools.permutations(t2):
            i6 += (
                tri(t1)
                * tri(t2)
                * br(t1[0], perm[0]) ** 2
                * br(t1[1], perm[1]) ** 2
                * br(t1[2], perm[2]) ** 2
            )
    i10 = Fraction(1)
    for i, j in itertools.combinations(idx, 2):
        i10 *= br(i, j) ** 2
    return (
        lead**2 * i2,
        lead**4 * i4,
        lead**6 * i6,
        lead**10 * i10,
    )


GOLDEN = (
    Fraction(19510),
    Fraction(2071120),
    Fraction(13458945120),
    Fraction(114709561344),
)


def test_golden_fixture_against_oracle(rosenhain):
    curve = rosenhain_curve(rosenhain)
    got = ic_curve(curve).as_tuple()
    oracle = oracle_ic_from_roots(
        [Fraction(0), Fraction(1), Fraction(9), Fraction(2), Fraction(8)],
        Fraction(1),
        with_infinity=True,
    )
    assert got == oracle == GOLDEN


def test_oracle_matches_on_random_split_sextics():
    rng = random.Random(11)
    for _ in range(6):
        roots = []
        while len(set(roots)) < 6:
            roots = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)
            ]
        lead = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        f = UPoly.from_roots(roots, lead)
        assert igusa_clebsch(list(f.c)).as_tuple() == oracle_ic_from_roots(roots, lead)


def test_i10_vanishes_exactly_on_repeated_roots():
    f = UPoly.from_roots([1, 1, 2, 3, 4, 5])
    assert igusa_clebsch(list(f.c)).i10 == 0
    g = UPoly.from_roots([1, 2, 3, 4, 5, 6])
    assert igusa_clebsch(list(g.c)).i10 != 0


def _moebius_sextic(f: UPoly, a, b, c, d) -> UPoly:
    """(c xi + d)^6 f((a xi + b)/(c xi + d)) via the homogenized coefficients."""
    cs = [f.coeff(i) for i in range(7)]
    num = UPoly((b, a))
    den = UPoly((d, c))
    out = UPoly()
    for i, cf in enumerate(cs):
        if cf:
            out = out + num**i * den ** (6 - i) * cf
    return out


def test_moebius_invariance_weighted_class(rosenhain):
    rng = random.Random(5)
    curve = rosenhain_curve(rosenhain)
    base = ic_curve(curve)
    checked = 0
    while checked < 50:
        a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        c, d = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        if a * d - b * c == 0:
            continue
        g = _moebius_sextic(curve.f, a, b, c, d)
        if g.degree not in (5, 6):
            continue
        try:
            other = ic_curve(Genus2Curve(g))
        except ValueError:
            continue
        assert wp_equal(base, other)
        checked += 1


def test_translation_keeps_the_class(rosenhain):
    curve = rosenhain_curve(rosenhain)
    shifted = Genus2Curve(curve.f.shift(7))
    assert wp_equal(ic_curve(curve), ic_curve(shifted))


def test_scaling_covariance():
    f = UPoly.from_roots([0, 1, 2, 3, 4, 5])
    a = igusa_clebsch(list(f.c))
    b = igusa_clebsch(list((f * Fraction(9)).c))
    assert wp_scale_equal(b, a, 9)
    assert wp_equal(b, a)


def test_wp_scale_equal_basics():
    f = UPoly.from_roots([0, 1, 2, 3, 4, 5])
    a = igusa_clebsch(list(f.c))
    assert wp_scale_equal(a, a, 1)
    scaled = type(a)(a.i2 * 9, a.i4 * 81, a.i6 * 729, a.i10 * 3**10)
    assert wp_scale_equal(scaled, a, 3)
    assert wp_equal(scaled, a)


def test_wp_equal_zero_branch():
    a = IgusaClebsch(Fraction(0), Fraction(2), Fraction(3), Fraction(5))
    b = IgusaClebsch(Fraction(0), Fraction(2 * 16), Fraction(3 * 64), Fraction(5 * 2**10))
    assert wp_equal(a, b)
    c = IgusaClebsch(Fraction(1), Fraction(2), Fraction(3), Fraction(5))
    assert not wp_equal(a, c)


def test_wp_equal_needs_one_scale_for_i6_and_i10():
    # I4 gives r^4 = 1, I6 gives r^6 = 1 so r^2 = 1, and then I10 needs r^10 = -1
    a = IgusaClebsch(Fraction(0), Fraction(1), Fraction(1), Fraction(1))
    b = IgusaClebsch(Fraction(0), Fraction(1), Fraction(1), Fraction(-1))
    assert not wp_equal(a, b)
    assert not wp_equal(b, a)


def test_wp_equal_with_i2_takes_rho_from_it():
    # I2 fixes rho = 2; q4 = rho^2 holds, but q6 = -rho^3 does not
    a = IgusaClebsch(Fraction(2), Fraction(4), Fraction(-8), Fraction(32))
    b = IgusaClebsch(Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    assert not wp_equal(a, b)
    assert not wp_equal(b, a)


@pytest.mark.parametrize("rho", [Fraction(-4), Fraction(3, 2)])
def test_wp_equal_without_i2_finds_the_scale_minus_rho(rho):
    # q4 = rho^2, q6 = -rho^3 and q10 = -rho^5 all hold for the scale -rho
    b = IgusaClebsch(Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(11, 2))
    a = IgusaClebsch(Fraction(0), rho**2 * b.i4, -rho**3 * b.i6, -rho**5 * b.i10)
    assert wp_equal(a, b)
    assert wp_equal(b, a)
    if rho == -4:
        assert wp_scale_equal(a, b, 2)


# -- transvectant kernels against their tables ---------------------------------


def _by_table(f, g, m, n, r):
    out = [0] * (m + n - 2 * r + 1)
    for s, p, q, w in _table(m, n, r):
        out[s] += w * f[p] * g[q]
    return out


def test_transvectant_kernels_against_their_tables():
    rng = random.Random(19)

    def ints(k):
        return [rng.getrandbits(64) - 2**63 for _ in range(k)]

    _kernel.cache_clear()
    orders = [(m, n, r) for m in range(7) for n in range(7) for r in range(min(m, n) + 1)]
    for m, n, r in orders:
        for _ in range(2):
            f, g = ints(m + 1), ints(n + 1)
            got = transvectant(f, g, m, n, r)
            assert got == _by_table(f, g, m, n, r), (m, n, r)
            assert transvectant(f, g, m, n, r) is not got
        if m == n:
            f = ints(m + 1)
            want = _by_table(f, f, m, n, r)
            assert transvectant(f, f, m, n, r) == transvectant(f, list(f), m, n, r) == want
    # one kernel per order triple, and one more per form paired with itself
    info = _kernel.cache_info()
    assert info.misses == info.currsize == len(orders) + sum(m == n for m, n, _ in orders)


def test_transvectant_rejects_wrong_lengths_and_orders():
    with pytest.raises(ValueError):
        transvectant([1, 2, 3], [1, 2, 3, 4, 5], 4, 4, 2)
    with pytest.raises(ValueError):
        transvectant([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5], 4, 4, 2)
    f = [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        transvectant(f, f, 4, 4, 2)
    with pytest.raises(ValueError):
        transvectant(f, f, 5, 4, 2)
    with pytest.raises(ValueError):
        transvectant([1, 2, 3], [1, 2, 3], 2, 2, 3)


invariant_values = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-20, max_value=20, max_denominator=5)
)
nonzero_rho = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)


def _scale(a, rho):
    """The tuple r . a with r^2 = rho: I_k is multiplied by rho^(k/2)."""
    return IgusaClebsch(a.i2 * rho, a.i4 * rho**2, a.i6 * rho**3, a.i10 * rho**5)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[invariant_values] * 4), nonzero_rho)
def test_wp_equal_against_the_definition(vals, rho):
    from dataclasses import replace

    a = IgusaClebsch(*vals)
    b = _scale(a, rho)
    assert wp_equal(a, b) and wp_equal(b, a)
    # a sign flip of I6 alone is the scale rho = -1 exactly when I2 = I10 = 0;
    # otherwise rho^3 = -1 contradicts rho = 1 (from I2) or rho^5 = 1 (from I10)
    if a.i6 != 0:
        assert wp_equal(a, replace(b, i6=-b.i6)) == (a.i2 == 0 and a.i10 == 0)
    # likewise for I10, whose flip clashes with I2 (rho = 1) or I6 (rho^3 = 1)
    if a.i10 != 0:
        assert wp_equal(a, replace(b, i10=-b.i10)) == (a.i2 == 0 and a.i6 == 0)


def _w14_sextic(pencil):
    """The genus-5 suite's sextic over Q[t]: the product of the w14 factors."""
    import prymkit.genus5 as g5

    p1, p2, p3 = g5.w14_factors(pencil)

    def mul(a, b):
        out = [UPoly() for _ in range(len(a) + len(b) - 1)]
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] = out[i + j] + u * v
        return out

    return mul(mul(p1, p2), p3)


def _wp_equal_by_gcd(a, b):
    """Equality in P(2,4,6,10) by sympy: a scale rho = r^2 with
    I_k(a) = rho^(k/2) I_k(b) exists over the algebraic closure iff the zero
    patterns agree and the polynomials X^w - I(a)/I(b), over the nonzero
    invariants of weight w = k/2, have a common root."""
    sympy = pytest.importorskip("sympy")
    X = sympy.symbols("X")
    g = sympy.Integer(0)
    for x, y, w in zip(a.as_tuple(), b.as_tuple(), (1, 2, 3, 5)):
        if (x == 0) != (y == 0):
            return False
        if x != 0:
            g = sympy.gcd(g, X**w - _sym_rat(Fraction(x) / Fraction(y)))
    return g == 0 or sympy.degree(g, X) > 0


def test_wp_equal_against_a_brute_force_reference():
    """All 16 zero patterns, for scaled pairs and for pairs with one entry
    perturbed, rho = -1 among the scales."""
    from dataclasses import replace

    rng = random.Random(53)
    names = ("i2", "i4", "i6", "i10")
    verdicts = {True: 0, False: 0}
    for mask in range(16):
        vals = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 6))
                if mask >> k & 1 else Fraction(0) for k in range(4)]
        a = IgusaClebsch(*vals)
        for rho in (Fraction(-1), Fraction(4), Fraction(-2, 3)):
            b = _scale(a, rho)
            assert wp_equal(a, b) and wp_equal(b, a), (a, rho)
            assert _wp_equal_by_gcd(a, b)
            for name in names:
                v = getattr(b, name)
                for moved in (-v, 2 * v, Fraction(0) if v else Fraction(3)):
                    c = replace(b, **{name: moved})
                    want = _wp_equal_by_gcd(a, c)
                    assert wp_equal(a, c) == want == _wp_equal_by_gcd(c, a), (a, c)
                    assert wp_equal(c, a) == want, (a, c)
                    verdicts[want] += 1
    # both verdicts occur among the perturbed pairs
    assert verdicts[True] and verdicts[False]


def test_parametric_invariants_match_specialization(pencil):
    sext = _w14_sextic(pencil)
    i2, i4, i6, i10 = igusa_clebsch_upoly(sext)
    for t in (Fraction(1), Fraction(5), Fraction(-1, 2)):
        spec = igusa_clebsch([c(t) for c in sext])
        assert (i2(t), i4(t), i6(t), i10(t)) == spec.as_tuple()


# -- sympy oracles: transvectants from their definition -----------------------------


def _sym_rat(c):
    sympy = pytest.importorskip("sympy")
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def _sym_poly(p, t):
    return sum(_sym_rat(a) * t**i for i, a in enumerate(p.c))


def _sym_form(coeffs, m, gens):
    """The binary form sum c_i x^i y^(m-i) as a sympy Poly in gens = (x, y, ...)."""
    sympy = pytest.importorskip("sympy")
    x, y = gens[:2]
    return sympy.Poly(sum(c * x**i * y ** (m - i) for i, c in enumerate(coeffs)), *gens, domain="QQ")


def _sym_transvectant(f, g, r, x, y):
    """sum_k (-1)^k C(r, k) d^r f/dx^(r-k) dy^k * d^r g/dx^k dy^(r-k)."""
    sympy = pytest.importorskip("sympy")
    total = f * 0
    for k in range(r + 1):
        total += (-1) ** k * int(sympy.binomial(r, k)) * f.diff((x, r - k), (y, k)) * g.diff((x, k), (y, r - k))
    return total


def _sym_ic246(f, x, y):
    """(I2, I4, I6) of the sextic form f from normalized sympy transvectants,
    as expressions."""
    sympy = pytest.importorskip("sympy")

    def tv(a, b, m, n, r):
        norm = sympy.Rational(factorial(m - r) * factorial(n - r), factorial(m) * factorial(n))
        return _sym_transvectant(a, b, r, x, y) * norm

    i = tv(f, f, 6, 6, 4)
    a = tv(f, f, 6, 6, 6)
    b = tv(i, i, 4, 4, 4)
    c = tv(i, tv(i, i, 4, 4, 2), 4, 4, 4)
    return [e.as_expr() for e in (a * -120, a**2 * -720 + b * 6750,
                                  a**3 * 8640 + a * b * -108000 + c * 202500)]


def _as_fraction(v):
    return Fraction(int(v.p), int(v.q))


def test_transvectant_matches_the_definition():
    sympy = pytest.importorskip("sympy")
    from prymkit.invariants import transvectant

    x, y = sympy.symbols("x y")
    rng = random.Random(23)
    # unequal orders tell the roles of f and g apart
    for m, n in ((6, 6), (4, 4), (6, 4), (4, 6), (5, 3), (2, 6)):
        f = [rng.randint(-30, 30) for _ in range(m + 1)]
        g = [rng.randint(-30, 30) for _ in range(n + 1)]
        pairs = ((f, f), (f, g)) if m == n else ((f, g),)
        for r in range(min(m, n) + 1):
            for a, b in pairs:
                got = transvectant(a, b, m, n, r)
                assert all(type(v) is int for v in got)
                want = _sym_transvectant(_sym_form(a, m, (x, y)), _sym_form(b, n, (x, y)), r, x, y)
                order = m + n - 2 * r
                assert got == [want.coeff_monomial(x**i * y ** (order - i)) for i in range(order + 1)]
    with pytest.raises(ValueError):
        transvectant([1, 0, 1], [1] * 7, 2, 6, 3)


def _binary_discriminant(f, x):
    """Discriminant of the polynomial f (coefficients ascending) read as a
    binary sextic, by sympy."""
    sympy = pytest.importorskip("sympy")
    p = sympy.Poly([_sym_rat(c) for c in reversed(f)], x)
    d = p.degree()
    if d <= 4:
        return sympy.Integer(0)
    disc = sympy.discriminant(p)
    return disc if d == 6 else disc * p.LC() ** 2


def test_igusa_clebsch_matches_sympy_transvectants():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    rng = random.Random(31)
    forms = []
    for deg in range(7):
        for _ in range(2):
            f = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
            f.append(Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), rng.randint(1, 6)))
            forms.append(f)
    # an int sextic with the double root x = 1, and its image under
    # x -> x/(x + 1), which moves that root to infinity: a quartic, I10 = 0
    forms += [[3, -5, 3, -2, 1, -1, 1], [3, 13, 23, 20, 8]]
    for f in forms:
        want = _sym_ic246(_sym_form([_sym_rat(c) for c in f], 6, (x, y)), x, y)
        want.append(_binary_discriminant(f, x))
        want = tuple(_as_fraction(v) for v in want)
        for arg in (f, UPoly(f)):
            assert igusa_clebsch(arg).as_tuple() == want, (f, arg)
    with pytest.raises(ValueError):
        igusa_clebsch(UPoly.monomial(7))


def test_igusa_clebsch_upoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x, y, t = sympy.symbols("x y t")
    rng = random.Random(37)

    def row(d):
        return UPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
                     + [Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))])

    sextics = [
        # rows of unequal t-degree
        [row(rng.randint(0, 2)) for _ in range(6)] + [row(1)],
        # h = 0: constant rows
        [row(0) for _ in range(7)],
        # the leading coefficient (t - 2)(t + 1) vanishes at the node t = 2
        [UPoly([0, 1])] + [row(rng.randint(0, 1)) for _ in range(5)] + [UPoly([-2, -1, 1])],
    ]
    for cs in sextics:
        got = igusa_clebsch_upoly(cs)
        form = _sym_form([_sym_poly(c, t) for c in cs], 6, (x, y, t))
        want = _sym_ic246(form, x, y)
        want.append(sympy.discriminant(form.as_expr().subs(y, 1), x))
        for g, w in zip(got, want):
            coeffs = [_as_fraction(v) for v in reversed(sympy.Poly(w, t).all_coeffs())]
            assert list(g.c) == (coeffs if any(coeffs) else []), cs


def _random_forms(rng, bits, den):
    """Sextics and quintics with coefficients of the given bit size over a
    denominator up to den; a few have zero middle coefficients."""
    forms = []
    for deg in (6, 5):
        for k in range(6):
            f = [Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, den)) for _ in range(deg)]
            f.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**bits), rng.randint(1, den)))
            if k == 0:
                f[1] = f[3] = Fraction(0)
            forms.append(f)
    return forms


def test_i10_weights_match_the_binary_discriminant():
    """I10 from Clebsch's D against sympy's discriminant: int forms with
    64-bit coefficients, and rational ones whose denominators check the
    division by D^10."""
    sympy = pytest.importorskip("sympy")
    from prymkit.invariants import _DENOMS, _numerators

    x = sympy.symbols("x")
    rng = random.Random(61)
    assert _DENOMS[3] == 2**43 * 3**21 * 5**10
    for bits, den in ((64, 1), (8, 30), (62, 2**20)):
        for f in _random_forms(rng, bits, den):
            want = _as_fraction(_binary_discriminant(f, x))
            assert igusa_clebsch(f).i10 == want, f
            if den == 1:
                ints = [int(c) for c in f] + [0] * (7 - len(f))
                assert Fraction(_numerators(ints)[3], _DENOMS[3]) == want, f


def test_genus2_curve_rejects_a_repeated_root():
    for roots, lead in (([1, 1, 2, 3, 4, 5], 3), ([Fraction(1, 2), 2, 2, -7, 0], Fraction(-5, 4))):
        f = UPoly.from_roots(roots, lead)
        assert f.degree == len(roots)
        with pytest.raises(ValueError, match="singular"):
            Genus2Curve(f)
        # moving the double root apart gives a curve
        moved = list(roots)
        moved[1] = 100
        assert Genus2Curve(UPoly.from_roots(moved, lead)).ic.i10 != 0
    with pytest.raises(ValueError, match="degree 5 or 6"):
        Genus2Curve(UPoly.from_roots([1, 2, 3, 4], 1))


@pytest.mark.parametrize("moduli", [
    ((9, 2, 8), 3, 4),
    ((49, 5, 45), 7, 15),
    ((49, 18, 32), 7, 24),
], ids=["9_2_8", "49_5_45", "49_18_32"])
def test_parametric_i10_is_the_resultant_discriminant(moduli):
    """igusa_clebsch_upoly's I10 of the genus-5 suite's sextic equals
    -Res(f, f_x)/a6 over Q[t], at the reference and two corpus moduli."""
    from prymkit.genus2 import CoverPoint, RosenhainPoint
    from prymkit.pencil3 import PencilParams
    from prymkit.upoly import resultant_upoly_coeffs

    lams, k15, k23 = moduli
    cover = CoverPoint(RosenhainPoint(*(Fraction(v) for v in lams)), Fraction(k15), Fraction(k23))
    sext = _w14_sextic(PencilParams.from_cover(cover, "k15"))
    assert len(sext) == 7 and sext[6]
    deriv = [sext[i + 1] * (i + 1) for i in range(6)]
    want = -resultant_upoly_coeffs(sext, deriv).exact_div(sext[6])
    assert igusa_clebsch_upoly(sext)[3] == want
