import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prymkit.upoly import (
    UPoly,
    bracket,
    discriminant,
    gcd,
    _int_interpolate,
    inv_mod,
    resultant,
    resultant_upoly_coeffs,
    valuation,
)
from prymkit.bpoly import MPoly
from prymkit.factorq import squarefree_places

x = UPoly.x()

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


def upolys(max_deg=5):
    return st.lists(rationals, min_size=0, max_size=max_deg + 1).map(UPoly)


def test_resultant_linear_factor():
    assert resultant(x * x - 1, x - 2) == 3


def test_resultant_common_root_vanishes():
    p = x**3 - x
    assert resultant(p, p) == 0
    assert resultant(p, x - 1) == 0


def test_resultant_rejects_double_zero():
    with pytest.raises(ValueError):
        resultant(UPoly(), UPoly())


def test_formal_resultant_sign():
    # Sylvester matrix of 1 (as a form of degree 1) and x: det [[0,1],[1,0]]
    assert resultant(UPoly([1]), UPoly([0, 1]), formal=(1, 1)) == -1
    assert resultant(UPoly([0, 1]), UPoly([1]), formal=(1, 1)) == 1
    assert resultant(UPoly([2]), x * x + 3, formal=(1, 2)) == 4
    assert resultant(UPoly([2]), x**3 + 3, formal=(1, 3)) == -8
    assert resultant(UPoly([3]), x - 1, formal=(0, 1)) == 3


def test_discriminant_examples():
    assert discriminant(x * x - 1) == 4
    assert discriminant(UPoly((0, 0, 1))) == 0
    with pytest.raises(ValueError):
        discriminant(UPoly((5,)))


@given(upolys(4), upolys(4), upolys(3))
@settings(max_examples=60, deadline=None)
def test_ring_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(upolys(4), upolys(4))
@settings(max_examples=60, deadline=None)
def test_degree_of_product(p, q):
    if p and q:
        assert (p * q).degree == p.degree + q.degree


@given(upolys(3), upolys(3), upolys(3))
@settings(max_examples=40, deadline=None)
def test_resultant_multiplicative(p, q, r):
    if not p or not q or not r or p.degree < 1:
        return
    assert resultant(p, q * r) == resultant(p, q) * resultant(p, r)


@given(upolys(5), upolys(5), rationals)
@settings(max_examples=100, deadline=None)
def test_evaluation_homomorphism(p, q, a):
    assert (p * q)(a) == p(a) * q(a)
    assert (p + q)(a) == p(a) + q(a)


@given(upolys(5), upolys(4))
@settings(max_examples=60, deadline=None)
def test_divmod_identity(p, q):
    if not q:
        return
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert not rem or rem.degree < q.degree


def test_gcd_and_valuation():
    p = (x - 1) ** 3 * (x + 2)
    assert gcd(p, (x - 1) * (x - 5)) == x - 1
    assert valuation(p, x - 1) == 3
    assert valuation(p, x + 2) == 1
    assert valuation(p, x - 7) == 0


def test_interpolate_roundtrip():
    p = UPoly((Fraction(1, 3), -2, 0, 5))
    k, ints = p.primitive_int()
    values = [sum(a * t**i for i, a in enumerate(ints)) for t in range(5)]
    coeffs, scale = _int_interpolate(values)
    assert UPoly(coeffs) * (k / scale) == p


# -- sympy oracles ---------------------------------------------------------------


def _random_upoly(rng, deg):
    return UPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
                 + [Fraction(rng.choice([-7, -2, -1, 1, 3, 5]), rng.randint(1, 6))])


def _sym(p, var):
    sympy = pytest.importorskip("sympy")
    return sum(sympy.Rational(a.numerator, a.denominator) * var**i for i, a in enumerate(p.c))


def _sympy_resultant(f, g, m, n, var):
    """Sylvester resultant of f, g of degrees m, n in var; a degree-0 side
    gives the power of the constant, the rest is sympy.resultant.

    sympy.resultant returns Res(g, f) when deg f < deg g, so the larger
    degree goes first and the swap sign (-1)^(mn) is applied here."""
    sympy = pytest.importorskip("sympy")
    if m == 0 and n == 0:
        return sympy.Integer(1)
    if m == 0:
        return f**n
    if n == 0:
        return g**m
    if m >= n:
        return sympy.resultant(f, g, var)
    return (-1) ** (m * n) * sympy.resultant(g, f, var)


def _sylvester_det(p, q, m, n):
    """Determinant of the Sylvester matrix of p, q read as forms of degrees m, n."""
    sympy = pytest.importorskip("sympy")
    pc = [sympy.Rational(p.coeff(i).numerator, p.coeff(i).denominator) for i in range(m, -1, -1)]
    qc = [sympy.Rational(q.coeff(i).numerator, q.coeff(i).denominator) for i in range(n, -1, -1)]
    rows = [[0] * i + pc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + qc + [0] * (m - 1 - i) for i in range(m)]
    return sympy.Matrix(rows).det() if rows else sympy.Integer(1)


def _as_fraction(v):
    return Fraction(int(v.p), int(v.q))


def test_resultant_and_discriminant_match_sympy():
    sympy = pytest.importorskip("sympy")
    xs = sympy.Symbol("x")
    rng = random.Random(20)
    for _ in range(120):
        p = _random_upoly(rng, rng.randint(0, 7))
        q = _random_upoly(rng, rng.randint(0, 7))
        expect = _sympy_resultant(_sym(p, xs), _sym(q, xs), p.degree, q.degree, xs)
        assert resultant(p, q) == _as_fraction(expect), (p, q)
        if p.degree >= 1:
            assert discriminant(p) == _as_fraction(sympy.discriminant(_sym(p, xs), xs)), p
    edge_cases = [
        UPoly((Fraction(-2, 5), 3)),  # degree 1
        UPoly((7, -1)),  # degree 1, negative leading coefficient
        UPoly((10, -4, 0, 6)) * Fraction(1, 7),  # content 2 over the denominator 7
        UPoly((Fraction(-9, 4), 0, Fraction(3, 2))),  # content 3 over the denominator 4
        UPoly((Fraction(-1, 2), 1, 0, 0, -3)),  # negative leading coefficient
        UPoly((-6, 0, 0, 0, 0, -10)) * Fraction(1, 3),  # odd degree, both signs negative
        (x - 1) ** 2 * (x + 2) * Fraction(4, 9),  # a repeated root
    ]
    for p in edge_cases:
        assert discriminant(p) == _as_fraction(sympy.discriminant(_sym(p, xs), xs)), p


def test_formal_resultant_matches_sylvester_determinant():
    pytest.importorskip("sympy")
    rng = random.Random(21)
    for _ in range(80):
        p = _random_upoly(rng, rng.randint(0, 5))
        q = _random_upoly(rng, rng.randint(0, 5))
        if rng.random() < 0.3:
            p = UPoly(p.c[:-1])  # may drop several degrees, or vanish
        m, n = p.degree + rng.randint(0, 2), q.degree + rng.randint(0, 2)
        m, n = max(m, 0), max(n, 0)
        expect = _sylvester_det(p, q, m, n)
        assert resultant(p, q, formal=(m, n)) == _as_fraction(expect), (p, q, m, n)


def _parametric_pair(rng, dm, dn, vanishing):
    def coeff():
        return UPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))])

    f = [coeff() for _ in range(dm)] + [UPoly.from_roots(vanishing, lead=Fraction(3, 2))]
    # g's leading coefficient vanishes at t = 3
    g = [coeff() for _ in range(dn)] + [UPoly((1, Fraction(-1, 3)))]
    return f, g


@pytest.mark.parametrize("dm, dn, vanishing", [
    (3, 2, [0, 2]),        # leading coefficient of f vanishes at nodes t = 0, 2
    (1, 3, [1]),           # odd degrees with f of lower degree: the swap sign
    (2, 2, [3, 4, 5]),     # both leading coefficients vanish at t = 3
    (4, 1, []),
    (0, 3, [1]),           # x-degree 0: the result is f0^3
    (2, 0, [0]),           # x-degree 0 on the other side: g0^2
    (0, 0, [2]),           # two constants: 1
])
def test_resultant_upoly_coeffs_matches_sympy(dm, dn, vanishing):
    sympy = pytest.importorskip("sympy")
    xs, ts = sympy.symbols("x t")
    rng = random.Random(dm * 10 + dn)
    f, g = _parametric_pair(rng, dm, dn, vanishing)
    fs = sum(_sym(c, ts) * xs**i for i, c in enumerate(f))
    gs = sum(_sym(c, ts) * xs**i for i, c in enumerate(g))
    expect = sympy.expand(_sympy_resultant(fs, gs, dm, dn, xs))
    got = resultant_upoly_coeffs(f, g)
    assert sympy.expand(_sym(got, ts) - expect) == 0


@pytest.mark.parametrize("dm, dn, extra", [(2, 3, (0, 1)), (3, 2, (1, 0)), (2, 2, (0, 2))])
def test_resultant_upoly_coeffs_formal_degrees(dm, dn, extra):
    # formal degrees above the actual ones: the value at each node is the
    # Sylvester determinant of the padded forms, as resultant(formal=...)
    rng = random.Random(dm * 100 + dn * 10 + sum(extra))
    f = [_random_upoly(rng, 2) for _ in range(dm + 1)]
    g = [_random_upoly(rng, 1) for _ in range(dn + 1)]
    formal = (dm + extra[0], dn + extra[1])
    got = resultant_upoly_coeffs(f, g, formal=formal)
    for t in (Fraction(0), Fraction(2), Fraction(-3, 2), Fraction(5)):
        ft, gt = UPoly([c(t) for c in f]), UPoly([c(t) for c in g])
        assert got(t) == resultant(ft, gt, formal=formal)
    with pytest.raises(ValueError, match="formal degree"):
        resultant_upoly_coeffs(f, g, formal=(dm - 1, dn))


def test_bracket_basics():
    p = x**4 - 3 * x**2 + 1
    assert bracket(p, p) == UPoly()
    assert bracket(x, UPoly.one()) == UPoly.one()


def test_serialization_roundtrip():
    p = UPoly((Fraction(-3, 7), 0, Fraction(5)))
    assert UPoly.from_json(p.to_json()) == p
    assert p.to_json() == ["-3/7", "0", "5"]


# -- sparse multivariate polynomials -----------------------------------------------


def test_bpoly_exact_divide_examples():
    xb, yb = MPoly.var(0, 2), MPoly.var(1, 2)
    num = xb * xb - yb * yb
    assert num.exact_divide(xb - yb) == xb + yb
    with pytest.raises(ValueError) as err:
        (xb * xb + MPoly.const(1, 2)).exact_divide(xb - yb)
    assert "remainder" in str(err.value)


def test_bpoly_symmetry_and_eval():
    xb, yb = MPoly.var(0, 2), MPoly.var(1, 2)
    b = xb * yb * 3 + (xb + yb) * 2 + MPoly.const(7, 2)
    assert b.permute((1, 0)) == b
    assert b(2, 5) == 3 * 10 + 2 * 7 + 7
    assert b.subs(0, 2).to_upoly() == UPoly((11, 8))


def test_bpoly_scaled_subs_parity():
    xb, yb = MPoly.var(0, 2), MPoly.var(1, 2)
    even = xb * xb * 5 + xb * yb - MPoly.const(2, 2)
    scaled = even.scaled_subs(Fraction(12))
    assert scaled.coeff(2, 0) == 60 and scaled.coeff(1, 1) == 12
    with pytest.raises(ValueError):
        (xb + yb).scaled_subs(Fraction(12))


def _random_mpoly(rng, n, terms, max_deg=3):
    return MPoly(n, {tuple(rng.randint(0, max_deg) for _ in range(n)):
                     Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(terms)})


def _sym_mpoly(p, gens):
    sympy = pytest.importorskip("sympy")
    out = sympy.Integer(0)
    for *k, v in p.to_json():
        mono = sympy.Rational(v)
        for g, e in zip(gens, k):
            mono *= g**e
        out += mono
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_mpoly_product_and_division_match_sympy(n):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(f"x0:{n}")
    rng = random.Random(30 + n)
    exact = inexact = 0
    for _ in range(40):
        a = _random_mpoly(rng, n, rng.randint(1, 5))
        b = _random_mpoly(rng, n, rng.randint(2, 4))  # at most one term may cancel
        if not b:
            continue
        ab = a * b
        assert sympy.expand(_sym_mpoly(ab, gens) - _sym_mpoly(a, gens) * _sym_mpoly(b, gens)) == 0
        # exact: the quotient is sympy's, and a itself
        q, r = sympy.div(_sym_mpoly(ab, gens), _sym_mpoly(b, gens), *gens)
        assert r == 0
        got = ab.exact_divide(b)
        assert got == a and sympy.expand(_sym_mpoly(got, gens) - q) == 0
        exact += 1
        # perturbed: exact_divide raises exactly when sympy leaves a remainder
        c = ab + _random_mpoly(rng, n, 1)
        q, r = sympy.div(_sym_mpoly(c, gens), _sym_mpoly(b, gens), *gens)
        if r == 0:
            assert sympy.expand(_sym_mpoly(c.exact_divide(b), gens) - q) == 0
        else:
            with pytest.raises(ValueError, match="remainder"):
                c.exact_divide(b)
            inexact += 1
    assert exact >= 30 and inexact >= 15


def test_mpoly_calculus_matches_sympy():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x0:3")
    rng = random.Random(33)
    for _ in range(20):
        p = _random_mpoly(rng, 3, rng.randint(1, 6))
        ps = _sym_mpoly(p, gens)
        vals = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        assert p(*vals) == _as_fraction(ps.subs(dict(zip(gens, vals))))
        for i in range(3):
            assert sympy.expand(_sym_mpoly(p.deriv(i), gens) - sympy.diff(ps, gens[i])) == 0
            sub = ps.subs(gens[i], vals[i])
            assert sympy.expand(_sym_mpoly(p.subs(i, vals[i]), gens) - sub) == 0
        swapped = ps.subs({gens[0]: gens[2], gens[2]: gens[0]}, simultaneous=True)
        assert sympy.expand(_sym_mpoly(p.permute((2, 1, 0)), gens) - swapped) == 0
        t = sympy.Symbol("t")
        diag = sympy.Poly(ps.subs({g: t for g in gens}), t)
        assert p.to_upoly() == UPoly(list(reversed([_as_fraction(c) for c in diag.all_coeffs()])))


# -- division, gcd and squarefree places against sympy -------------------------------

# divisors that are non-monic, have a negative leading coefficient, or have
# rational coefficients
DIVISORS = [
    UPoly((-1, 2)),                          # 2t - 1
    UPoly((Fraction(1, 2), 0, -3)),          # -3t^2 + 1/2
    UPoly((0, 1)),                           # t
    UPoly((1, 0, 1)),                        # t^2 + 1
    UPoly((Fraction(2, 3), -5)),             # -5t + 2/3
    UPoly((Fraction(-7, 4), 1, 0, Fraction(3, 2))),
]


def _from_sym(expr, var):
    sympy = pytest.importorskip("sympy")
    if expr == 0:
        return UPoly()
    return UPoly(list(reversed([_as_fraction(c) for c in sympy.Poly(expr, var).all_coeffs()])))


def test_divmod_exact_div_and_inv_mod_match_sympy():
    sympy = pytest.importorskip("sympy")
    xs = sympy.Symbol("x")
    rng = random.Random(40)
    for _ in range(60):
        a = _random_upoly(rng, rng.randint(0, 8))
        b = rng.choice(DIVISORS + [_random_upoly(rng, rng.randint(0, 4))])
        q, r = divmod(a, b)
        sq, sr = sympy.div(_sym(a, xs), _sym(b, xs), xs)
        assert (q, r) == (_from_sym(sq, xs), _from_sym(sr, xs)), (a, b)
        assert (a // b, a % b) == (q, r)
        assert (a * b).exact_div(b) == a
        if r:
            with pytest.raises(ValueError) as err:
                a.exact_div(b)
            assert str(err.value) == f"non-exact division, remainder {r!r}"
        if b.degree >= 1 and sympy.gcd(_sym(a, xs), _sym(b, xs)) == 1:
            want = sympy.invert(_sym(a, xs), _sym(b, xs), xs)
            assert inv_mod(a, b) == _from_sym(sympy.expand(want), xs), (a, b)


def test_valuation_matches_sympy():
    sympy = pytest.importorskip("sympy")
    xs = sympy.Symbol("x")
    rng = random.Random(41)
    for _ in range(40):
        place = rng.choice(DIVISORS)
        p = _random_upoly(rng, rng.randint(0, 4)) * place ** rng.randint(0, 3)
        p = p * rng.choice([1, -2, Fraction(5, 3)])
        expr, want = _sym(p, xs), 0
        while True:
            quo, rem = sympy.div(expr, _sym(place, xs), xs)
            if rem != 0:
                break
            expr, want = quo, want + 1
        assert valuation(p, place) == want, (p, place)


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    xs = sympy.Symbol("x")
    rng = random.Random(42)
    for _ in range(60):
        common = _random_upoly(rng, rng.randint(0, 3))
        p = _random_upoly(rng, rng.randint(0, 4)) * common
        q = _random_upoly(rng, rng.randint(0, 4)) * common
        want = sympy.Poly(_sym(p, xs), xs, domain="QQ").gcd(
            sympy.Poly(_sym(q, xs), xs, domain="QQ")).monic()
        assert gcd(p, q) == _from_sym(want.as_expr(), xs), (p, q)


def test_squarefree_places_match_sympy():
    sympy = pytest.importorskip("sympy")
    xs = sympy.Symbol("x")
    rng = random.Random(43)
    for _ in range(30):
        p = UPoly.const(Fraction(rng.choice([-3, 1, 2]), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 4)):
            p = p * _random_upoly(rng, rng.randint(1, 3)) ** rng.randint(1, 3)
        _, factors = sympy.factor_list(_sym(p, xs), xs)
        want = sorted((tuple(sympy.Poly(f, xs).monic().all_coeffs()), m) for f, m in factors
                      if sympy.Poly(f, xs).degree() > 0)
        got = sorted((tuple(sympy.Rational(c.numerator, c.denominator) for c in reversed(f.c)), m)
                     for f, m in squarefree_places(p))
        assert got == want, p


# -- the stored form is canonical after every operation ------------------------------


def _canonical_upoly(p):
    n, d = p.n, p.d
    return (type(n) is tuple and all(type(v) is int for v in n) and type(d) is int
            and d > 0 and (not n or n[-1] != 0) and math.gcd(d, *n) == 1)


def _canonical_mpoly(p):
    vals = list(p.m.values())
    return (type(p.den) is int and p.den > 0 and all(type(v) is int and v for v in vals)
            and math.gcd(p.den, *vals) == 1)


def test_canonical_examples():
    half = UPoly([Fraction(1, 2)])
    assert UPoly([Fraction(2, 4)]) == half and hash(UPoly([Fraction(2, 4)])) == hash(half)
    assert (half.n, half.d) == ((1,), 2)
    p = UPoly((Fraction(1, 2), 1))
    assert p - p == UPoly() and hash(p - p) == hash(UPoly()) and (p - p).d == 1
    assert p + p == UPoly((1, 2)) and (p + p).d == 1
    # a negative leading coefficient does not leave a negative denominator
    for q in (UPoly((1, -2)).monic(), divmod(x * x, UPoly((1, -2)))[0],
              divmod(x * x, UPoly((Fraction(1, 2), 0, -3)))[1], p * Fraction(-3, 4)):
        assert _canonical_upoly(q), (q.n, q.d)
    a, b = MPoly.var(0, 2), MPoly.var(1, 2)
    div = a * -2 + b * Fraction(1, 3)
    assert ((a * 3 - b) * div).exact_divide(div) == a * 3 - b
    for r in ((a * a).exact_divide(a * -2), (a * a - b * b * 3).scaled_subs(0), div * Fraction(-3, 4)):
        assert _canonical_mpoly(r), (r.m, r.den)


mpolys2 = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals,
                          max_size=5).map(lambda t: MPoly(2, t))


@given(upolys(4), upolys(3), rationals)
@settings(max_examples=80, deadline=None)
def test_upoly_operations_stay_canonical(p, q, a):
    results = [p, q, p + q, p - q, -p, p * q, p * a, a * p, p ** 2, p.derivative(),
               p.reciprocal(max(p.degree, 0) + 1), p.monic(), p.shift(a), p - p, gcd(p, q)]
    if q:
        results += [*divmod(p, q), (p * q).exact_div(q)]
        assert (p * q) // q == p and hash((p * q) // q) == hash(p)
        if q.degree >= 1 and gcd(p, q).degree == 0 and p % q:
            results.append(inv_mod(p, q))
    for r in results:
        assert _canonical_upoly(r), (r.n, r.d)
        assert r == UPoly(r.c) and hash(r) == hash(UPoly(r.c))
    assert p - p == UPoly() and hash(p - p) == hash(UPoly())


@given(mpolys2, mpolys2, rationals)
@settings(max_examples=60, deadline=None)
def test_mpoly_operations_stay_canonical(p, q, a):
    results = [p, q, p + q, p - q, -p, p * q, p * a, p ** 2, p.deriv(0), p.deriv(1),
               p.subs(0, a), p.permute((1, 0)), p - p,
               MPoly.from_upoly(p.subs(0, a).to_upoly(), 1, 2)]
    results += [MPoly.from_upoly(r, 0, 2) for r in p.upoly_rows()]
    even = MPoly(2, {k: v for k, v in ((k, p.coeff(*k)) for k in p.m) if sum(k) % 2 == 0})
    results.append(even.scaled_subs(a))
    if q:
        results.append((p * q).exact_divide(q))
        assert (p * q).exact_divide(q) == p
    for r in results:
        assert _canonical_mpoly(r), (r.m, r.den)
        same = MPoly(2, {k: r.coeff(*k) for k in r.m})
        assert r == same and hash(r) == hash(same)
    assert p - p == MPoly(2) and hash(p - p) == hash(MPoly(2))
