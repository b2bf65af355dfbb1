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
    resultant,
    resultant_upoly_coeffs,
    valuation,
)
from prymkit.bpoly import BPoly

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


def test_bracket_basics():
    p = x**4 - 3 * x**2 + 1
    assert bracket(p, p) == UPoly()
    assert bracket(x, UPoly.one()) == UPoly.one()


def test_serialization_roundtrip():
    p = UPoly((Fraction(-3, 7), 0, Fraction(5)))
    assert UPoly.from_json(p.to_json()) == p
    assert p.to_json() == ["-3/7", "0", "5"]


# -- bivariate pieces ------------------------------------------------------------


def test_bpoly_exact_divide_examples():
    xb, yb = BPoly.x(), BPoly.y()
    num = xb * xb - yb * yb
    assert num.exact_divide(xb - yb) == xb + yb
    with pytest.raises(ValueError) as err:
        (xb * xb + BPoly.const(1)).exact_divide(xb - yb)
    assert "remainder" in str(err.value)


def test_bpoly_symmetry_and_eval():
    xb, yb = BPoly.x(), BPoly.y()
    b = xb * yb * 3 + (xb + yb) * 2 + BPoly.const(7)
    assert b.is_symmetric()
    assert b.eval(2, 5) == 3 * 10 + 2 * 7 + 7
    assert b.eval_x(2) == UPoly((11, 8))


def test_bpoly_scaled_subs_parity():
    xb, yb = BPoly.x(), BPoly.y()
    even = xb * xb * 5 + xb * yb - BPoly.const(2)
    scaled = even.scaled_subs(Fraction(12))
    assert scaled.coeff(2, 0) == 60 and scaled.coeff(1, 1) == 12
    with pytest.raises(ValueError):
        (xb + yb).scaled_subs(Fraction(12))
