from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prymkit.upoly import UPoly, gcd
from prymkit.factorq import (
    rational_roots,
    squarefree_places,
    yun_squarefree,
)

x = UPoly.x()


def test_biquadratic_square():
    places = squarefree_places(x**4 - 2 * x**2 + 1)
    assert places == [(x - 1, 2), (x + 1, 2)]


def test_irreducible_quadratic_stays_whole():
    assert squarefree_places(x**2 + 1) == [(x**2 + 1, 1)]


def test_rootless_quartic_splits_into_quadratics():
    places = squarefree_places(x**4 + 4)
    assert sorted(f.to_json() for f, _ in places) == [["2", "-2", "1"], ["2", "2", "1"]]


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        squarefree_places(UPoly())


def test_reference_discriminant_places(pencil):
    dz = pencil.delta_z
    places = squarefree_places(dz)
    linear = {tuple(f.to_json()) for f, m in places if f.degree == 1}
    assert linear == {("-4", "1"), ("-3", "1"), ("3", "1"), ("4", "1")}
    assert all(m == 2 for _, m in places)
    quadratic = {tuple(f.to_json()) for f, m in places if f.degree == 2}
    assert quadratic == {
        ("-72", "0", "1"),
        ("-18", "0", "1"),
        ("-8", "0", "1"),
        ("-2", "0", "1"),
    }


def _reassemble(p, places):
    prod = UPoly.one()
    for f, m in places:
        prod = prod * f**m
    return prod


coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(st.lists(coeffs, min_size=2, max_size=7))
@settings(max_examples=40, deadline=None)
def test_squarefree_reassembly(cs):
    p = UPoly(cs)
    if not p or p.degree < 1:
        return
    places = squarefree_places(p)
    prod = _reassemble(p, places)
    # p equals its leading constant times the monic factor powers
    assert p == prod * p.lead
    # pairwise coprime
    for i in range(len(places)):
        for j in range(i + 1, len(places)):
            assert gcd(places[i][0], places[j][0]).degree == 0


def test_irreducibility_certificates():
    assert squarefree_places(x**2 + 1) == [(x**2 + 1, 1)]
    assert squarefree_places(x**4 + x + 1) == [(x**4 + x + 1, 1)]
    assert squarefree_places(x**4 + 4) == [(x**2 - 2 * x + 2, 1), (x**2 + 2 * x + 2, 1)]
    assert squarefree_places((x - 1) * (x + 1)) == [(x - 1, 1), (x + 1, 1)]


def test_rational_roots_by_factorization():
    p = (x - Fraction(2, 3)) * (x + 5) * (x**2 + 1) * 6
    assert rational_roots(p) == [Fraction(-5), Fraction(2, 3)]


def test_big_coefficient_factorization(pencil):
    # degree-24 discriminant with ~40-digit coefficients
    dz = pencil.delta_z
    places = squarefree_places(dz)
    assert sum(f.degree * m for f, m in places) == 24
    assert _reassemble(dz, places) * dz.lead == dz


def test_yun_multiplicities():
    p = (x - 2) ** 3 * (x**2 + 1) ** 2 * (x + 7)
    out = dict((g.to_json()[0] if g.degree == 1 else tuple(g.to_json()), m)
               for g, m in squarefree_places(p))
    assert out[("1", "0", "1")] == 2
    parts = yun_squarefree(p)
    assert sorted(m for _, m in parts) == [1, 2, 3]
