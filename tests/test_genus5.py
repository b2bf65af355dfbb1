from fractions import Fraction

import pytest

from prymkit.upoly import UPoly, bracket, gcd, valuation
from prymkit.invariants import igusa_clebsch_upoly, wp_equal, wp_scale_equal
from prymkit.genus2 import igusa_clebsch, isogenous_normal_form
from prymkit.hermite import j_from_cubic
from prymkit.fibration import build_pencil_dual
from prymkit.pencil3 import nodal_target
from prymkit.genus5 import (
    bielliptic_quotient,
    bielliptic_quotient_j,
    build_quadrics,
    build_quadrics_moduli,
    fixed_point_data,
    gamma_line_branch_cubic,
    gamma_locus,
    moduli_ef,
    prym_genus2,
    quadrics_frames_agree,
    rational_points8,
    w14_component,
    w14_epsilon_identity,
    w14_factors,
    w14_parametrized_sextic,
    w14_resultants,
)


@pytest.fixture(scope="module")
def qt1(pencil):
    return build_quadrics(pencil, Fraction(1))


def test_split_parameters(cover, coeffs_k15, pencil):
    e, f = moduli_ef(coeffs_k15)
    assert (e, f) == (34, -29)
    assert e + f == coeffs_k15.c1 / coeffs_k15.c2
    assert e * f == coeffs_k15.c0 / coeffs_k15.c2
    # gamma = -e/(3l), delta = -f/(3l) in the unscaled frame; the reference
    # pencil lives in the sqrt(l)-rescaled frame, gamma_M = l * gamma
    ell = cover.ell
    assert pencil.ip.gamma == -e * ell / (3 * ell)
    assert pencil.ip.delta == -f * ell / (3 * ell)
    assert -e / (3 * ell) == Fraction(-17, 18)
    assert -f / (3 * ell) == Fraction(29, 36)


def test_scaling_relations_between_frames(cover, coeffs_k15):
    # gamma + delta = -c1/(3 l c2) and gamma delta = c0 / (9 l1 l2 l3 c2)
    ell = cover.ell
    e, f = moduli_ef(coeffs_k15)
    gamma, delta = -e / (3 * ell), -f / (3 * ell)
    assert gamma + delta == -coeffs_k15.c1 / (3 * ell * coeffs_k15.c2)
    s123 = cover.base.l1 * cover.base.l2 * cover.base.l3
    assert gamma * delta == coeffs_k15.c0 / (9 * s123 * coeffs_k15.c2)


def test_marked_points(qt1):
    pts = rational_points8(qt1)
    assert len(pts) == 8
    for p in pts:
        assert all(v == 0 for v in qt1.evaluate(*p))
    # involution orbits of size two
    seen = {(p[0], p[1], p[2]) for p in pts}
    for v, w, xv in list(seen):
        assert (-v, -w, xv) in seen


def test_gamma_locus_structure(qt1):
    loc = gamma_locus(qt1)
    assert loc.det5 == loc.block
    assert loc.cubic == loc.residual_conic * loc.line
    assert loc.residual_conic(-2, 1, 1) == 0
    assert loc.conic_minus(1, 2, Fraction(1, 8)) == 0


def test_matrices_shape(qt1):
    m0, m1, m2 = qt1.matrices()
    assert m1[0][0] == -1 and m2[1][1] == -1 and m0[0][1] == Fraction(-1, 2)
    for m in (m0, m1, m2):
        for i in range(5):
            for j in range(5):
                assert m[i][j] == m[j][i]


def test_prym_matches_the_nodal_model(pencil, qt1):
    pr = prym_genus2(qt1)
    target = nodal_target(pencil)
    assert wp_equal(igusa_clebsch(pr), igusa_clebsch(target))
    r = 16 * (pencil.ip.gamma - pencil.ip.delta) * pencil.p(Fraction(1)) ** 2
    assert wp_scale_equal(igusa_clebsch(pr), igusa_clebsch(target), r)


def test_prym_independent_of_member(pencil):
    base = igusa_clebsch(prym_genus2(build_quadrics(pencil, Fraction(1))))
    count = 0
    for t in (2, 5, -6, Fraction(1, 2), Fraction(7, 3), -1, 9, Fraction(-5, 2), 11, 13):
        if pencil.delta_z(Fraction(t)) == 0:
            continue
        other = igusa_clebsch(prym_genus2(build_quadrics(pencil, Fraction(t))))
        assert wp_equal(base, other)
        count += 1
    assert count >= 9


def test_prym_matches_normal_form(pencil, cover, qt1):
    nf, _ = isogenous_normal_form(cover, "k15")
    assert wp_equal(igusa_clebsch(prym_genus2(qt1)), igusa_clebsch(nf))


def test_bielliptic_quotient_coefficients(pencil):
    t = Fraction(1)
    a, b, c = bielliptic_quotient(pencil, t)
    sg = pencil.s.rhs(pencil.ip.gamma)
    sd = pencil.s.rhs(pencil.ip.delta)
    p0 = pencil.p(t)
    assert a == sg * p0 and c == sd * p0
    assert b == 2 * pencil.ip.mu * p0 + pencil.csq * pencil.q(t)
    with pytest.raises(ValueError):
        bielliptic_quotient(pencil, Fraction(3))


def test_quotient_agrees_with_line_restriction(pencil, qt1):
    cubic = gamma_line_branch_cubic(qt1)
    a, b, c = bielliptic_quotient(pencil, Fraction(1))
    target = UPoly((0, c, b, a))
    assert cubic * target.lead == target * cubic.lead


def test_quotient_j_matches_dual_fiber(pencil):
    dual = build_pencil_dual(pencil)
    for t in (1, 5, Fraction(7, 3), Fraction(1, 2), -2):
        a2v, a4v, _ = dual.fiber(Fraction(t))
        assert bielliptic_quotient_j(pencil, t) == j_from_cubic(a2v, a4v)


def test_fixed_points_smooth_member(qt1):
    free, info = fixed_point_data(qt1)
    assert free


def test_fixed_points_at_one_node_places(pencil):
    # the V- and W-conics collide exactly over the one-node factor
    from prymkit.verify import _conic_resultant

    res = _conic_resultant(pencil)
    octic = pencil.octic
    assert res * octic.lead == octic * res.lead
    for place_coeffs in ((-2, 0, 1), (-8, 0, 1)):
        assert valuation(res, UPoly(place_coeffs)) > 0


def test_fixed_points_reducible_member_is_free(pencil):
    # at a root of the quartic the V,W conics have distinct double roots, so
    # the sign involution stays free on the degenerate member
    free, info = fixed_point_data(build_quadrics(pencil, Fraction(3)))
    assert free


def test_w14_epsilon(pencil):
    assert w14_epsilon_identity(pencil)


def test_w14_resultant_identities(pencil):
    r12, r13, r23, t0 = w14_resultants(pencil)
    sg = pencil.s.rhs(pencil.ip.gamma)
    sd = pencil.s.rhs(pencil.ip.delta)
    assert r12 == -t0
    assert r13 == t0
    assert r23 == t0 * (sg * sd)


def test_w14_invariant_divisibility(pencil):
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
    # the degeneration factor eps = [P,Q]^2 enters with powers (1, 1, 3)
    from prymkit.factorq import squarefree_places

    for place, _ in squarefree_places(br):
        assert valuation(i4, place) == 4
        assert valuation(i6, place) == 4
        assert valuation(i10, place) == 12
    i4.exact_div(br**2)
    i6.exact_div(br**2)
    i10.exact_div(br**6)


def test_w14_parametrization_cross_check(pencil, qt1):
    derived = w14_parametrized_sextic(qt1)
    closed = w14_component(pencil, Fraction(1)).f
    mirrored = UPoly([c * Fraction(-1) ** i for i, c in enumerate(closed.c)])
    assert derived * mirrored.lead == mirrored * derived.lead
    # and the two models present the same curve
    assert wp_equal(
        igusa_clebsch(w14_component(pencil, Fraction(1))),
        igusa_clebsch(type(w14_component(pencil, 1))(derived)),
    )


def test_moduli_quadrics(base_k15, cover, coeffs_k15):
    for t in (Fraction(1), Fraction(2, 3), Fraction(-5)):
        assert quadrics_frames_agree(base_k15, cover, coeffs_k15, t)
    q0, q1, q2 = build_quadrics_moduli(cover, coeffs_k15, Fraction(1))
    dp_p0 = q0.m[2][2] / 2
    from prymkit.pencil3 import data_polys

    assert dp_p0 == data_polys(cover, Fraction(1)).p0_t
