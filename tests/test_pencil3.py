import random
from fractions import Fraction

import pytest

from prymkit.upoly import UPoly, bracket, discriminant, valuation
from prymkit.bpoly import MPoly
from prymkit.factorq import squarefree_places
from prymkit.invariants import wp_equal
from prymkit.genus2 import (
    TwoTorsionPoint,
    igusa_clebsch,
    richelot_from_goepel,
)
from prymkit.hermite import QuarticGenus1
from prymkit.pencil3 import (
    PencilParams,
    bitangent_conics,
    build_member_generic,
    build_member_moduli,
    classify_member,
    classify_place,
    data_polys,
    hyperelliptic_invariance,
    hyperelliptic_pairings,
    member_frames_agree,
    nodal_target,
    node_genus2,
    quartic_singular_points,
    t_involution,
)

G_PRIME = frozenset(
    {
        TwoTorsionPoint.identity(),
        TwoTorsionPoint.of(1, 5),
        TwoTorsionPoint.of(2, 3),
        TwoTorsionPoint.of(4, 6),
    }
)


def test_reference_pencil_data(pencil):
    assert pencil.p == UPoly((144, 0, -25, 0, 1))
    assert (pencil.ip.gamma, pencil.ip.delta) == (Fraction(-34, 3), Fraction(29, 3))
    assert pencil.b.permute((1, 0)) == pencil.b
    assert pencil.b.deg(0) == 2 and pencil.b.deg(1) == 2


def test_sections_solve_the_quotient_curve(pencil):
    # w = B(r, x0) solves w^2 = q1 q2 at each root r of the quartic
    g = pencil.b.subs(1, Fraction(7)).to_upoly()  # B(x, x0=7) as a polynomial in x
    for r in (3, -3, 4, -4):
        val = pencil.b(Fraction(r), Fraction(7))
        gq = pencil.b.subs(1, Fraction(7)).to_upoly() ** 2 - pencil.p * (
            4 * pencil.csq * pencil.p(Fraction(7))
        )
        assert gq(Fraction(r)) == val * val


def test_member_classification_table(pencil):
    assert classify_member(pencil, 1).kind == "SmoothGenus3"
    for t in (3, -3, 4, -4):
        assert classify_member(pencil, t).kind == "ReducibleLinePlusGenus2"
    assert classify_member(pencil, 0).kind == "SmoothHyperelliptic"
    assert classify_member(pencil, 12).kind == "SmoothGenus3"


def test_partition_is_exhaustive_and_exclusive(pencil):
    rng = random.Random(8)
    dz = pencil.delta_z
    br = bracket(pencil.p, pencil.q)
    kinds = set()
    for _ in range(200):
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        mc = classify_member(pencil, t)
        kinds.add(mc.kind)
        checks = {
            "ReducibleLinePlusGenus2": pencil.p(t) == 0,
            "SmoothHyperelliptic": br(t) == 0,
            "IrreducibleOneNodeGenus2": pencil.octic(t) == 0,
            "SmoothGenus3": dz(t) != 0 and br(t) != 0,
        }
        assert checks[mc.kind]
        assert sum(bool(v) for v in checks.values()) == 1
    assert "SmoothGenus3" in kinds


def test_symbolic_one_node_places(pencil):
    places = [f for f, _ in squarefree_places(pencil.octic)]
    assert sorted(tuple(f.to_json()) for f in places) == sorted(
        [("-72", "0", "1"), ("-18", "0", "1"), ("-8", "0", "1"), ("-2", "0", "1")]
    )
    for f in places:
        assert classify_place(pencil, f).kind == "IrreducibleOneNodeGenus2"


def test_discriminant_multiplicities(pencil):
    assert all(m == 2 for _, m in squarefree_places(pencil.delta_z))


def test_node_genus2_triangle(pencil, rosenhain, cover):
    for t in (3, 4):
        ng = node_genus2(pencil, t)
        assert wp_equal(igusa_clebsch(ng), igusa_clebsch(nodal_target(pencil)))
        rich = richelot_from_goepel(rosenhain, G_PRIME)
        assert wp_equal(igusa_clebsch(ng), igusa_clebsch(rich))
    with pytest.raises(ValueError):
        node_genus2(pencil, 5)


def test_nodal_target_squarefree(pencil):
    assert discriminant(nodal_target(pencil).f) != 0


def test_member_generic_structure(pencil):
    m = build_member_generic(pencil, Fraction(1))
    assert m.a0 == pencil.p(Fraction(1))
    assert m.c4.deg(0) <= 4
    g = m.affine_g()
    assert discriminant(g) == pencil.delta_z(Fraction(1))


def test_singular_points_smooth_member(pencil):
    assert quartic_singular_points(build_member_generic(pencil, 1)) == []


def test_quotient_quartic_feeds_the_jacobian_pencil(pencil):
    # the Jacobian of the member's quotient quartic is the fiber of the
    # section model (the twisted Jacobian pencil) at the same parameter
    from prymkit.hermite import QuarticGenus1, jacobian_of_quartic
    from prymkit.fibration import build_pencil_jac

    model = build_pencil_jac(pencil).twist(-8)
    for t in (Fraction(1), Fraction(5), Fraction(-7, 2)):
        g = build_member_generic(pencil, t).affine_g()
        e = jacobian_of_quartic(QuarticGenus1(g))
        a2v, a4v, _ = model.fiber(t)
        assert e.f == a4v - a2v * a2v / 3
        assert e.g == Fraction(2, 27) * a2v**3 - a2v * a4v / 3


def test_singular_points_reducible_member(pencil):
    pts = quartic_singular_points(build_member_generic(pencil, 3))
    assert pts and pts[0][0] == "reducible"


def test_one_node_member_has_two_conjugate_nodes():
    # a split instance whose one-node place is rational: the member carries a
    # pair of plane nodes swapped by the bielliptic involution
    quartic = QuarticGenus1(UPoly.from_roots([1, -2, 3, -3]))
    pp = PencilParams.create(quartic, Fraction(-32, 3), Fraction(69712, 15987))
    assert pp.octic(Fraction(-7)) == 0
    assert classify_member(pp, -7).kind == "IrreducibleOneNodeGenus2"
    pts = quartic_singular_points(build_member_generic(pp, -7))
    nodes = [p for p in pts if p[0] == "node"]
    assert len(nodes) == 2
    assert all(p[1]["hessian_rank"] == 2 for p in nodes)
    zs = sorted(Fraction(p[1]["z"]) for p in nodes)
    assert zs[0] == -zs[1] != 0


def test_data_polys_match_printed_forms(cover):
    dp = data_polys(cover, Fraction(1))
    l1, l2, l3 = cover.base.l1, cover.base.l2, cover.base.l3
    assert dp.p.coeff(4, 0) == l1 * l2 * l3
    assert dp.p.coeff(2, 2) == -(l1 + l2 * l3)
    assert dp.p.coeff(0, 4) == 1
    # p0 is the quartic evaluated at (t, 1)
    t = Fraction(1)
    assert dp.p0_t == dp.p(t, 1)
    assert dp.delta_t == (MPoly.var(0, 2) - MPoly.var(1, 2) * t) ** 2


def test_member_moduli_blocks(cover, coeffs_k15):
    t = Fraction(2)
    mem = build_member_moduli(cover, coeffs_k15, t)
    dp = data_polys(cover, t)
    assert mem.a0 == dp.p0_t
    assert mem.c4 == dp.p * (9 * coeffs_k15.disc())
    want_b2 = dp.r1_t * coeffs_k15.c2 + dp.r_t * coeffs_k15.c1 + dp.delta_t * coeffs_k15.c0
    assert mem.b2 == want_b2


def test_member_frames_identity(base_k15, cover, coeffs_k15):
    for t in (Fraction(1), Fraction(2, 3), Fraction(-5)):
        assert member_frames_agree(base_k15, cover, coeffs_k15, t)


def test_member_moduli_rejects_foreign_coefficients(cover, coeffs_k15):
    from prymkit.genus2 import NormalFormCoeffs

    bogus = NormalFormCoeffs(coeffs_k15.c0 + 1, coeffs_k15.c1, coeffs_k15.c2, "k15")
    with pytest.raises(ValueError, match="inconsistent"):
        build_member_moduli(cover, bogus, Fraction(1))


def test_bitangent_conics_identity(pencil):
    for t in (Fraction(1), Fraction(5)):
        q0, q1, q2 = bitangent_conics(pencil, t)
        mem = build_member_generic(pencil, t)
        p0 = pencil.p(t)
        # q0^2 - q1 q2 = 4 P(x0) * member as ternary quartics
        for xv, yv, zv in ((1, 2, 3), (-2, 5, 1), (7, 1, -4), (0, 1, 1), (1, 0, 2)):
            lhs = q0.evaluate(xv, yv, zv) ** 2 - q1.evaluate(xv, yv, zv) * q2.evaluate(
                xv, yv, zv
            )
            assert lhs == 4 * p0 * mem.evaluate(xv, yv, zv)
        # q0 = 2 P0 Z^2 + (q1 + q2 - (gamma-delta)^2 (x - x0)^2) / 2
        assert q0.m[2][2] == 2 * p0
        shift = UPoly.from_roots([t, t]) * pencil.csq
        from prymkit.quadforms import QuadForm3
        from prymkit.pencil3 import _homogenize

        corr = QuadForm3.from_xy_quadratic(_homogenize(shift, 2))
        rebuilt = q1.add(q2).add(corr.scale(-1)).scale(Fraction(1, 2))
        rebuilt = QuadForm3.from_entries(
            [
                [rebuilt.m[0][0], rebuilt.m[0][1], 0],
                [rebuilt.m[0][1], rebuilt.m[1][1], 0],
                [0, 0, 2 * p0],
            ]
        )
        assert rebuilt == q0


def test_bitangent_conic_discriminants(pencil):
    # Discr_x(q1) and Discr_x(q2), as polynomials in x0, are multiples of P(x0)
    g, d = pencil.ip.gamma, pencil.ip.delta
    x, y = MPoly.var(0, 2), MPoly.var(1, 2)
    sh = (x - y) * (x - y)
    for val in (g, d):
        q = sh * (val * val) - pencil.r * (4 * val) - pencil.r1 * 4
        rows = q.upoly_rows()
        disc = rows[1] * rows[1] - rows[0] * rows[2] * 4
        disc.exact_div(pencil.p)  # raises if not divisible


def test_q1_equals_q2_only_when_parameters_collide(pencil):
    q0, q1, q2 = bitangent_conics(pencil, Fraction(1))
    assert q1 != q2
    with pytest.raises(ValueError, match="reducible"):
        PencilParams.create(pencil.quartic, Fraction(2), Fraction(2))


def test_commutator_product_identity(pencil):
    pairs, prod, rhs = hyperelliptic_pairings(pencil)
    rs = [rp for _, rp in pairs]
    lead = pencil.p.lead
    assert rs[0] * rs[1] * rs[2] * lead**3 == bracket(pencil.p, pencil.q) * -4
    assert (prod, rhs) == (rs[0] * rs[1] * rs[2] * lead**3, bracket(pencil.p, pencil.q) * -4)


def test_hyperelliptic_locus(pencil):
    br = bracket(pencil.p, pencil.q)
    places = squarefree_places(br)
    kinds = sorted(tuple(f.to_json()) for f, _ in places)
    assert kinds == sorted([("0", "1"), ("-12", "0", "1"), ("12", "0", "1")])


def test_involution_invariance_at_zero(pencil):
    pairs, _, _ = hyperelliptic_pairings(pencil)
    zero = UPoly.x()
    hits = [
        pairing for pairing, rp in pairs if rp(Fraction(0)) == 0
    ]
    assert hits
    for pairing in hits:
        assert hyperelliptic_invariance(pencil, pairing, zero)
    # at t = 0 the involution is x -> -x
    (a, b), (c, d) = hits[0]
    num, den = t_involution(a, b, c, d)
    assert num.exact_div(den) == UPoly((0, -1))


def test_involution_invariance_at_quadratic_places(pencil):
    pairs, _, _ = hyperelliptic_pairings(pencil)
    for place_coeffs in ((-12, 0, 1), (12, 0, 1)):
        place = UPoly(place_coeffs)
        ok = False
        for pairing, rp in pairs:
            if valuation(rp, place) > 0:
                ok = hyperelliptic_invariance(pencil, pairing, place)
        assert ok


def test_invariance_fails_off_locus(pencil):
    pairs, _, _ = hyperelliptic_pairings(pencil)
    place = UPoly((-1, 1))  # t = 1 is not hyperelliptic
    assert not any(
        hyperelliptic_invariance(pencil, pairing, place) for pairing, _ in pairs
    )


def test_smooth_member_count_is_twelve(pencil):
    # the degenerate members: 4 reducible + 8 one-node = 12, each place order 2
    places = squarefree_places(pencil.delta_z)
    assert sum(f.degree for f, _ in places) == 12


def test_roots_are_found_once_per_pencil(cover, monkeypatch):
    from prymkit import pencil3
    from prymkit.fibration import sections_from_aj
    from prymkit.genus5 import build_quadrics, rational_points8

    calls = []
    real = pencil3.rational_roots
    monkeypatch.setattr(pencil3, "rational_roots", lambda p: calls.append(p) or real(p))
    pp = PencilParams.from_cover(cover, "k15")
    assert pp.roots == (-4, -3, 3, 4)
    sections_from_aj(pp)
    rational_points8(build_quadrics(pp, 1))
    hyperelliptic_pairings(pp)
    assert calls == [pp.p]
