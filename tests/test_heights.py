from fractions import Fraction

import pytest

from prymkit.factorq import squarefree_places
from prymkit.upoly import UPoly, gcd, valuation
from prymkit.ratfunc import RatFunc
from prymkit.fibration import (
    HeightPairing,
    Section,
    WeierstrassFamily,
    _contact,
    classify_fibers,
    fiber_inventory,
    height_pairing,
    sections_from_aj,
)


@pytest.fixture(scope="module")
def section_set(pencil):
    return sections_from_aj(pencil)


def test_model_is_a_constant_twist(pencil, section_set):
    from prymkit.fibration import build_pencil_jac

    jac = build_pencil_jac(pencil)
    tw = jac.twist(-8)
    assert (tw.a2, tw.a4, tw.a6) == (
        section_set.model.a2,
        section_set.model.a4,
        section_set.model.a6,
    )
    assert fiber_inventory(classify_fibers(section_set.model)) == {"I2": 12}


def test_height_matrix(section_set):
    names = ["sigma", "T1", "T2", "T3", "S1", "S2", "S3"]
    secs = dict(zip(names, section_set.all()))
    expected = {
        ("S1", "S1"): 4, ("S2", "S2"): 4, ("S3", "S3"): 4,
        ("S1", "S2"): 2, ("S1", "S3"): 2, ("S2", "S3"): 2,
    }
    for i, a in enumerate(names):
        for b in names[i:]:
            want = Fraction(expected.get((a, b), 0))
            got = height_pairing(section_set.model, secs[a], secs[b])
            assert got == want, (a, b, got)


@pytest.fixture(scope="module")
def pairing(section_set):
    return HeightPairing(section_set.model)


def test_sections_avoid_zero_section_and_each_other(section_set, pairing):
    for a, b in (("s1", "s2"), ("s1", "s3"), ("s2", "s3")):
        total, _ = _contact(getattr(section_set, a), getattr(section_set, b), section_set.model)
        assert total == 0


def test_torsion_meets_nontorsion_twice(section_set, pairing):
    for t in ("t1", "t2", "t3"):
        for s in ("s1", "s2", "s3"):
            total, _ = _contact(getattr(section_set, t), getattr(section_set, s), section_set.model)
            assert total == 2


def test_torsion_pairs_meet_only_at_nodes(section_set, pairing):
    t1, t2 = section_set.t1, section_set.t2
    total, common = _contact(t1, t2, section_set.model)
    assert total == 4
    # all contact is finite, of multiplicity one, and at nodes both pass
    assert common.degree == total
    assert gcd(common, common.derivative()).degree == 0
    assert common == gcd(pairing.node_set(t1), pairing.node_set(t2))


def test_each_torsion_passes_eight_nodes(section_set, pairing):
    model = section_set.model
    places = [f for f, _ in squarefree_places(model.delta)]
    for t in ("t1", "t2", "t3"):
        met = pairing.node_set(getattr(section_set, t))
        assert met.degree == 8
        # made of whole places of Delta
        assert sum(f.degree for f in places if valuation(met, f) > 0) == 8
    for s in ("s1", "s2", "s3"):
        assert pairing.node_set(getattr(section_set, s)) == UPoly.one()


def test_unsupported_fiber_types_rejected(cover):
    from prymkit.fibration import build_dual_kummer

    fam = build_dual_kummer(cover)  # has I4 fibers
    zero = Section.zero()
    with pytest.raises(ValueError, match="unsupported"):
        height_pairing(fam, zero, zero)


def _factor_based_pairing(model, s1, s2):
    """The height pairing computed place by place, on the irreducible factors
    of Delta, of the denominators and of the contact numerators."""
    from prymkit.fibration import _node_x, _ord_inf

    c4 = model.c4()
    i2 = [f for f, m in squarefree_places(model.delta) if m == 2 and valuation(c4, f) == 0]

    def sigma(s):
        if s.is_zero_section:
            return -2
        fin = sum(-s.x.valuation(f) // 2 * f.degree for f, _ in squarefree_places(s.x.den)
                  ) if s.x.den.degree else 0
        return fin + max(-_ord_inf(s.x, 4), 0) // 2

    def met(s):
        out = set()
        for f in i2:
            if s.is_zero_section or valuation(s.x.den, f):
                continue
            if (s.x.residue(f) - _node_x(model, f)) % f == 0 and s.y.residue(f) % f == 0:
                out.add(f)
        return out

    both = met(s1) & met(s2)
    corr = Fraction(sum(f.degree for f in both), 2)
    if s1 == s2:
        inter = -2
    elif s1.is_zero_section or s2.is_zero_section:
        inter = sigma(s2 if s1.is_zero_section else s1)
    else:
        dx, dy = s1.x - s2.x, s1.y - s2.y
        base = dx.num if dx.num else dy.num
        inter = 0
        for f, _ in squarefree_places(base):
            m = min(dx.valuation(f), dy.valuation(f))
            if m > 0:
                assert f not in both or m == 1
                inter += m * f.degree - (f.degree if f in both else 0)
        inter += max(min(_ord_inf(dx, 4), _ord_inf(dy, 6)), 0)
    return 2 + sigma(s1) + sigma(s2) - inter - corr


def test_gram_matrix_matches_factor_based_reference(section_set, pairing):
    secs = section_set.all()
    for i, a in enumerate(secs):
        for b in secs[i:]:
            assert pairing(a, b) == _factor_based_pairing(section_set.model, a, b), (a.name, b.name)


def test_torsion_translate_with_poles(section_set, pairing):
    # S1 + T2 has poles where S1 meets T2: sigma counts them from its
    # denominator, and its heights are S1's
    from prymkit.fibration import Section

    model, s1, t2 = section_set.model, section_set.s1, section_set.t2
    lam = (s1.y - t2.y) / (s1.x - t2.x)
    x3 = lam * lam - RatFunc(model.a2) - s1.x - t2.x
    s3 = Section.of(x3, -(lam * (x3 - s1.x) + s1.y), "S1+T2")
    assert model.section_on(s3.x, s3.y)
    assert s3.x.den.degree > 0
    assert pairing(s3, s3) == pairing(s1, s1) == 4
    assert pairing(s3, section_set.s2) == pairing(s1, section_set.s2) == 2
    for other in section_set.all():
        assert pairing(s3, other) == _factor_based_pairing(model, s3, other)


def test_node_set_drops_pole_places(section_set, pairing):
    # T1 moved by a term with a double pole at one of its node places f and
    # zero at the other places of the same basis element: the node set
    # loses f and keeps the rest
    from prymkit.fibration import Section, _node_set

    t1 = section_set.t1
    met = pairing.node_set(t1)
    f = squarefree_places(met)[0][0]
    (b, xn), = [(b, xn) for b, xn in pairing.nodes if gcd(b, f).degree]
    moved = Section.of(t1.x + RatFunc(b.exact_div(f), f * f), t1.y, "T1 with a pole")
    assert _node_set(moved, b, xn) == gcd(met, b).exact_div(f)
    assert _node_set(t1, b, xn) == gcd(met, b)


@pytest.mark.parametrize("num, den, sigma", [
    ((0, 0, 0, 0, 0, 0, 1), (1, -2, 1), 1),  # t^6 / (t-1)^2: a double pole at t = 1
    ((0, 0, 0, 0, 0, 0, 1), (1,), 1),  # t^6: order -2 at infinity, weight 4
    ((1, 0, 0, 0, 0, 0, 0, 0, 1), (1, 0, 2, 0, 1), 2),  # (t^8 + 1) / (t^2 + 1)^2
    ((0, 0, 0, 0, 0, 0, 0, 0, 1), (1, -2, 1), 2),  # both: 1 finite + 1 at infinity
])
def test_sigma_counts_finite_and_infinite_poles(num, den, sigma):
    from prymkit.fibration import _sigma_int

    model = WeierstrassFamily(UPoly(), UPoly((0, 1)), UPoly((1,)))
    x = RatFunc(UPoly(num), UPoly(den))
    assert _sigma_int(Section.of(x, RatFunc(UPoly())), model) == sigma


@pytest.mark.parametrize("num, den", [((1,), (-1, 3, -3, 1)), ((0, 0, 0, 0, 0, 1), (1,))])
def test_sigma_rejects_odd_pole_orders(num, den):
    from prymkit.fibration import _sigma_int

    model = WeierstrassFamily(UPoly(), UPoly((0, 1)), UPoly((1,)))
    x = RatFunc(UPoly(num), UPoly(den))
    with pytest.raises(ValueError, match="odd pole order"):
        _sigma_int(Section.of(x, RatFunc(UPoly())), model)


def test_deep_tangency_at_a_shared_node_is_rejected(section_set, pairing):
    # a curve through the node of T1 at the place f, meeting T1 to order two
    # there: the correction for a node met once no longer applies
    t1 = section_set.t1
    f = squarefree_places(pairing.node_set(t1))[0][0]
    tangent = Section(RatFunc(f * f), RatFunc(f * f * UPoly.x()), "tangent to T1")
    with pytest.raises(ValueError, match="deep tangency"):
        pairing(t1, tangent)
