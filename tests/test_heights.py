from fractions import Fraction

import pytest

from prymkit.factorq import squarefree_places
from prymkit.fibration import (
    Section,
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


def test_sections_avoid_zero_section_and_each_other(section_set):
    from prymkit.fibration import _contact

    model = section_set.model
    for a, b in (("s1", "s2"), ("s1", "s3"), ("s2", "s3")):
        total, _ = _contact(getattr(section_set, a), getattr(section_set, b), model)
        assert total == 0


def test_torsion_meets_nontorsion_twice(section_set):
    from prymkit.fibration import _contact

    model = section_set.model
    for t in ("t1", "t2", "t3"):
        for s in ("s1", "s2", "s3"):
            total, _ = _contact(getattr(section_set, t), getattr(section_set, s), model)
            assert total == 2


def test_torsion_pairs_meet_only_at_nodes(section_set):
    from prymkit.fibration import _contact, _passes_node

    model = section_set.model
    total, per = _contact(section_set.t1, section_set.t2, model)
    assert total == 4
    for place, mult in per.items():
        assert mult == 1
        assert _passes_node(section_set.t1, model, place)
        assert _passes_node(section_set.t2, model, place)


def test_each_torsion_passes_eight_nodes(section_set):
    from prymkit.fibration import _passes_node

    model = section_set.model
    places = [f for f, _ in squarefree_places(model.delta)]
    for t in ("t1", "t2", "t3"):
        sec = getattr(section_set, t)
        hit = sum(f.degree for f in places if _passes_node(sec, model, f))
        assert hit == 8
    for s in ("s1", "s2", "s3"):
        sec = getattr(section_set, s)
        hit = sum(f.degree for f in places if _passes_node(sec, model, f))
        assert hit == 0


def test_unsupported_fiber_types_rejected(cover):
    from prymkit.fibration import build_dual_kummer

    fam = build_dual_kummer(cover)  # has I4 fibers
    zero = Section.zero()
    with pytest.raises(ValueError, match="unsupported"):
        height_pairing(fam, zero, zero)
