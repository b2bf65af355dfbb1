"""Genus-2 curves: 2-torsion combinatorics, Richelot construction, and
the explicit isogenous normal forms attached to a square-split modulus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .rat import Rat, rat, sqrt_exact
from .upoly import UPoly, bracket
from .invariants import IgusaClebsch, igusa_clebsch as _ic_sextic

INF = object()  # marker for the branch point at infinity


# -- two-torsion group --------------------------------------------------------


@dataclass(frozen=True)
class TwoTorsionPoint:
    """Element of the 2-torsion group, encoded by a pair of Weierstrass
    indices in {1..6}; the identity is the empty index set."""

    idx: frozenset

    def __post_init__(self):
        s = self.idx
        if len(s) not in (0, 2) or not s <= frozenset(range(1, 7)):
            raise ValueError(f"invalid index pair {set(s)}")

    @classmethod
    def identity(cls) -> "TwoTorsionPoint":
        return cls(frozenset())

    @classmethod
    def of(cls, i: int, j: int) -> "TwoTorsionPoint":
        if i == j:
            if i == 6:
                return cls(frozenset())
            raise ValueError("p_{ii} is only the identity for i = 6")
        return cls(frozenset((i, j)))

    @property
    def is_identity(self) -> bool:
        return not self.idx

    def __repr__(self):
        if self.is_identity:
            return "p0"
        i, j = sorted(self.idx)
        return f"p{i}{j}"


def two_torsion_sum(a: TwoTorsionPoint, b: TwoTorsionPoint) -> TwoTorsionPoint:
    s = a.idx ^ b.idx
    if len(s) == 4:
        s = frozenset(range(1, 7)) - s
    return TwoTorsionPoint(s)


def weil_pairing(a: TwoTorsionPoint, b: TwoTorsionPoint) -> int:
    return len(a.idx & b.idx) % 2


def all_two_torsion():
    pts = [TwoTorsionPoint.identity()]
    pts += [
        TwoTorsionPoint(frozenset(p)) for p in itertools.combinations(range(1, 7), 2)
    ]
    return pts


def enumerate_goepel():
    """All maximal isotropic subgroups of order 4 (as frozensets of points)."""
    pts = [p for p in all_two_torsion() if not p.is_identity]
    groups = set()
    for a, b in itertools.combinations(pts, 2):
        if weil_pairing(a, b):
            continue
        g = frozenset(
            {TwoTorsionPoint.identity(), a, b, two_torsion_sum(a, b)}
        )
        if len(g) == 4:
            groups.add(g)
    return sorted(groups, key=lambda g: sorted(sorted(p.idx) for p in g))


def goepel_partition(group):
    """The 2+2+2 partition of {1..6} carried by a Goepel group."""
    pairs = sorted(tuple(sorted(p.idx)) for p in group if not p.is_identity)
    flat = [i for pr in pairs for i in pr]
    if sorted(flat) != list(range(1, 7)):
        raise ValueError("group does not induce a partition")
    return pairs


# -- curves and moduli ----------------------------------------------------------


@dataclass(frozen=True)
class RosenhainPoint:
    """Branch points (l1, l2, l3) of eta^2 = xi (xi-1)(xi-l1)(xi-l2)(xi-l3)."""

    l1: Rat
    l2: Rat
    l3: Rat

    def __post_init__(self):
        ls = (rat(self.l1), rat(self.l2), rat(self.l3))
        object.__setattr__(self, "l1", ls[0])
        object.__setattr__(self, "l2", ls[1])
        object.__setattr__(self, "l3", ls[2])
        if len(set(ls)) != 3:
            raise ValueError("branch points must be pairwise distinct")
        if any(v in (0, 1) for v in ls):
            raise ValueError("branch points must avoid 0 and 1")
        if ls[0] == ls[1] * ls[2]:
            raise ValueError("l1 = l2*l3 degenerates the quadratic factorization")

    def branch_value(self, i: int):
        return {
            1: self.l1,
            2: self.l2,
            3: self.l3,
            4: Fraction(0),
            5: Fraction(1),
            6: INF,
        }[i]


@dataclass(frozen=True)
class Genus2Curve:
    """eta^2 = f(xi) with f squarefree of degree 5 or 6; ic holds its
    Igusa-Clebsch invariants, computed once.  Their I10 is the discriminant
    of f read as a binary sextic (disc(f) lc^2 for a quintic), so it
    vanishes exactly when f has a repeated root."""

    f: UPoly
    ic: IgusaClebsch = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.f.degree not in (5, 6):
            raise ValueError("curve polynomial must have degree 5 or 6")
        ic = _ic_sextic(self.f)
        if ic.i10 == 0:
            raise ValueError("curve is singular (repeated root)")
        object.__setattr__(self, "ic", ic)

    def to_json(self):
        return self.f.to_json()


def rosenhain_curve(p: RosenhainPoint) -> Genus2Curve:
    return Genus2Curve(UPoly.from_roots([0, 1, p.l1, p.l2, p.l3]))


@dataclass(frozen=True)
class CoverPoint:
    """A Rosenhain point with chosen square roots k15^2 = l1, k23^2 = l2 l3."""

    base: RosenhainPoint
    k15: Rat
    k23: Rat

    def __post_init__(self):
        k15, k23 = rat(self.k15), rat(self.k23)
        object.__setattr__(self, "k15", k15)
        object.__setattr__(self, "k23", k23)
        if k15 * k15 != self.base.l1:
            raise ValueError("k15^2 != l1")
        if k23 * k23 != self.base.l2 * self.base.l3:
            raise ValueError("k23^2 != l2*l3")
        if self.lam2 == self.lam3:
            raise ValueError("degenerate moduli: Lambda2 = Lambda3")

    @property
    def ell(self) -> Rat:
        return self.k15 * self.k23

    @property
    def lam1(self) -> Rat:
        b = self.base
        return (b.l1 + b.l2 * b.l3) / self.ell

    @property
    def lam2(self) -> Rat:
        b = self.base
        return (b.l2 + b.l1 * b.l3) / self.ell

    @property
    def lam3(self) -> Rat:
        b = self.base
        return (b.l3 + b.l1 * b.l2) / self.ell


# -- invariants ------------------------------------------------------------------


def igusa_clebsch(c: Genus2Curve) -> IgusaClebsch:
    return c.ic


# -- Richelot construction ---------------------------------------------------------


def partition_quadratics(p: RosenhainPoint, pairs):
    """Quadratic (or linear, when infinity is involved) factors for a
    2+2+2 pairing of the Weierstrass indices."""
    out = []
    for i, j in pairs:
        vi, vj = p.branch_value(i), p.branch_value(j)
        if vi is INF and vj is INF:
            raise ValueError("pair cannot contain infinity twice")
        if vi is INF:
            out.append(UPoly((-rat(vj), 1)))
        elif vj is INF:
            out.append(UPoly((-rat(vi), 1)))
        else:
            out.append(UPoly.from_roots([vi, vj]))
    return tuple(out)


def delta_abc(a: UPoly, b: UPoly, c: UPoly) -> Rat:
    """Determinant of the coefficient matrix of (a, b, c) in the basis
    (xi^2, xi, 1)."""
    from .quadforms import det

    return det([[q.coeff(2), q.coeff(1), q.coeff(0)] for q in (a, b, c)])


def richelot(c: Genus2Curve, factors) -> Genus2Curve:
    """Image curve of the quadratic-splitting construction.

    factors = (A, B, C) with A*B*C = f up to a constant; the result is the
    solved form eta^2 = [A,B][A,C][B,C] / Delta_ABC.
    """
    a, b, cq = factors
    prod = a * b * cq
    ratio_num = c.f * prod.lead
    ratio_den = prod * c.f.lead
    if ratio_num != ratio_den:
        raise ValueError("factors do not multiply to the curve polynomial")
    d = delta_abc(a, b, cq)
    if d == 0:
        raise ValueError("curve admits elliptic involution (degenerate splitting)")
    g = bracket(a, b) * bracket(a, cq) * bracket(b, cq)
    return Genus2Curve(g * (1 / d))


def richelot_from_goepel(p: RosenhainPoint, group) -> Genus2Curve:
    return richelot(rosenhain_curve(p), partition_quadratics(p, goepel_partition(group)))


# -- isogenous normal form -----------------------------------------------------------


@dataclass(frozen=True)
class NormalFormCoeffs:
    """Quadratic-factor coefficients of the isogenous normal form; variant
    records which square root (k15 or k23) parametrizes the sheet."""

    c0: Rat
    c1: Rat
    c2: Rat
    variant: str

    def disc(self) -> Rat:
        return self.c1 * self.c1 - 4 * self.c0 * self.c2


def moduli_ef(coeffs: NormalFormCoeffs):
    """The rational roots e, f of c2 X^2 - c1 X + c0 (so e f = c0/c2 and
    e + f = c1/c2); the moduli must make the discriminant a square."""
    if coeffs.c2 == 0:
        raise ValueError("degenerate moduli: c2 = 0")
    disc = sqrt_exact(coeffs.disc())
    if disc is None:
        raise ValueError("choose moduli with split e, f: c1^2 - 4 c0 c2 "
                         "must be a rational square")
    e = (coeffs.c1 + disc) / (2 * coeffs.c2)
    f = (coeffs.c1 - disc) / (2 * coeffs.c2)
    return e, f


def normal_form_coeffs(cp: CoverPoint, variant: str = "k15") -> NormalFormCoeffs:
    l1, l2, l3 = cp.base.l1, cp.base.l2, cp.base.l3
    if variant == "k15":
        k = cp.k15
        c0 = (
            2 * (l1 - 5 * l2 * l3) * (5 * l1 - l2 * l3) * k
            + l1**3
            + l2**2 * l3**2
            - l1**2 * (34 * l2 * l3 - 24 * (l2 + l3) - 1)
            + l1 * l2 * l3 * (l2 * l3 + 24 * (l2 + l3) - 34)
        )
        c1 = (
            8 * (l1 + l2 * l3) * k
            - 2 * (6 * (l2 + l3) - l2 * l3 - 1) * l1
            + 2 * (l1**2 + l2 * l3)
        )
        c2 = l1 + 1 - 2 * k
    elif variant == "k23":
        k = cp.k23
        c0 = (
            2 * (l1 - 5 * l2 * l3) * (5 * l1 - l2 * l3) * k
            + (24 * l2 * l3 + l2 + l3) * l1**2
            + 2 * l1 * l2 * l3 * (12 * l2 * l3 - 17 * (l2 + l3) + 12)
            + l2**2 * l3**2 * (l2 + l3 + 24)
        )
        c1 = (
            8 * (l1 + l2 * l3) * k
            - 2 * (6 * l2 * l3 - l2 - l3) * l1
            + 2 * (l2 + l3 - 6) * l2 * l3
        )
        c2 = l2 + l3 - 2 * k
    else:
        raise ValueError("variant must be 'k15' or 'k23'")
    nf = NormalFormCoeffs(c0, c1, c2, variant)
    expected = (
        144 * k * k * (l2 - 1) * (l3 - 1) * (l2 - l1) * (l3 - l1)
    )
    if nf.disc() != expected:
        raise AssertionError("normal-form discriminant identity violated")
    return nf


def isogenous_normal_form(cp: CoverPoint, variant: str = "k15"):
    """The explicit quintic model of the quotient curve, with its
    quadratic-factor coefficients."""
    nf = normal_form_coeffs(cp, variant)
    if nf.c2 == 0:
        raise ValueError("c2 = 0: source curve is singular")
    l1, l2, l3 = cp.base.l1, cp.base.l2, cp.base.l3
    s = l1 + l2 * l3
    lin = UPoly((-2 * s, 1))
    quad1 = UPoly((s * s - 36 * l1 * l2 * l3, 2 * s, 1))
    quad2 = UPoly((nf.c0, nf.c1, nf.c2))
    return Genus2Curve(lin * quad1 * quad2), nf


# -- the split bielliptic genus-3 cover and its elliptic quotient ------------------


def bielliptic_h_and_e(p: RosenhainPoint):
    """The degree-8 even model upsilon^2 = (z^2-1)(z^2-l1)(z^2-l2)(z^2-l3)
    together with the j-invariant of its elliptic quotient."""
    h = UPoly.one()
    for v in (Fraction(1), p.l1, p.l2, p.l3):
        h = h * UPoly((-v, 0, 1))
    s1 = p.l1 + p.l2 + p.l3
    s2 = p.l1 * p.l2 + p.l1 * p.l3 + p.l2 * p.l3
    s3 = p.l1 * p.l2 * p.l3
    num = 256 * (s1 * s1 - s1 * s2 - 3 * s1 * s3 + s2 * s2 - 3 * s2 + 9 * s3) ** 3
    den = (
        (p.l1 - 1) ** 2
        * (p.l2 - 1) ** 2
        * (p.l3 - 1) ** 2
        * (p.l1 - p.l2) ** 2
        * (p.l1 - p.l3) ** 2
        * (p.l2 - p.l3) ** 2
    )
    return h, num / den
