"""Ternary quadratic forms, a cofactor determinant and the determinants of
nets of quadrics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rat import rat, rat_str
from .upoly import UPoly
from .bpoly import MPoly


@dataclass(frozen=True)
class QuadForm3:
    """Symmetric 3x3 Gram matrix of a quadratic form in (X, Y, Z)."""

    m: tuple  # 3x3 nested tuples of Fractions

    @classmethod
    def from_entries(cls, rows) -> "QuadForm3":
        m = tuple(tuple(rat(v) for v in r) for r in rows)
        for i in range(3):
            for j in range(3):
                if m[i][j] != m[j][i]:
                    raise ValueError("matrix is not symmetric")
        return cls(m)

    @classmethod
    def from_xy_quadratic(cls, b: MPoly, z2_coeff=0) -> "QuadForm3":
        """Gram matrix of b(X, Y) + z2_coeff * Z^2 for homogeneous b of
        degree 2."""
        c20, c11, c02 = b.coeff(2, 0), b.coeff(1, 1), b.coeff(0, 2)
        if b != MPoly(2, {(2, 0): c20, (1, 1): c11, (0, 2): c02}):
            raise ValueError("not a homogeneous quadratic in (X, Y)")
        return cls.from_entries(
            [
                [c20, c11 / 2, 0],
                [c11 / 2, c02, 0],
                [0, 0, rat(z2_coeff)],
            ]
        )

    def evaluate(self, x, y, z) -> Fraction:
        v = (rat(x), rat(y), rat(z))
        return sum(self.m[i][j] * v[i] * v[j] for i in range(3) for j in range(3))

    def scale(self, c) -> "QuadForm3":
        c = rat(c)
        return QuadForm3(tuple(tuple(v * c for v in r) for r in self.m))

    def add(self, other: "QuadForm3") -> "QuadForm3":
        return QuadForm3(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.m, other.m)
            )
        )

    def to_json(self):
        return [[rat_str(v) for v in r] for r in self.m]


def det(rows):
    """Determinant of a square matrix by cofactor expansion along the first
    row; the entries are Fractions, UPolys or MPolys."""
    if len(rows) == 1:
        return rows[0][0]
    acc = rows[0][0] - rows[0][0]
    for j, a in enumerate(rows[0]):
        if not a:
            continue
        term = a * det([r[:j] + r[j + 1:] for r in rows[1:]])
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def det3_upoly(mats) -> UPoly:
    """Determinant of sum_k c_k(xi) * M_k where the c_k are UPoly weights;
    mats is [(weight UPoly, QuadForm3), ...]; entries become UPoly in xi."""
    n = 3
    entries = [[UPoly() for _ in range(n)] for _ in range(n)]
    for w, q in mats:
        for i in range(n):
            for j in range(n):
                if q.m[i][j]:
                    entries[i][j] = entries[i][j] + w * q.m[i][j]
    return det(entries)


def _net(mats):
    """The matrix a0 M0 + a1 M1 + a2 M2 with MPoly entries in (a0, a1, a2)."""
    a = [MPoly.var(k, 3) for k in range(3)]
    n = len(mats[0])
    return [
        [sum((a[k] * mats[k][i][j] for k in range(3)), MPoly(3)) for j in range(n)]
        for i in range(n)
    ]


def det_pencil3(q0: QuadForm3, q1: QuadForm3, q2: QuadForm3) -> MPoly:
    """det(a0 q0 + a1 q1 + a2 q2) as a homogeneous cubic in (a0, a1, a2)."""
    return det(_net((q0.m, q1.m, q2.m)))


def det_pencil5(mats5) -> MPoly:
    """det(sum a_k M_k) for 5x5 symmetric rational matrices."""
    return det(_net(mats5))
