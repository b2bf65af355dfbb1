"""Ternary quadratic forms and small trivariate polynomial helpers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rat import rat, rat_str
from .upoly import UPoly
from .bpoly import BPoly


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
    def from_xy_quadratic(cls, b: BPoly, z2_coeff=0) -> "QuadForm3":
        """Gram matrix of b(X, Y) + z2_coeff * Z^2 for homogeneous b of
        degree 2."""
        if b and any(i + j != 2 for i, j in b.m):
            raise ValueError("not a homogeneous quadratic in (X, Y)")
        return cls.from_entries(
            [
                [b.coeff(2, 0), b.coeff(1, 1) / 2, 0],
                [b.coeff(1, 1) / 2, b.coeff(0, 2), 0],
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
    row; the entries are Fractions, UPolys or TriPolys."""
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


class TriPoly:
    """Sparse homogeneous polynomials in three variables (a0, a1, a2)."""

    __slots__ = ("m",)

    def __init__(self, entries=None):
        m = {}
        if entries:
            for k, v in dict(entries).items():
                v = rat(v)
                if v != 0:
                    m[tuple(int(e) for e in k)] = v
        self.m = m

    @classmethod
    def var(cls, i: int) -> "TriPoly":
        k = [0, 0, 0]
        k[i] = 1
        return cls({tuple(k): 1})

    def __bool__(self):
        return bool(self.m)

    def __eq__(self, other):
        if isinstance(other, TriPoly):
            return self.m == other.m
        if other == 0:
            return not self.m
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.m.items()))

    def __add__(self, other):
        out = dict(self.m)
        for k, v in other.m.items():
            w = out.get(k, Fraction(0)) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        t = TriPoly()
        t.m = out
        return t

    def __neg__(self):
        t = TriPoly()
        t.m = {k: -v for k, v in self.m.items()}
        return t

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            t = TriPoly()
            if q:
                t.m = {k: v * q for k, v in self.m.items()}
            return t
        out = {}
        for k1, a in self.m.items():
            for k2, b in other.m.items():
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                w = out.get(k, Fraction(0)) + a * b
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
        t = TriPoly()
        t.m = out
        return t

    __rmul__ = __mul__

    def coeff(self, k) -> Fraction:
        return self.m.get(tuple(k), Fraction(0))

    def divide_by_var(self, i: int) -> "TriPoly":
        out = {}
        for k, v in self.m.items():
            if k[i] == 0:
                raise ValueError("not divisible by the variable")
            k2 = list(k)
            k2[i] -= 1
            out[tuple(k2)] = v
        t = TriPoly()
        t.m = out
        return t

    def subs_values(self, vals):
        acc = Fraction(0)
        for (i, j, k), v in self.m.items():
            acc += v * rat(vals[0]) ** i * rat(vals[1]) ** j * rat(vals[2]) ** k
        return acc

    def __repr__(self):
        parts = [f"{rat_str(v)}*a0^{i}a1^{j}a2^{k}" for (i, j, k), v in sorted(self.m.items())]
        return "TriPoly(" + (" + ".join(parts) or "0") + ")"


def _net(mats):
    """The matrix a0 M0 + a1 M1 + a2 M2 with TriPoly entries."""
    a = [TriPoly.var(k) for k in range(3)]
    n = len(mats[0])
    return [
        [sum((a[k] * mats[k][i][j] for k in range(3)), TriPoly()) for j in range(n)]
        for i in range(n)
    ]


def det_pencil3(q0: QuadForm3, q1: QuadForm3, q2: QuadForm3) -> TriPoly:
    """det(a0 q0 + a1 q1 + a2 q2) as a homogeneous cubic in (a0, a1, a2)."""
    return det(_net((q0.m, q1.m, q2.m)))


def det_pencil5(mats5) -> TriPoly:
    """det(sum a_k M_k) for 5x5 symmetric rational matrices."""
    return det(_net(mats5))
