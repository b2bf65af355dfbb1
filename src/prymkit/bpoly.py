"""Sparse bivariate polynomials over exact rationals.

Keys are (i, j) exponent pairs for x^i * y^j; only nonzero coefficients
are stored.  The two variables are positional ("x" is the first slot).
"""

from __future__ import annotations

from fractions import Fraction

from .rat import rat, rat_str
from .upoly import UPoly


class BPoly:
    __slots__ = ("m",)

    def __init__(self, entries=None):
        m = {}
        if entries:
            for (i, j), v in dict(entries).items():
                v = rat(v)
                if v != 0:
                    m[(int(i), int(j))] = v
        self.m = m

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls) -> "BPoly":
        return cls()

    @classmethod
    def const(cls, a) -> "BPoly":
        return cls({(0, 0): rat(a)})

    @classmethod
    def x(cls) -> "BPoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BPoly":
        return cls({(0, 1): 1})

    @classmethod
    def from_upoly(cls, p: UPoly, var: int = 0) -> "BPoly":
        if var == 0:
            return cls({(i, 0): a for i, a in enumerate(p.c)})
        return cls({(0, i): a for i, a in enumerate(p.c)})

    # -- queries -----------------------------------------------------------
    def __bool__(self):
        return bool(self.m)

    def __eq__(self, other):
        if isinstance(other, BPoly):
            return self.m == other.m
        if isinstance(other, (int, Fraction)):
            return self.m == ({} if other == 0 else {(0, 0): rat(other)})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.m.items()))

    def deg_x(self) -> int:
        return max((i for i, _ in self.m), default=-1)

    def deg_y(self) -> int:
        return max((j for _, j in self.m), default=-1)

    def coeff(self, i: int, j: int) -> Fraction:
        return self.m.get((i, j), Fraction(0))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other) -> "BPoly":
        other = _coerce(other)
        m = dict(self.m)
        for k, v in other.m.items():
            w = m.get(k, Fraction(0)) + v
            if w:
                m[k] = w
            else:
                m.pop(k, None)
        out = BPoly()
        out.m = m
        return out

    __radd__ = __add__

    def __neg__(self) -> "BPoly":
        out = BPoly()
        out.m = {k: -v for k, v in self.m.items()}
        return out

    def __sub__(self, other) -> "BPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "BPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "BPoly":
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            out = BPoly()
            if q != 0:
                out.m = {k: v * q for k, v in self.m.items()}
            return out
        other = _coerce(other)
        m = {}
        for (i1, j1), a in self.m.items():
            for (i2, j2), b in other.m.items():
                k = (i1 + i2, j1 + j2)
                w = m.get(k, Fraction(0)) + a * b
                if w:
                    m[k] = w
                else:
                    m.pop(k, None)
        out = BPoly()
        out.m = m
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BPoly":
        r, b = BPoly.const(1), self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    # -- structure -------------------------------------------------------------
    def swap(self) -> "BPoly":
        out = BPoly()
        out.m = {(j, i): v for (i, j), v in self.m.items()}
        return out

    def is_symmetric(self) -> bool:
        return self.swap() == self

    def as_upoly_in_x(self) -> list[UPoly]:
        """Coefficient list (ascending in x) with entries in Q[y]."""
        dx = self.deg_x()
        rows = [dict() for _ in range(dx + 1)]
        for (i, j), v in self.m.items():
            rows[i][j] = v
        out = []
        for row in rows:
            n = max(row, default=-1)
            out.append(UPoly([row.get(k, 0) for k in range(n + 1)]))
        return out

    @classmethod
    def from_upoly_rows(cls, rows) -> "BPoly":
        m = {}
        for i, p in enumerate(rows):
            for j, a in enumerate(p.c):
                if a:
                    m[(i, j)] = a
        out = cls()
        out.m = m
        return out

    # -- evaluation / substitution -----------------------------------------------
    def eval_x(self, v) -> UPoly:
        """Substitute x = v (rational); returns a UPoly in y."""
        v = rat(v)
        acc = {}
        for (i, j), a in self.m.items():
            acc[j] = acc.get(j, Fraction(0)) + a * v**i
        n = max(acc, default=-1)
        return UPoly([acc.get(k, 0) for k in range(n + 1)])

    def eval_y(self, v) -> UPoly:
        return self.swap().eval_x(v)

    def eval(self, vx, vy) -> Fraction:
        vx, vy = rat(vx), rat(vy)
        return sum((a * vx**i * vy**j for (i, j), a in self.m.items()), Fraction(0))

    def deriv_x(self) -> "BPoly":
        out = BPoly()
        out.m = {(i - 1, j): v * i for (i, j), v in self.m.items() if i > 0}
        return out

    def deriv_y(self) -> "BPoly":
        return self.swap().deriv_x().swap()

    def scaled_subs(self, scale_sq: Fraction) -> "BPoly":
        """Substitute (x, y) -> (s*X, s*Y) with s^2 = scale_sq.

        Requires every monomial to have even total degree, so the result
        is again rational; raises otherwise.
        """
        s2 = rat(scale_sq)
        m = {}
        for (i, j), v in self.m.items():
            if (i + j) % 2:
                raise ValueError("odd total degree; substitution leaves the rationals")
            m[(i, j)] = v * s2 ** ((i + j) // 2)
        out = BPoly()
        out.m = m
        return out

    # -- exact division --------------------------------------------------------
    def exact_divide(self, q: "BPoly") -> "BPoly":
        """Exact quotient self / q; raises ValueError carrying the remainder."""
        q = _coerce(q)
        if not q:
            raise ZeroDivisionError("division by zero polynomial")
        num = self.as_upoly_in_x()
        den = q.as_upoly_in_x()
        dq = len(den) - 1
        lead = den[-1]
        quo_rows = []
        rem = list(num)
        while len(rem) - 1 >= dq and any(bool(r) for r in rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < dq:
                break
            try:
                f = rem[-1].exact_div(lead)
            except ValueError:
                raise ValueError(
                    f"non-exact division, remainder {BPoly.from_upoly_rows(rem)!r}"
                )
            k = len(rem) - 1 - dq
            while len(quo_rows) <= k:
                quo_rows.append(UPoly())
            quo_rows[k] = quo_rows[k] + f
            for i, b in enumerate(den):
                rem[k + i] = rem[k + i] - f * b
            rem.pop()
        while rem and not rem[-1]:
            rem.pop()
        if any(bool(r) for r in rem):
            raise ValueError(
                f"non-exact division, remainder {BPoly.from_upoly_rows(rem)!r}"
            )
        return BPoly.from_upoly_rows(quo_rows)

    # -- serialization -----------------------------------------------------------
    def to_json(self):
        return [[i, j, rat_str(v)] for (i, j), v in sorted(self.m.items())]

    @classmethod
    def from_json(cls, arr) -> "BPoly":
        return cls({(int(i), int(j)): rat(str(v)) for i, j, v in arr})

    def __repr__(self):
        if not self.m:
            return "BPoly(0)"
        parts = [f"{rat_str(v)}*x^{i}*y^{j}" for (i, j), v in sorted(self.m.items())]
        return "BPoly(" + " + ".join(parts) + ")"


def _coerce(v) -> BPoly:
    if isinstance(v, BPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return BPoly.const(v)
    if isinstance(v, UPoly):
        return BPoly.from_upoly(v)
    raise TypeError(f"cannot coerce {v!r} to BPoly")
