"""Sparse multivariate polynomials over exact rationals.

An MPoly in n variables maps exponent n-tuples to nonzero Fractions; the
variables are positional.  The pencil's Hermite biquadratics live in
(x, x0), n = 2, and the rank locus of the net of quadrics in (a0, a1, a2),
n = 3.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .rat import rat, rat_str
from .upoly import UPoly


class MPoly:
    __slots__ = ("n", "m")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.m = {}
        for k, v in (terms or {}).items():
            if len(k) != n:
                raise ValueError(f"exponent {k!r} is not an {n}-tuple")
            v = rat(v)
            if v:
                self.m[tuple(k)] = v

    # -- constructors ----------------------------------------------------
    @classmethod
    def var(cls, i: int, n: int) -> "MPoly":
        return _new(n, {tuple(int(j == i) for j in range(n)): Fraction(1)})

    @classmethod
    def const(cls, a, n: int) -> "MPoly":
        return cls(n, {(0,) * n: a})

    @classmethod
    def from_upoly(cls, p: UPoly, i: int, n: int) -> "MPoly":
        """p as a polynomial in variable i."""
        return _new(n, {tuple(e if j == i else 0 for j in range(n)): a
                        for e, a in enumerate(p.c) if a})

    # -- queries -----------------------------------------------------------
    def __bool__(self):
        return bool(self.m)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other, self.n)
        if isinstance(other, MPoly):
            return self.n == other.n and self.m == other.m
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.m.items())))

    def deg(self, i: int) -> int:
        return max((k[i] for k in self.m), default=-1)

    def coeff(self, *k) -> Fraction:
        return self.m.get(k, Fraction(0))

    # -- arithmetic ----------------------------------------------------------
    def _lift(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.n != self.n:
                raise ValueError("polynomials in different numbers of variables")
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(other, self.n)
        raise TypeError(f"cannot combine an MPoly with {other!r}")

    def __add__(self, other) -> "MPoly":
        m = dict(self.m)
        for k, v in self._lift(other).m.items():
            w = m.get(k, 0) + v
            if w:
                m[k] = w
            else:
                del m[k]
        return _new(self.n, m)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _new(self.n, {k: -v for k, v in self.m.items()})

    def __sub__(self, other) -> "MPoly":
        return self + -self._lift(other)

    def __rsub__(self, other) -> "MPoly":
        return self._lift(other) - self

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            return _new(self.n, {k: v * q for k, v in self.m.items()} if q else {})
        other = self._lift(other)
        m = {}
        for k1, a in self.m.items():
            for k2, b in other.m.items():
                k = tuple(map(add, k1, k2))
                m[k] = m.get(k, 0) + a * b
        return _new(self.n, {k: v for k, v in m.items() if v})

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MPoly":
        r, b = MPoly.const(1, self.n), self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    # -- structure, substitution and evaluation -----------------------------
    def permute(self, order) -> "MPoly":
        """The polynomial whose exponent of variable j is this one's exponent
        of variable order[j]; permute((1, 0)) swaps two variables."""
        return _new(self.n, {tuple(k[j] for j in order): v for k, v in self.m.items()})

    def deriv(self, i: int) -> "MPoly":
        out = {}
        for k, v in self.m.items():
            if k[i]:
                out[k[:i] + (k[i] - 1,) + k[i + 1:]] = v * k[i]
        return _new(self.n, out)

    def subs(self, i: int, v) -> "MPoly":
        """Substitute the rational v for variable i; the result does not
        involve variable i."""
        v = rat(v)
        out = {}
        for k, c in self.m.items():
            k2 = k[:i] + (0,) + k[i + 1:]
            out[k2] = out.get(k2, 0) + c * v ** k[i]
        return _new(self.n, {k: c for k, c in out.items() if c})

    def __call__(self, *vals):
        """The value at vals, one per variable.  A value may be a rational or
        anything that multiplies with Fractions, such as a UPoly."""
        if len(vals) != self.n:
            raise ValueError(f"need {self.n} values")
        acc = Fraction(0)
        for k, c in self.m.items():
            for v, e in zip(vals, k):
                if e:
                    c = c * v**e
            acc = acc + c
        return acc

    def to_upoly(self) -> UPoly:
        """p(t, ..., t) as a UPoly in t.  Once every variable but one has been
        substituted, this is the polynomial in the remaining one."""
        acc = {}
        for k, c in self.m.items():
            d = sum(k)
            acc[d] = acc.get(d, 0) + c
        return _upoly(acc)

    def upoly_rows(self) -> list:
        """A bivariate p(x, y) by ascending powers of x, each coefficient a
        UPoly in y."""
        if self.n != 2:
            raise ValueError("rows need a bivariate polynomial")
        rows = [{} for _ in range(self.deg(0) + 1)]
        for (i, j), c in self.m.items():
            rows[i][j] = c
        return [_upoly(r) for r in rows]

    def scaled_subs(self, scale_sq) -> "MPoly":
        """Substitute x_i -> s x_i for every variable, with s^2 = scale_sq.

        Requires every monomial to have even total degree, so the result
        is again rational; raises otherwise.
        """
        s2 = rat(scale_sq)
        out = {}
        for k, v in self.m.items():
            d = sum(k)
            if d % 2:
                raise ValueError("odd total degree; substitution leaves the rationals")
            out[k] = v * s2 ** (d // 2)
        return _new(self.n, out)

    # -- exact division --------------------------------------------------------
    def exact_divide(self, d: "MPoly") -> "MPoly":
        """Exact quotient self / d by division on lex-leading terms; raises
        ValueError carrying the remainder when d does not divide self."""
        d = self._lift(d)
        if not d:
            raise ZeroDivisionError("division by zero polynomial")
        lead = max(d.m)
        lc = d.m[lead]
        rem = dict(self.m)
        quo = {}
        while rem:
            top = max(rem)
            shift = tuple(a - b for a, b in zip(top, lead))
            if min(shift) < 0:
                raise ValueError(f"non-exact division, remainder {_new(self.n, rem)!r}")
            f = rem[top] / lc
            quo[shift] = f
            for k, v in d.m.items():
                k = tuple(map(add, shift, k))
                w = rem.get(k, 0) - f * v
                if w:
                    rem[k] = w
                else:
                    del rem[k]
        return _new(self.n, quo)

    # -- serialization -----------------------------------------------------------
    def to_json(self):
        return [[*k, rat_str(v)] for k, v in sorted(self.m.items())]

    def __repr__(self):
        terms = [rat_str(v) + "".join(f"*x{i}^{e}" for i, e in enumerate(k) if e)
                 for k, v in sorted(self.m.items())]
        return "MPoly(" + (" + ".join(terms) or "0") + ")"


# The benchmark's tracer names its targets bpoly.BPoly.__mul__ and
# bpoly.BPoly.exact_divide; this alias exists only for those names.
BPoly = MPoly


def _new(n: int, m: dict) -> MPoly:
    out = MPoly.__new__(MPoly)
    out.n, out.m = n, m
    return out


def _upoly(d: dict) -> UPoly:
    return UPoly([d.get(e, 0) for e in range(max(d, default=-1) + 1)])
