"""Sparse multivariate polynomials over exact rationals.

An MPoly in n variables maps exponent n-tuples to nonzero int numerators
over one shared denominator den > 0, in the canonical form of UPoly: the
gcd of den and every numerator is 1, so equal polynomials have equal
(m, den).  The variables are positional.  The pencil's Hermite biquadratics
live in (x, x0), n = 2, and the rank locus of the net of quadrics in
(a0, a1, a2), n = 3.  Every ring operation runs on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from operator import add

from .rat import rat, rat_str
from .upoly import UPoly, _from_ints


class MPoly:
    __slots__ = ("n", "m", "den")

    def __init__(self, n: int, terms=None):
        vals = {}
        for k, v in (terms or {}).items():
            if len(k) != n:
                raise ValueError(f"exponent {k!r} is not an {n}-tuple")
            v = v if isinstance(v, (int, Fraction)) else rat(v)
            if v:
                vals[tuple(k)] = v
        # as in UPoly, scaling by the lcm of reduced denominators is canonical
        den = lcm(*(v.denominator for v in vals.values()))
        self.n, self.den = n, den
        self.m = {k: v.numerator * (den // v.denominator) for k, v in vals.items()}

    # -- constructors ----------------------------------------------------
    @classmethod
    def var(cls, i: int, n: int) -> "MPoly":
        return _new(n, {tuple(int(j == i) for j in range(n)): 1}, 1)

    @classmethod
    def const(cls, a, n: int) -> "MPoly":
        return cls(n, {(0,) * n: a})

    @classmethod
    def from_upoly(cls, p: UPoly, i: int, n: int) -> "MPoly":
        """p as a polynomial in variable i."""
        return _new(n, {tuple(e if j == i else 0 for j in range(n)): a
                        for e, a in enumerate(p.n) if a}, p.d)

    # -- queries -----------------------------------------------------------
    def __bool__(self):
        return bool(self.m)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other, self.n)
        if isinstance(other, MPoly):
            return self.n == other.n and self.den == other.den and self.m == other.m
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.den, frozenset(self.m.items())))

    def deg(self, i: int) -> int:
        return max((k[i] for k in self.m), default=-1)

    def coeff(self, *k) -> Fraction:
        return Fraction(self.m.get(k, 0), self.den)

    # -- arithmetic ----------------------------------------------------------
    def _lift(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.n != self.n:
                raise ValueError("polynomials in different numbers of variables")
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(other, self.n)
        raise TypeError(f"cannot combine an MPoly with {other!r}")

    def _combine(self, other, sign: int) -> "MPoly":
        """self + sign * other over the lcm of the two denominators."""
        other = self._lift(other)
        d, fb = self.den, sign
        if d == other.den:
            m = dict(self.m)
        else:
            g = int_gcd(d, other.den)
            fa, fb = other.den // g, sign * (d // g)
            d *= fa
            m = {k: v * fa for k, v in self.m.items()}
        for k, v in other.m.items():
            w = m.get(k, 0) + v * fb
            if w:
                m[k] = w
            else:
                del m[k]
        return _canon(self.n, m, d)

    def __add__(self, other) -> "MPoly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _new(self.n, {k: -v for k, v in self.m.items()}, self.den)

    def __sub__(self, other) -> "MPoly":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "MPoly":
        return self._lift(other) - self

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return _new(self.n, {}, 1)
            p = other.numerator
            return _canon(self.n, {k: v * p for k, v in self.m.items()},
                          self.den * other.denominator)
        other = self._lift(other)
        m = {}
        right = list(other.m.items())
        for k1, a in self.m.items():
            for k2, b in right:
                k = tuple(map(add, k1, k2))
                m[k] = m.get(k, 0) + a * b
        return _canon(self.n, {k: v for k, v in m.items() if v}, self.den * other.den)

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
        return _new(self.n, {tuple(k[j] for j in order): v for k, v in self.m.items()},
                    self.den)

    def deriv(self, i: int) -> "MPoly":
        out = {}
        for k, v in self.m.items():
            if k[i]:
                out[k[:i] + (k[i] - 1,) + k[i + 1:]] = v * k[i]
        return _canon(self.n, out, self.den)

    def subs(self, i: int, v) -> "MPoly":
        """Substitute the rational v = p/q for variable i; the result does not
        involve variable i.  A term of degree e gets p^e q^(K-e), K = deg_i,
        and the denominator q^K once."""
        if not self.m:
            return self
        v = rat(v)
        top = self.deg(i)
        p, q = v.numerator, v.denominator
        pw = [p**e * q ** (top - e) for e in range(top + 1)]
        out = {}
        for k, c in self.m.items():
            k2 = k[:i] + (0,) + k[i + 1:]
            out[k2] = out.get(k2, 0) + c * pw[k[i]]
        return _canon(self.n, {k: c for k, c in out.items() if c}, self.den * q**top)

    def __call__(self, *vals):
        """The value at vals, one per variable.  A value may be a rational or
        anything that multiplies with Fractions, such as a UPoly."""
        if len(vals) != self.n:
            raise ValueError(f"need {self.n} values")
        acc = 0
        for k, c in self.m.items():
            for v, e in zip(vals, k):
                if e:
                    c = c * v**e
            acc = acc + c
        return acc * Fraction(1, self.den)

    def to_upoly(self) -> UPoly:
        """p(t, ..., t) as a UPoly in t.  Once every variable but one has been
        substituted, this is the polynomial in the remaining one."""
        acc = {}
        for k, c in self.m.items():
            d = sum(k)
            acc[d] = acc.get(d, 0) + c
        return _upoly(acc, self.den)

    def upoly_rows(self) -> list:
        """A bivariate p(x, y) by ascending powers of x, each coefficient a
        UPoly in y."""
        if self.n != 2:
            raise ValueError("rows need a bivariate polynomial")
        rows = [{} for _ in range(self.deg(0) + 1)]
        for (i, j), c in self.m.items():
            rows[i][j] = c
        return [_upoly(r, self.den) for r in rows]

    def scaled_subs(self, scale_sq) -> "MPoly":
        """Substitute x_i -> s x_i for every variable, with s^2 = scale_sq = p/q.

        Requires every monomial to have even total degree, so the result
        is again rational; raises otherwise.  A term of total degree 2h
        gets p^h q^(H-h), H the largest h, and the denominator q^H once.
        """
        s2 = rat(scale_sq)
        halves = {}
        for k in self.m:
            d = sum(k)
            if d % 2:
                raise ValueError("odd total degree; substitution leaves the rationals")
            halves[k] = d // 2
        top = max(halves.values(), default=0)
        p, q = s2.numerator, s2.denominator
        pw = [p**h * q ** (top - h) for h in range(top + 1)]
        out = {k: v * pw[halves[k]] for k, v in self.m.items()}
        return _canon(self.n, {k: v for k, v in out.items() if v}, self.den * q**top)

    # -- exact division --------------------------------------------------------
    def exact_divide(self, d: "MPoly") -> "MPoly":
        """Exact quotient self / d by division on lex-leading terms; raises
        ValueError carrying the remainder when d does not divide self.

        The division is fraction-free on the numerators A of self and the
        primitive part P of d's: it keeps s A = Q P + R over Z, and a step
        whose top coefficient lc(P) does not divide scales R, Q and s by
        lc(P)/gcd(top, lc(P)).  When d divides self, Q is integral (Gauss's
        lemma) and no step scales."""
        d = self._lift(d)
        if not d:
            raise ZeroDivisionError("division by zero polynomial")
        cont = int_gcd(*d.m.values())
        div = [(k, v // cont) for k, v in d.m.items()]
        lead = max(d.m)
        lc = d.m[lead] // cont
        rem = dict(self.m)
        quo = {}
        s = 1
        while rem:
            top = max(rem)
            shift = tuple(a - b for a, b in zip(top, lead))
            if min(shift) < 0:
                rem = _canon(self.n, rem, s * self.den)
                raise ValueError(f"non-exact division, remainder {rem!r}")
            g = int_gcd(rem[top], lc)
            if lc < 0:
                g = -g
            mult, f = lc // g, rem[top] // g
            if mult != 1:
                rem = {k: v * mult for k, v in rem.items()}
                quo = {k: v * mult for k, v in quo.items()}
                s *= mult
            quo[shift] = f
            for k, v in div:
                k = tuple(map(add, shift, k))
                w = rem.get(k, 0) - f * v
                if w:
                    rem[k] = w
                else:
                    del rem[k]
        return _canon(self.n, {k: v * d.den for k, v in quo.items()}, s * self.den * cont)

    # -- serialization -----------------------------------------------------------
    def to_json(self):
        return [[*k, rat_str(Fraction(v, self.den))] for k, v in sorted(self.m.items())]

    def __repr__(self):
        terms = [rat_str(Fraction(v, self.den)) + "".join(f"*x{i}^{e}" for i, e in enumerate(k) if e)
                 for k, v in sorted(self.m.items())]
        return "MPoly(" + (" + ".join(terms) or "0") + ")"


# The benchmark's tracer names its targets bpoly.BPoly.__mul__ and
# bpoly.BPoly.exact_divide; this alias exists only for those names.
BPoly = MPoly


def _new(n: int, m: dict, den: int) -> MPoly:
    """An MPoly from numerators and a denominator already in canonical form."""
    out = MPoly.__new__(MPoly)
    out.n, out.m, out.den = n, m, den
    return out


def _canon(n: int, m: dict, den: int) -> MPoly:
    """The MPoly m / den for nonzero int numerators m and an int den > 0,
    with the common factor removed."""
    if den != 1:
        g = int_gcd(den, *m.values())
        if g != 1:
            m = {k: v // g for k, v in m.items()}
            den //= g
    return _new(n, m, den)


def _upoly(d: dict, den: int) -> UPoly:
    return _from_ints([d.get(e, 0) for e in range(max(d, default=-1) + 1)], den)
