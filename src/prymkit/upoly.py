"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored ascending by degree with trailing zeros trimmed.
The zero polynomial has degree -1 (sentinel).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .rat import rat, rat_str


class UPoly:
    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [rat(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "UPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UPoly":
        return cls((1,))

    @classmethod
    def const(cls, a) -> "UPoly":
        return cls((rat(a),))

    @classmethod
    def x(cls) -> "UPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, n: int, a=1) -> "UPoly":
        return cls((0,) * n + (rat(a),))

    @classmethod
    def from_roots(cls, roots, lead=1) -> "UPoly":
        p = cls.const(lead)
        for r in roots:
            p = p * cls((-rat(r), 1))
        return p

    # -- basic queries -------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, UPoly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self.c == (() if other == 0 else (rat(other),))
        return NotImplemented

    def __hash__(self):
        return hash(self.c)

    def coeff(self, i: int) -> Fraction:
        return self.c[i] if 0 <= i < len(self.c) else Fraction(0)

    @property
    def lead(self) -> Fraction:
        if not self.c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.c[-1]

    # -- ring operations -----------------------------------------------
    def __add__(self, other) -> "UPoly":
        other = _coerce(other)
        n = max(len(self.c), len(other.c))
        return UPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "UPoly":
        return UPoly([-a for a in self.c])

    def __sub__(self, other) -> "UPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "UPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "UPoly":
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            return UPoly([a * q for a in self.c])
        if not isinstance(other, UPoly):
            return NotImplemented
        if not self.c or not other.c:
            return UPoly()
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j, b in enumerate(other.c):
                if b:
                    out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UPoly":
        if n < 0:
            raise ValueError("negative power")
        r, b = UPoly.one(), self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __divmod__(self, other):
        other = _coerce(other)
        if not other.c:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, len(self.c) - len(other.c) + 1)
        r = list(self.c)
        d, lc = other.degree, other.lead
        while len(r) - 1 >= d and any(x != 0 for x in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            f = r[-1] / lc
            q[k] = f
            for i, b in enumerate(other.c):
                r[k + i] -= f * b
            r.pop()
        return UPoly(q), UPoly(r)

    def __floordiv__(self, other) -> "UPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "UPoly":
        return divmod(self, other)[1]

    def exact_div(self, other) -> "UPoly":
        q, r = divmod(self, _coerce(other))
        if r:
            raise ValueError(f"non-exact division, remainder {r}")
        return q

    # -- calculus and evaluation ----------------------------------------
    def derivative(self) -> "UPoly":
        return UPoly([i * a for i, a in enumerate(self.c)][1:])

    def __call__(self, v):
        """Evaluate by Horner; v may be a Fraction, int, UPoly, or any
        object supporting + and * with Fractions."""
        if not self.c:
            return Fraction(0) if isinstance(v, (int, Fraction)) else v * 0
        acc = self.c[-1] if isinstance(v, (int, Fraction)) else v * 0 + self.c[-1]
        for a in reversed(self.c[:-1]):
            acc = acc * v + a
        return acc

    def compose(self, other: "UPoly") -> "UPoly":
        acc = UPoly()
        for a in reversed(self.c):
            acc = acc * other + UPoly.const(a)
        return acc

    def reciprocal(self, n: int | None = None) -> "UPoly":
        """x^n * p(1/x); n defaults to deg p."""
        if n is None:
            n = self.degree
        if n < self.degree:
            raise ValueError("reciprocal order below degree")
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.c):
            out[n - i] = a
        return UPoly(out)

    def shift(self, a) -> "UPoly":
        """p(x + a)."""
        return self.compose(UPoly((rat(a), 1)))

    def monic(self) -> "UPoly":
        if not self.c:
            return self
        return self * (1 / self.lead)

    # -- integer-polynomial helpers -------------------------------------
    def primitive_int(self):
        """Return (k, [int coefficients]) with self = k * intpoly, the
        integer polynomial primitive with positive leading coefficient."""
        if not self.c:
            return Fraction(0), [0]
        den = 1
        for a in self.c:
            den = den * a.denominator // int_gcd(den, a.denominator)
        ints = [int(a * den) for a in self.c]
        g = 0
        for v in ints:
            g = int_gcd(g, abs(v))
        ints = [v // g for v in ints]
        if ints[-1] < 0:
            ints = [-v for v in ints]
            g = -g
        return Fraction(g, den), ints

    # -- serialization ---------------------------------------------------
    def to_json(self):
        return [rat_str(a) for a in self.c]

    def poly_str(self, var: str = "x") -> str:
        """Human-readable form like 'u^2 - 3/2', highest degree first."""
        if not self.c:
            return "0"
        parts = []
        for i in range(len(self.c) - 1, -1, -1):
            a = self.c[i]
            if a == 0:
                continue
            mon = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            mag = abs(a)
            coef = "" if (mag == 1 and mon) else rat_str(mag)
            body = coef + ("*" if coef and mon else "") + mon
            if not parts:
                parts.append(("-" if a < 0 else "") + body)
            else:
                parts.append(("- " if a < 0 else "+ ") + body)
        return " ".join(parts)

    @classmethod
    def from_json(cls, arr) -> "UPoly":
        return cls([rat(str(a)) for a in arr])

    def __repr__(self):
        if not self.c:
            return "UPoly(0)"
        terms = []
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            if i == 0:
                terms.append(rat_str(a))
            elif i == 1:
                terms.append(f"{rat_str(a)}*x")
            else:
                terms.append(f"{rat_str(a)}*x^{i}")
        return "UPoly(" + " + ".join(terms) + ")"


def _coerce(v) -> UPoly:
    if isinstance(v, UPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return UPoly((rat(v),))
    raise TypeError(f"cannot coerce {v!r} to UPoly")


# -- gcd via primitive pseudo-remainder sequence -------------------------


def gcd(p: UPoly, q: UPoly) -> UPoly:
    """Monic gcd over the rationals."""
    if not p:
        return q.monic() if q else UPoly()
    if not q:
        return p.monic()
    _, a = p.primitive_int()
    _, b = q.primitive_int()
    if len(a) < len(b):
        a, b = b, a
    while True:
        if all(v == 0 for v in b):
            break
        r = _int_prem(a, b)
        if all(v == 0 for v in r):
            a, b = b, r
            break
        r = _int_primitive(r)
        a, b = b, r
    g = UPoly(a)
    return g.monic()


def _int_prem(a, b):
    """Pseudo-remainder of integer coefficient lists (ascending)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        k = len(a) - 1 - db
        la = a[-1]
        a = [v * lb for v in a]
        for i, bv in enumerate(b):
            a[k + i] -= la * bv
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a or [0]


def _int_primitive(a):
    g = 0
    for v in a:
        g = int_gcd(g, abs(v))
    if g == 0:
        return [0]
    return [v // g for v in a]


# -- resultants and discriminants ----------------------------------------


def resultant(p: UPoly, q: UPoly, formal: tuple[int, int] | None = None) -> Fraction:
    """Sylvester-convention resultant.

    With formal=(m, n) the inputs are treated as forms of those degrees,
    i.e. vanishing top coefficients contribute roots at infinity.
    """
    if not p and not q:
        raise ValueError("resultant of two zero polynomials")
    if formal is not None:
        m, n = formal
        if m < p.degree or n < q.degree:
            raise ValueError("formal degree below actual degree")
        if m == 0 and n == 0:
            return Fraction(1)
        r = resultant(p, q)
        if not p or not q:
            return Fraction(0)
        # a root at infinity on either side is shared iff the other side
        # also drops degree; otherwise it scales by the leading coefficient
        dp, dq = m - p.degree, n - q.degree
        if dp and dq:
            return Fraction(0)
        if dp:
            r = r * q.lead**dp
        if dq:
            r = r * p.lead**dq
        return r
    if not p or not q:
        return Fraction(0)
    if p.degree == 0:
        return p.lead**q.degree
    if q.degree == 0:
        return q.lead**p.degree
    # Euclidean recursion: res(p, q) = (-1)^{deg p deg q} res(q, p)
    #                      res(p, q) = lc(q)^{deg p - deg r} res(q, r)
    sign = 1
    a, b = p, q
    acc = Fraction(1)
    while True:
        if b.degree == 0:
            acc *= b.lead**a.degree
            break
        r = a % b
        if not r:
            return Fraction(0)
        if (a.degree * b.degree) % 2:
            sign = -sign
        acc *= b.lead ** (a.degree - r.degree)
        a, b = b, r
    return sign * acc


def discriminant(p: UPoly) -> Fraction:
    """(-1)^{d(d-1)/2} resultant(p, p') / lead(p)."""
    d = p.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = resultant(p, p.derivative())
    return (-1) ** (d * (d - 1) // 2) * r / p.lead


def bracket(p: UPoly, q: UPoly) -> UPoly:
    """Wronskian-type combination p' q - p q'."""
    return p.derivative() * q - p * q.derivative()


# -- arithmetic modulo an irreducible place --------------------------------


def inv_mod(p: UPoly, m: UPoly) -> UPoly:
    """Inverse of p in Q[x]/(m); m need not be monic but must be coprime to p."""
    r0, r1 = m, p % m
    s0, s1 = UPoly(), UPoly.one()
    while r1:
        q, r2 = divmod(r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise ValueError("element not invertible modulo the place")
    return (s0 * (1 / r0.lead)) % m


def valuation(p: UPoly, place: UPoly) -> int:
    """Multiplicity of the irreducible place in p (inf-like large for p = 0)."""
    if not p:
        return 1 << 30
    v = 0
    while True:
        q, r = divmod(p, place)
        if r:
            return v
        v += 1
        p = q


# -- interpolation -----------------------------------------------------------


def interpolate(points) -> UPoly:
    """Newton interpolation through [(x_i, y_i)] with distinct rational x_i."""
    xs = [rat(x) for x, _ in points]
    ys = [rat(y) for _, y in points]
    n = len(xs)
    coeffs = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    poly = UPoly()
    basis = UPoly.one()
    for i in range(n):
        poly = poly + basis * coeffs[i]
        basis = basis * UPoly((-xs[i], 1))
    return poly


def convolve(a, b):
    """Product of two polynomials given as ascending coefficient lists over
    any ring (rationals, UPoly, ...)."""
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t = x * y
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return out


def resultant_upoly_coeffs(f_coeffs, g_coeffs) -> UPoly:
    """Resultant in the main variable of two polynomials whose coefficients
    are UPoly in a parameter; computed by evaluation and interpolation."""
    f = [c if isinstance(c, UPoly) else UPoly.const(c) for c in f_coeffs]
    g = [c if isinstance(c, UPoly) else UPoly.const(c) for c in g_coeffs]
    while f and not f[-1]:
        f.pop()
    while g and not g[-1]:
        g.pop()
    if not f or not g:
        return UPoly()
    dm, dn = len(f) - 1, len(g) - 1
    hf = max(c.degree for c in f)
    hg = max(c.degree for c in g)
    bound = dm * max(hg, 0) + dn * max(hf, 0)
    pts = []
    t = 0
    while len(pts) < bound + 1:
        tv = Fraction(t)
        t = -t if t > 0 else -t + 1
        if f[-1](tv) == 0 or g[-1](tv) == 0:
            continue
        fv = UPoly([c(tv) for c in f])
        gv = UPoly([c(tv) for c in g])
        pts.append((tv, resultant(fv, gv)))
    return interpolate(pts)
