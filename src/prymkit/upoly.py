"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored ascending by degree with trailing zeros trimmed.
The zero polynomial has degree -1 (sentinel).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd as int_gcd, lcm

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
        # clear denominators, convolve over Z, divide once per coefficient
        da, ia = _int_scaled(self.c)
        db, ib = _int_scaled(other.c)
        d = da * db
        out = UPoly.__new__(UPoly)
        # the top product is nonzero, so nothing needs trimming
        out.c = tuple(Fraction(v, d) for v in _z_mul(ia, ib))
        return out

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
        den, ints = _int_scaled(self.c)
        g = int_gcd(*ints)
        if ints[-1] < 0:
            g = -g
        return Fraction(g, den), [v // g for v in ints]

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


# -- the integer kernel: dense polynomials over Z as ascending int lists ----


def _z_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _z_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _z_trim(out)


def _int_scaled(coeffs):
    """(D, ints) with D the lcm of the denominators and ints = D * coeffs."""
    den = lcm(*(a.denominator for a in coeffs))
    return den, [a.numerator * (den // a.denominator) for a in coeffs]


def _int_prem(a, b):
    """Exact pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b of ascending
    int lists; b must be nonzero.  Returns [] for a zero remainder."""
    a = _z_trim(list(a))
    db, lb = len(b) - 1, b[-1]
    owed = 0
    for k in range(len(a) - 1 - db, -1, -1):
        la = a.pop()
        if la == 0:
            # a skipped step still owes its power of lc(b)
            owed += 1
            continue
        a = [v * lb for v in a]
        for i in range(db):
            a[k + i] -= la * b[i]
    if owed and a:
        f = lb**owed
        a = [v * f for v in a]
    return _z_trim(a)


def _int_resultant(a, b) -> int:
    """Sylvester resultant of two nonzero trimmed ascending int lists by the
    subresultant PRS over Z (Collins 1967; Brown 1971; Cohen, GTM 138,
    Alg. 3.3.7)."""
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -1
    ca, cb = int_gcd(*a), int_gcd(*b)
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a, b = [v // ca for v in a], [v // cb for v in b]
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r = _int_prem(a, b)
        if not r:
            return 0
        div = g * h**delta
        a, b = b, [v // div for v in r]
        g = a[-1]
        # h <- h^(1 - delta) g^delta, an exact division in Z
        h = g**delta // h ** (delta - 1) if delta else h
    da = len(a) - 1
    h = b[0] ** da // h ** (da - 1) if da else h
    return s * t * h


def _int_formal_resultant(a, b, m: int, n: int) -> int:
    """Determinant of the Sylvester matrix of nonempty int lists a, b read as
    forms of degrees m >= deg a and n >= deg b; a missing top coefficient is
    a root at infinity."""
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    a, b = _z_trim(list(a)), _z_trim(list(b))
    if not a or not b:
        return 0
    dp, dq = m - (len(a) - 1), n - (len(b) - 1)
    if dp and dq:
        return 0
    r = _int_resultant(a, b)
    if dp:
        # expanding along the dp leading columns, where only q's rows are
        # nonzero, gives lc(q)^dp with the sign (-1)^(n dp)
        r *= (-1) ** (n * dp) * b[-1] ** dp
    if dq:
        r *= a[-1] ** dq
    return r


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
    while b:
        a, b = b, _int_prem(a, b)
        if b:
            g = int_gcd(*b)
            b = [v // g for v in b]
    return UPoly(a).monic()


# -- resultants and discriminants ----------------------------------------


def resultant(p: UPoly, q: UPoly, formal: tuple[int, int] | None = None) -> Fraction:
    """Sylvester-convention resultant, by the subresultant PRS over Z on the
    primitive integer parts of p and q.

    With formal=(m, n) the inputs are treated as forms of those degrees,
    i.e. vanishing top coefficients contribute roots at infinity, and the
    value is the determinant of the (m + n) x (m + n) Sylvester matrix.
    """
    if not p and not q:
        raise ValueError("resultant of two zero polynomials")
    if formal is None:
        if not p or not q:
            return Fraction(0)
        m, n = p.degree, q.degree
    else:
        m, n = formal
        if m < p.degree or n < q.degree:
            raise ValueError("formal degree below actual degree")
    kp, ip = p.primitive_int()
    kq, iq = q.primitive_int()
    return kp**n * kq**m * _int_formal_resultant(ip, iq, m, n)


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
    are UPoly in a parameter t, with the x-degrees of f and g as formal
    degrees.

    f and g are scaled to integer coefficients and evaluated at the integer
    nodes t = 0..N, where N bounds the degree of the result.  Each value is
    an integer subresultant PRS; a leading coefficient that vanishes at a
    node counts as a root at infinity.  Forward differences of the values
    give N! * R(t) over Z, and the division by N! and by the scale factors
    is made once, at the end.
    """
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
    bound = dm * hg + dn * hf
    df, fz = _int_rows(f)
    dg, gz = _int_rows(g)
    values = [
        _int_formal_resultant(
            [_int_horner(r, t) for r in fz], [_int_horner(r, t) for r in gz], dm, dn
        )
        for t in range(bound + 1)
    ]
    acc, scale = _int_interpolate(values)
    den = scale * df**dn * dg**dm
    return UPoly([Fraction(v, den) for v in acc])


def _int_interpolate(values):
    """(P, N!) for int values at t = 0..N: the int list P is N! times the
    polynomial of degree <= N through them, built from forward differences
    on the falling-factorial basis."""
    n = len(values) - 1
    diffs = list(values)
    # diffs[k] becomes the k-th forward difference at t = 0
    for j in range(1, n + 1):
        for k in range(n, j - 1, -1):
            diffs[k] -= diffs[k - 1]
    # N! P(t) = sum_k diffs[k] (N!/k!) t(t-1)...(t-k+1), nested from the top
    nfact = factorial(n)
    acc = []
    for k in range(n, -1, -1):
        acc = _z_mul(acc, [-k, 1]) or [0]
        acc[0] += diffs[k] * (nfact // factorial(k))
    return acc, nfact


def _int_rows(cs):
    """(D, rows): D the lcm of the denominators of the UPoly list cs, and
    rows the int coefficient lists of D * cs."""
    den = lcm(*(a.denominator for c in cs for a in c.c))
    return den, [[a.numerator * (den // a.denominator) for a in c.c] for c in cs]


def _int_horner(r, t: int) -> int:
    acc = 0
    for a in reversed(r):
        acc = acc * t + a
    return acc
