"""Dense univariate polynomials with exact rational coefficients.

A UPoly is stored as integer numerators over one denominator: n is the
tuple of ascending int coefficients with trailing zeros trimmed, and d > 0
is an int with gcd(d, content(n)) = 1 (von zur Gathen & Gerhard, *Modern
Computer Algebra*, section 6.2).  The form is canonical, so equal
polynomials have equal (n, d).  The zero polynomial is n = (), d = 1, and
has degree -1 (sentinel).  Every ring operation runs on ints; ``c`` is a
read-only view of the coefficients as Fractions, built on first use.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd as int_gcd, lcm

from .rat import rat, rat_str


class UPoly:
    __slots__ = ("n", "d", "_c")

    def __init__(self, coeffs=()):
        ns, ds = [], []
        for a in coeffs:
            if type(a) is int:
                ns.append(a)
                ds.append(1)
            else:
                a = a if isinstance(a, Fraction) else rat(a)
                ns.append(a.numerator)
                ds.append(a.denominator)
        while ns and ns[-1] == 0:
            del ns[-1], ds[-1]
        # the lcm of reduced denominators leaves no common factor with the
        # scaled numerators, so this form is already canonical
        d = lcm(*ds)
        self.n = tuple(ns) if d == 1 else tuple(v * (d // e) for v, e in zip(ns, ds))
        self.d = d
        self._c = None

    @property
    def c(self) -> tuple:
        """The coefficients as Fractions, ascending."""
        if self._c is None:
            d = self.d
            self._c = tuple(Fraction(v, d) for v in self.n)
        return self._c

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "UPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UPoly":
        return _from_ints([1])

    @classmethod
    def const(cls, a) -> "UPoly":
        return cls((rat(a),))

    @classmethod
    def x(cls) -> "UPoly":
        return _from_ints([0, 1])

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
        return len(self.n) - 1

    def __bool__(self) -> bool:
        return bool(self.n)

    def __eq__(self, other) -> bool:
        if isinstance(other, UPoly):
            return self.n == other.n and self.d == other.d
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.n
            return self.n == (other.numerator,) and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.d))

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.n[i], self.d) if 0 <= i < len(self.n) else Fraction(0)

    @property
    def lead(self) -> Fraction:
        if not self.n:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.n[-1], self.d)

    # -- ring operations -----------------------------------------------
    def __add__(self, other) -> "UPoly":
        return _combine(self, _coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "UPoly":
        return _raw(tuple(-v for v in self.n), self.d)

    def __sub__(self, other) -> "UPoly":
        return _combine(self, _coerce(other), -1)

    def __rsub__(self, other) -> "UPoly":
        return _combine(_coerce(other), self, -1)

    def __mul__(self, other) -> "UPoly":
        if isinstance(other, UPoly):
            if not self.n or not other.n:
                return UPoly()
            return _from_ints(convolve(self.n, other.n), self.d * other.d)
        if isinstance(other, (int, Fraction)):
            if not other or not self.n:
                return UPoly()
            p = other.numerator
            return _from_ints([v * p for v in self.n], self.d * other.denominator)
        return NotImplemented

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
        """Fraction-free long division.  With self = A/da and other = B/db,
        it keeps s A = Q B + R over Z: a step whose top coefficient lc(B)
        does not divide scales R, Q and s by lc(B)/gcd(top, lc(B)).  Then
        q = Q db / (s da) and r = R / (s da), each divided once."""
        other = _coerce(other)
        b = other.n
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db = len(b) - 1
        if len(self.n) <= db:
            return UPoly(), self
        r = list(self.n)
        lb = b[-1]
        q = [0] * (len(r) - db)
        s = 1
        for k in range(len(q) - 1, -1, -1):
            top = r.pop()
            if not top:
                continue
            g = int_gcd(top, lb)
            if lb < 0:
                g = -g
            m, f = lb // g, top // g
            if m != 1:
                r = [v * m for v in r]
                q = [v * m for v in q]
                s *= m
            q[k] = f
            for i in range(db):
                r[k + i] -= f * b[i]
        den = s * self.d
        return _from_ints([v * other.d for v in q], den), _from_ints(r, den)

    def __floordiv__(self, other) -> "UPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "UPoly":
        return divmod(self, other)[1]

    def exact_div(self, other) -> "UPoly":
        """self / other over Z: by Gauss's lemma a primitive integer B
        divides an integer A over Q exactly when it divides it over Z, so
        the exact quotient of the primitive parts decides."""
        other = _coerce(other)
        if not self.n or not other.n:
            return divmod(self, other)[0]
        ka, a = self.primitive_int()
        kb, b = other.primitive_int()
        q = _z_quo(a, b)
        if q is None:
            raise ValueError(f"non-exact division, remainder {self % other!r}")
        return _raw(tuple(q), 1) * (ka / kb)

    # -- calculus and evaluation ----------------------------------------
    def derivative(self) -> "UPoly":
        n = self.n
        return _from_ints([i * n[i] for i in range(1, len(n))], self.d)

    def __call__(self, v):
        """Evaluate by Horner; v may be a Fraction, int, UPoly, or any
        object supporting + and * with Fractions.  At v = p/q the integer
        Horner runs on the homogenized form, with one Fraction at the end."""
        if isinstance(v, (int, Fraction)):
            n = self.n
            if not n:
                return Fraction(0)
            p, q = v.numerator, v.denominator
            acc, qk = n[-1], 1
            for a in reversed(n[:-1]):
                qk *= q
                acc = acc * p + a * qk
            return Fraction(acc, self.d * qk)
        c = self.c
        if not c:
            return v * 0
        acc = v * 0 + c[-1]
        for a in reversed(c[:-1]):
            acc = acc * v + a
        return acc

    def compose(self, other: "UPoly") -> "UPoly":
        acc = UPoly()
        for a in reversed(self.n):
            acc = acc * other + a
        return acc * Fraction(1, self.d)

    def reciprocal(self, n: int | None = None) -> "UPoly":
        """x^n * p(1/x); n defaults to deg p."""
        if n is None:
            n = self.degree
        if n < self.degree:
            raise ValueError("reciprocal order below degree")
        out = [0] * (n - self.degree) + list(reversed(self.n))
        return _from_ints(out, self.d)

    def shift(self, a) -> "UPoly":
        """p(x + a)."""
        return self.compose(UPoly((rat(a), 1)))

    def monic(self) -> "UPoly":
        n = self.n
        if not n or n[-1] == self.d:
            return self
        if n[-1] < 0:
            return _from_ints([-v for v in n], -n[-1])
        return _from_ints(list(n), n[-1])

    # -- integer-polynomial helpers -------------------------------------
    def primitive_int(self):
        """Return (k, [int coefficients]) with self = k * intpoly, the
        integer polynomial primitive with positive leading coefficient."""
        if not self.n:
            return Fraction(0), [0]
        g, a = _z_primitive(self.n)
        return Fraction(g, self.d), a

    # -- serialization ---------------------------------------------------
    def to_json(self):
        return [rat_str(a) for a in self.c]

    def poly_str(self, var: str = "x") -> str:
        """Human-readable form like 'u^2 - 3/2', highest degree first."""
        if not self.n:
            return "0"
        parts = []
        for i in range(len(self.n) - 1, -1, -1):
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
        if not self.n:
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


def _raw(n: tuple, d: int) -> UPoly:
    """A UPoly from a numerator tuple and denominator already in canonical form."""
    out = UPoly.__new__(UPoly)
    out.n, out.d, out._c = n, d, None
    return out


def _from_ints(n: list, d: int = 1) -> UPoly:
    """The UPoly n / d for an int list n and an int d > 0, brought to
    canonical form: trailing zeros trimmed and the common factor removed."""
    while n and n[-1] == 0:
        n.pop()
    if d != 1:
        g = int_gcd(d, *n)  # d itself when n is empty, which leaves d = 1
        if g != 1:
            n = [v // g for v in n]
            d //= g
    return _raw(tuple(n), d)


def _combine(a: UPoly, b: UPoly, sign: int) -> UPoly:
    """a + sign * b over the lcm of the two denominators."""
    an, d, c = a.n, a.d, sign
    if d != b.d:
        g = int_gcd(d, b.d)
        fa = b.d // g
        c *= d // g
        d *= fa
        an = [v * fa for v in an]
    return _from_ints(_z_add(an, b.n, c), d)


def _coerce(v) -> UPoly:
    if isinstance(v, UPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return _from_ints([v.numerator], v.denominator)
    raise TypeError(f"cannot coerce {v!r} to UPoly")


# -- the integer kernel: dense polynomials over Z as ascending int lists ----


def _z_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def convolve(a, b):
    """Product of two polynomials given as ascending coefficient lists over
    any ring whose elements can be added to the int 0: ints, Fractions,
    UPolys.  The result is not trimmed, so a list over Q[t] keeps a top
    coefficient that vanishes."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _z_add(a, b, c=1):
    """The int list a + c b, untrimmed."""
    out = list(a)
    out += [0] * (len(b) - len(out))
    for i, v in enumerate(b):
        out[i] += c * v
    return out


def _z_primitive(a):
    """(g, a / g) for a nonzero int list a, with g its content, signed so
    that a / g has a positive leading coefficient."""
    g = int_gcd(*a)
    if a[-1] < 0:
        g = -g
    return g, [v // g for v in a]


def _z_quo(a, b):
    """The quotient a / b of int lists when b divides a over Z, else None;
    b must be trimmed and nonzero.  It gives up at the first top coefficient
    that lc(b) does not divide."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        top = a.pop()
        if top:
            f, r = divmod(top, lb)
            if r:
                return None
            q[k] = f
            for i in range(db):
                a[k + i] -= f * b[i]
    return None if any(a) else _z_trim(q)


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
            b = _z_primitive(b)[1]
    return _raw(tuple(a), 1).monic()


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
    """(-1)^{d(d-1)/2} resultant(p, p') / lead(p), over Z: for p = N/D of
    degree d, disc(p) = disc(N)/D^(2d-2), and disc(N) is the integer
    resultant of N and its integer derivative, divided exactly by lc(N)."""
    n, d = p.n, p.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = _int_resultant(n, [i * n[i] for i in range(1, d + 1)]) // n[-1]
    return Fraction(-r if d * (d - 1) // 2 % 2 else r, p.d ** (2 * d - 2))


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
    """Multiplicity of the irreducible place in p (inf-like large for p = 0).
    The division runs on the primitive integer parts, over Z (Gauss's
    lemma), by exact quotients."""
    if not p:
        return 1 << 30
    a, b = p.primitive_int()[1], place.primitive_int()[1]
    v = 0
    while (a := _z_quo(a, b)) is not None:
        v += 1
    return v


def resultant_upoly_coeffs(f_coeffs, g_coeffs, formal: tuple[int, int] | None = None) -> UPoly:
    """Resultant in the main variable of two polynomials whose coefficients
    are UPoly in a parameter t, with the x-degrees of f and g as formal
    degrees, or with formal=(m, n) as in resultant.

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
    dm, dn = formal or (len(f) - 1, len(g) - 1)
    if dm < len(f) - 1 or dn < len(g) - 1:
        raise ValueError("formal degree below actual degree")
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
    return _from_ints(acc, scale * df**dn * dg**dm)


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
        acc = convolve(acc, [-k, 1]) or [0]
        acc[0] += diffs[k] * (nfact // factorial(k))
    return acc, nfact


def _int_rows(cs):
    """(D, rows): D the lcm of the denominators of the UPoly list cs, and
    rows the int coefficient lists of D * cs."""
    den = lcm(*(c.d for c in cs))
    return den, [[v * (den // c.d) for v in c.n] for c in cs]


def _int_horner(r, t: int) -> int:
    acc = 0
    for a in reversed(r):
        acc = acc * t + a
    return acc
