"""Factorization of rational polynomials into monic irreducible factors.

Squarefree splitting is Yun's algorithm; each squarefree part is factored
over the integers by small-prime Berlekamp factorization, quadratic Hensel
lifting to a Landau-Mignotte height bound, and subset recombination.

Kodaira types, fiber inventories, contact numbers and place counts need
only valuations and degrees, which Yun's split and gcds give (see
fibration).  Full factorization is kept for the outputs that name an
irreducible place: the fiber table of `prymkit fibers`, the pencil's
per-place labels and rational_roots.
"""

from __future__ import annotations

import itertools
import math

from .upoly import UPoly, _z_mul, _z_trim, gcd

# -- dense polynomials over Z and Z/m (ascending int lists) -------------------
# GF(p) is Z/m with m = p prime; _z_trim and _z_mul are the upoly kernel's.


def _z_sub(a, b):
    n = max(len(a), len(b))
    return _z_trim(
        [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _z_add(a, b):
    n = max(len(a), len(b))
    return _z_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _z_mod(a, m):
    """a reduced into [0, m)."""
    return _z_trim([x % m for x in a])


def _sym(a, m):
    out = []
    for x in a:
        v = x % m
        if v > m // 2:
            v -= m
        out.append(v)
    return _z_trim(out)


def _zm_divmod(a, b, m):
    """Quotient and remainder of a by b modulo m; b must have an invertible
    lead mod m."""
    a = [x % m for x in a]
    _z_trim(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db:
        if a[-1] % m:
            f = a[-1] * inv % m
            k = len(a) - 1 - db
            q[k] = f
            for i, y in enumerate(b):
                a[k + i] = (a[k + i] - f * y) % m
        a.pop()
        while a and a[-1] % m == 0:
            a.pop()
    return _z_trim(q), a


def _gp_gcd(a, b, p):
    while b:
        a, b = b, _zm_divmod(a, b, p)[1]
    return _gp_monic(a, p) if a else a


def _gp_deriv(a, p):
    return _z_mod([i * a[i] for i in range(1, len(a))], p)


def _gp_monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [x * inv % p for x in a]


def _gp_pow_x(e, mod, p):
    """x^e modulo mod over GF(p)."""
    result = [1]
    base = _zm_divmod([0, 1], mod, p)[1]
    while e:
        if e & 1:
            result = _zm_divmod(_z_mul(result, base), mod, p)[1]
        base = _zm_divmod(_z_mul(base, base), mod, p)[1]
        e >>= 1
    return result


def _berlekamp(f, p):
    """Irreducible factors of a squarefree monic f over GF(p)."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    # Frobenius matrix: rows are x^{p*i} mod f
    rows = []
    xp = _gp_pow_x(p, f, p)
    cur = [1]
    for _ in range(n):
        rows.append(cur + [0] * (n - len(cur)))
        cur = _zm_divmod(_z_mul(cur, xp), f, p)[1]
    # nullspace of (Q - I)^T x = 0, i.e. left kernel of (Q - I)
    m = [[(rows[i][j] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    basis = _left_nullspace(m, p)
    r = len(basis)
    if r == 1:
        return [f]
    factors = [f]
    for v in basis:
        vpoly = _z_trim(list(v))
        if len(vpoly) <= 1:
            continue
        nxt = []
        for fac in factors:
            if len(fac) - 1 <= 1:
                nxt.append(fac)
                continue
            pieces = []
            rem_f = fac
            for s in range(p):
                g = _gp_gcd(rem_f, _z_mod(_z_sub(vpoly, [s]), p), p)
                if 0 < len(g) - 1 < len(rem_f) - 1:
                    pieces.append(g)
                    rem_f, _ = _zm_divmod(rem_f, g, p)
                if len(rem_f) - 1 == 0:
                    break
            if len(rem_f) - 1 > 0:
                pieces.append(_gp_monic(rem_f, p))
            nxt.extend(pieces if pieces else [fac])
        factors = nxt
        if len(factors) == r:
            break
    return factors


def _left_nullspace(m, p):
    """Basis of {v : v m = 0} over GF(p); m is n x n (list of rows)."""
    n = len(m)
    # transpose and row reduce
    a = [[m[j][i] % p for j in range(n)] for i in range(n)]
    pivots = {}
    row = 0
    for col in range(n):
        sel = None
        for r_ in range(row, n):
            if a[r_][col]:
                sel = r_
                break
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = pow(a[row][col], p - 2, p)
        a[row] = [x * inv % p for x in a[row]]
        for r_ in range(n):
            if r_ != row and a[r_][col]:
                f = a[r_][col]
                a[r_] = [(x - f * y) % p for x, y in zip(a[r_], a[row])]
        pivots[col] = row
        row += 1
    basis = []
    for col in range(n):
        if col in pivots:
            continue
        v = [0] * n
        v[col] = 1
        for pc, pr in pivots.items():
            v[pc] = (-a[pr][col]) % p
        basis.append(v)
    return basis


# -- Hensel lifting ------------------------------------------------------------


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: from f = g h (mod m), s g + t h = 1 (mod m)
    to the same congruences mod m^2 (coefficients in symmetric range)."""
    M = m * m
    e = _sym(_z_sub(f, _z_mul(g, h)), M)
    q, r = _zm_divmod(_z_mul(s, e), h, M)
    g1 = _sym(_z_add(_z_add(g, _z_mul(t, e)), _z_mul(q, g)), M)
    h1 = _sym(_z_add(h, r), M)
    b = _sym(_z_sub(_z_add(_z_mul(s, g1), _z_mul(t, h1)), [1]), M)
    c, d = _zm_divmod(_z_mul(s, b), h1, M)
    s1 = _sym(_z_sub(s, d), M)
    t1 = _sym(_z_sub(_z_sub(t, _z_mul(t, b)), _z_mul(c, g1)), M)
    return g1, h1, s1, t1


def _gp_egcd(a, b, p):
    """(g, s, t) with s a + t b = g (monic gcd) over GF(p)."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, _ = _zm_divmod(r0, r1, p)
        r0, r1 = r1, _z_mod(_z_sub(r0, _z_mul(q, r1)), p)
        s0, s1 = s1, _z_mod(_z_sub(s0, _z_mul(q, s1)), p)
        t0, t1 = t1, _z_mod(_z_sub(t0, _z_mul(q, t1)), p)
    inv = pow(r0[-1], p - 2, p)
    return (
        [x * inv % p for x in r0],
        [x * inv % p for x in s0],
        [x * inv % p for x in t0],
    )


def _hensel_lift(p, f, f_list, level):
    """Lift a mod-p factorization lc(f) * prod(f_list) = f to mod p^(2^level)."""
    n = len(f_list)
    if n == 1:
        lc_inv = pow(f[-1], -1, p ** (2**level))
        return [_sym([x * lc_inv % p ** (2**level) for x in f], p ** (2**level))]
    k = n // 2
    g = [f[-1] % p]
    for fi in f_list[:k]:
        g = _z_mod(_z_mul(g, fi), p)
    h = [1]
    for fi in f_list[k:]:
        h = _z_mod(_z_mul(h, fi), p)
    _, s, t = _gp_egcd(g, h, p)
    g, h, s, t = _sym(g, p), _sym(h, p), _sym(s, p), _sym(t, p)
    m = p
    for _ in range(level):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, f_list[:k], level) + _hensel_lift(p, h, f_list[k:], level)


# -- Zassenhaus over the integers -----------------------------------------------


def _factor_sqfree_int(f):
    """Irreducible integer factors of a primitive squarefree integer poly
    (ascending coefficients, positive lead, degree >= 1)."""
    n = len(f) - 1
    if n == 1:
        return [f]
    lc = f[-1]
    # prime selection
    p = 3
    while True:
        if lc % p:
            fp = _z_mod(f, p)
            if len(fp) - 1 == n:
                if len(_gp_gcd(fp, _gp_deriv(fp, p), p)) - 1 == 0:
                    break
        p = _next_prime(p)
    fbar = _gp_monic([x % p for x in f], p)
    modular = _berlekamp(fbar, p)
    if len(modular) == 1:
        return [f]
    # Landau-Mignotte-style bound on factor coefficients
    norm = math.isqrt(sum(x * x for x in f)) + 1
    bound = 2 * abs(lc) * norm * (1 << n)
    level = 0
    while p ** (2**level) <= 2 * bound:
        level += 1
    m = p ** (2**level)
    lifted = _hensel_lift(p, f, sorted(modular, key=lambda q: (len(q), q)), level)
    # subset recombination
    factors = []
    rest = f
    pool = list(lifted)
    k = 1
    while 2 * k <= len(pool):
        found = True
        while found and 2 * k <= len(pool):
            found = False
            for subset in itertools.combinations(range(len(pool)), k):
                cand = [rest[-1] % m]
                for idx in subset:
                    cand = _sym([c % m for c in _z_mul(cand, pool[idx])], m)
                cand = _z_primitive(cand)
                if not cand:
                    continue
                ok, quo = _z_try_div(rest, cand)
                if ok:
                    factors.append(cand)
                    rest = quo
                    pool = [q for i, q in enumerate(pool) if i not in set(subset)]
                    found = True
                    break
        k += 1
    if len(rest) - 1 > 0:
        factors.append(_z_primitive(rest))
    return factors


def _z_primitive(a):
    a = _z_trim(list(a))
    if not a:
        return a
    g = 0
    for x in a:
        g = math.gcd(g, abs(x))
    a = [x // g for x in a]
    if a[-1] < 0:
        a = [-x for x in a]
    return a


def _z_try_div(a, b):
    """Exact division test of integer polys; returns (ok, quotient)."""
    if (len(a) - 1) < (len(b) - 1):
        return False, None
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        if a[-1] % b[-1]:
            return False, None
        f = a[-1] // b[-1]
        k = len(a) - 1 - db
        q[k] = f
        for i, y in enumerate(b):
            a[k + i] -= f * y
        a.pop()
    if any(a):
        return False, None
    return True, _z_trim(q)


def _next_prime(p):
    q = p + 2
    while True:
        if all(q % r for r in range(3, math.isqrt(q) + 1, 2)):
            return q
        q += 2


# -- public API ---------------------------------------------------------------


def yun_squarefree(p: UPoly):
    """Squarefree decomposition [(g_i, i)] with p = lc * prod g_i^i and the
    g_i monic, squarefree, pairwise coprime."""
    if not p:
        raise ValueError("zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    d = p.derivative()
    a = gcd(p, d)
    if a.degree == 0:
        return [(p, 1)]
    b = p.exact_div(a)
    c = d.exact_div(a)
    out = []
    i = 1
    while True:
        z = c - b.derivative()
        g = gcd(b, z)
        if g.degree > 0:
            out.append((g.monic(), i))
        b2 = b.exact_div(g)
        if b2.degree == 0:
            break
        c = z.exact_div(g)
        b = b2
        i += 1
    return out


def factor_squarefree(p: UPoly):
    """Monic irreducible factors of a squarefree rational polynomial."""
    if p.degree <= 0:
        return []
    if p.degree == 1:
        return [p.monic()]
    _, ints = p.primitive_int()
    facs = _factor_sqfree_int(ints)
    return sorted((UPoly(f).monic() for f in facs), key=lambda q: (q.degree, q.c))


def squarefree_places(p: UPoly):
    """Monic irreducible factors with multiplicities; the product over
    factor^multiplicity equals p up to a nonzero rational constant."""
    if not p:
        raise ValueError("zero polynomial")
    out = []
    for g, mult in yun_squarefree(p):
        for f in factor_squarefree(g):
            out.append((f, mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].c))
    return out


def rational_roots(p: UPoly):
    """All rational roots (with multiplicity 1 listing) via factorization."""
    roots = []
    for f, _ in squarefree_places(p):
        if f.degree == 1:
            roots.append(-f.coeff(0))
    return sorted(roots)
