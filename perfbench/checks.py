"""Output checks made apart from the program.

Each function returns a list of problems (empty when the output is right).
They re-derive what they check with plain Fraction arithmetic or with sympy;
sympy is used by the benchmark only, never by the program.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# Euler numbers of the singular fibers by Kodaira type
_EULER = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}
TORSION = ("sigma", "T1", "T2", "T3")
GRAM = {("S1", "S1"): 4, ("S2", "S2"): 4, ("S3", "S3"): 4,
        ("S1", "S2"): 2, ("S1", "S3"): 2, ("S2", "S3"): 2}
WEIGHTS = ("I2", "I4", "I6", "I10")


def euler_number(kodaira: str) -> int:
    m = re.fullmatch(r"I(\d+)(\*?)", kodaira)
    if m:
        return int(m.group(1)) + (6 if m.group(2) else 0)
    return _EULER[kodaira]


def inventory_euler(inventory: dict) -> int:
    return sum(euler_number(k) * n for k, n in inventory.items())


# -- weighted projective comparisons, re-derived ---------------------------------


def scale_holds(a, b, r) -> bool:
    """I_k(a) = r^k I_k(b) for k in (2, 4, 6, 10)."""
    r = Fraction(r)
    return all(Fraction(x) == r**k * Fraction(y) for x, y, k in zip(a, b, (2, 4, 6, 10)))


def _bezout(ws):
    """Integers c with sum c_i w_i = gcd(ws)."""
    g, cs = ws[0], [1]
    for w in ws[1:]:
        # extended Euclid on (g, w)
        r0, r1, s0, s1, t0, t1 = g, w, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1, s0, s1, t0, t1 = r1, r0 - q * r1, s1, s0 - q * s1, t1, t0 - q * t1
        cs = [c * s0 for c in cs] + [t0]
        g = r0
    return g, cs


def wp_equivalent(a, b) -> bool:
    """Equality in P(2,4,6,10) over an algebraic closure: some rho = r^2 has
    I_k(a) = rho^(k/2) I_k(b).  With weights w = k/2 of the nonzero entries and
    g their gcd, rho^g is forced to prod q_i^c_i (sum c_i w_i = g), and the
    points are equal exactly when that value gives every ratio q_i."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    if any((x == 0) != (y == 0) for x, y in zip(a, b)):
        return False
    idx = [i for i, x in enumerate(a) if x != 0]
    if not idx:
        return True
    ws = [(1, 2, 3, 5)[i] for i in idx]
    qs = [a[i] / b[i] for i in idx]
    g, cs = _bezout(ws)
    mu = Fraction(1)
    for q, c in zip(qs, cs):
        mu *= q**c
    return all(mu ** (w // g) == q for w, q in zip(ws, qs))


# -- certificates -------------------------------------------------------------------


def _recheck_one(c) -> bool | None:
    kind = c.get("kind")
    if kind == "eq":
        return c["lhs"] == c["rhs"]
    if kind == "wp_scale":
        return scale_holds([c["a"][k] for k in WEIGHTS], [c["b"][k] for k in WEIGHTS], c["r"])
    if kind == "wp_equal":
        return wp_equivalent([c["a"][k] for k in WEIGHTS], [c["b"][k] for k in WEIGHTS])
    if kind == "flag":
        return None  # a bare boolean: nothing to re-derive
    raise ValueError(f"unknown check kind {kind!r}")


def heights_problems(matrix: dict) -> list:
    out = []
    for key, val in matrix.items():
        s1, s2 = key.split(",")
        if s1 in TORSION or s2 in TORSION:
            want = 0
        else:
            want = GRAM.get((s1, s2), GRAM.get((s2, s1)))
        if Fraction(val) != want:
            out.append(f"height <{s1},{s2}> = {val}, expected {want}")
    names = {n for key in matrix for n in key.split(",")}
    if not {"S1", "S2", "S3", "T1", "T2", "T3"} <= names:
        out.append(f"height matrix misses sections: {sorted(names)}")
    return out


def certificate_problems(certs: list, expected_failures: frozenset = frozenset()) -> list:
    """Re-derive every check of one op's certificates.  The op must fail
    exactly the labels in expected_failures (normally none)."""
    out = []
    failed = set()
    for cert in certs:
        suite = cert.get("suite")
        checks = cert.get("checks") or []
        if not checks:
            out.append(f"{suite}: no checks")
        for c in checks:
            label = c.get("label")
            derived = _recheck_one(c)
            if derived is not None and derived != c.get("ok"):
                out.append(f"{suite}: {label!r} stored ok={c.get('ok')} but re-derived {derived}")
            ok = c.get("ok") if derived is None else derived
            if not ok:
                failed.add(label)
            if label.endswith("fiber inventory"):
                e = inventory_euler(c["lhs"])
                if e != 24:
                    out.append(f"{suite}: {label!r} has Euler number {e}, not 24")
            if label == "height-pairing matrix":
                out += [f"{suite}: {p}" for p in heights_problems(c["lhs"])]
        want_status = "pass" if all(c.get("ok") for c in checks) else "fail"
        if cert.get("status") != want_status:
            out.append(f"{suite}: status {cert.get('status')!r}, checks say {want_status!r}")
    if failed != set(expected_failures):
        out.append(f"failing checks {sorted(failed)}, expected {sorted(expected_failures)}")
    return out


def recheck_problems(lines: list, certs: list) -> list:
    """Output of `prymkit verify --recheck` against the certificates it read."""
    out = []
    if len(lines) != len(certs):
        return [f"recheck printed {len(lines)} lines for {len(certs)} certificates"]
    for rec, cert in zip(lines, certs):
        want = "pass" if cert.get("status") == "pass" else "fail"
        if rec.get("suite") != cert.get("suite") or rec.get("recheck") != want:
            out.append(f"recheck of {cert.get('suite')}: {rec}, expected {want}")
    return out


# -- sympy oracles ------------------------------------------------------------------------


def fiber_places_problems(family: dict, fibers_record: dict) -> list:
    """Factor the family's discriminant with sympy and compare with the bad
    places, Kodaira types and total of the program's fiber table."""
    import sympy

    var = family.get("var", "t")
    t = sympy.Symbol(var)
    a2, a4, a6 = (sympy.Poly(list(reversed([sympy.Rational(v) for v in family[k]])) or [0], t)
                  for k in ("a2", "a4", "a6"))
    # Delta = -b2^2 b8 - 8 b4^3 - 27 b6^2 + 9 b2 b4 b6 with a1 = a3 = 0
    b2, b4, b6 = 4 * a2, 2 * a4, 4 * a6
    b8 = 4 * a2 * a6 - a4**2
    delta = -b2**2 * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    _, factors = sympy.factor_list(delta.as_expr(), t)
    want = sorted((str(sympy.Poly(f, t).monic().as_expr()), m) for f, m in factors)
    ord_inf = 24 - delta.degree()
    if ord_inf:
        want.append(("inf", ord_inf))
    got = []
    for fib in fibers_record["fibers"]:
        pl = fib["place"]
        if pl != "inf":
            pl = str(sympy.Poly(sympy.sympify(pl.replace("^", "**"), locals={var: t}), t)
                     .monic().as_expr())
        got.append((pl, fib["ord_delta"]))
    out = []
    name = fibers_record["family"]
    if sorted(got) != sorted(want):
        out.append(f"{name}: bad places {sorted(got)} but sympy factors the discriminant "
                   f"as {sorted(want)}")
    e = sum(euler_number(f["type"]) * f["mult"] for f in fibers_record["fibers"])
    if e != 24:
        out.append(f"{name}: fiber table has Euler number {e}, not 24")
    return out


def binary_discriminant(f):
    """Discriminant of the binary sextic with coefficients f (ascending), by
    sympy; for a quintic the simple root at infinity multiplies by lc^2."""
    import sympy

    x = sympy.Symbol("x")
    p = sympy.Poly(list(reversed(f)), x, domain=sympy.ZZ)
    d = p.discriminant()
    return Fraction(int(d)) * (1 if p.degree() == 6 else Fraction(p.LC()) ** 2)


def igusa_i2(f) -> Fraction:
    """I2 = 6 a3^2 - 16 a2 a4 + 40 a1 a5 - 240 a0 a6, the classical closed form."""
    a = [Fraction(v) for v in f] + [Fraction(0)] * (7 - len(f))
    return 6 * a[3] ** 2 - 16 * a[2] * a[4] + 40 * a[1] * a[5] - 240 * a[0] * a[6]


def curve_op_problems(pair: dict, result: dict) -> list:
    """One curve_invariants op: I2 against its closed form, I10 against sympy,
    the Moebius witness for a related pair, and the verdict against the
    related label and the re-derived weighted-projective comparison."""
    out = []
    a, b = result["a"], result["b"]
    for name, f, inv in (("f", pair["f"], a), ("g", pair["g"], b)):
        if len(inv) != 4:
            out.append(f"{name}={f}: {len(inv)} invariants, expected 4")
            continue
        if Fraction(inv[0]) != igusa_i2(f):
            out.append(f"{name}={f}: I2 {inv[0]} differs from the closed form")
        if Fraction(inv[3]) != binary_discriminant(f):
            out.append(f"{name}={f}: I10 {inv[3]} differs from the sympy discriminant")
    if pair["related"] and not scale_holds(b, a, pair["r"]):
        out.append(f"pair {pair['f']}, {pair['g']}: I_k(g) != r^k I_k(f) for r = {pair['r']}")
    if result["wp_equal"] != pair["related"] or wp_equivalent(a, b) != pair["related"]:
        out.append(f"pair {pair['f']}, {pair['g']}: wp_equal {result['wp_equal']}, "
                   f"related {pair['related']}")
    return out


def scaling_problems(f, inv_f, lam, inv_scaled) -> list:
    """I_k(lam f) = lam^k I_k(f), on invariants the program computed for the
    scratch copy lam f."""
    if scale_holds(inv_scaled, inv_f, lam):
        return []
    return [f"f={f}: invariants of {lam} f are not {lam}^k I_k(f)"]


def moebius_problems(f, inv_f, moebius, inv_moved) -> list:
    """I_k((cx+d)^6 f((ax+b)/(cx+d))) = (ad-bc)^(3k) I_k(f), on invariants the
    program computed for the moved scratch copy."""
    a, b, c, d = moebius
    if scale_holds(inv_moved, inv_f, Fraction(a * d - b * c) ** 3):
        return []
    return [f"f={f}: invariants after the Moebius map {moebius} are not det^(3k) I_k(f)"]


def load_jsonl(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]

