"""Inputs of the three workloads, all derived from the run's seed.

Nothing here imports prymkit: the inputs are made by the benchmark alone.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

REFERENCE = ("9,2,8", "3", "4")

# Fully split integer moduli (lambda1, lambda2, lambda3; kappa15, kappa23) other
# than the reference, with kappa15^2 = lambda1 and kappa23^2 = lambda2*lambda3.
# (4,7,28; 2,14) also splits but is a special modulus on which the fibers suite
# fails and the heights and genus5 suites raise, so it is not in the corpus.
SPLIT_MODULI = (
    ("9,16,36", "3", "24"),
    ("25,8,18", "5", "12"),
    ("49,5,45", "7", "15"),
    ("49,7,28", "7", "14"),
    ("49,10,40", "7", "20"),
    ("49,18,32", "7", "24"),
)
SWEEP_SUITES = ("richelot", "fibers", "identification", "genus5")
# genus5 builds the member t = 1, which is singular at this modulus
NO_GENUS5 = {"25,8,18"}
# pencil fails here, in both variants, at the marked values t = +-4
PENCIL_FAILS = {"9,16,36"}
PENCIL_FAILING_LABELS = frozenset({"member at t=4", "member at t=-4"})


def sweep_configs():
    """The twelve moduli_sweep configurations as (moduli, variant, suites)."""
    out = []
    for mod in SPLIT_MODULI:
        suites = [s for s in SWEEP_SUITES if not (s == "genus5" and mod[0] in NO_GENUS5)]
        if mod[0] in PENCIL_FAILS:
            suites.append("pencil")
        for variant in ("k15", "k23"):
            out.append((mod, variant, tuple(suites)))
    return out


def verify_args(moduli, variant, suites):
    lam, k15, k23 = moduli
    args = ["--lambda", lam, "--kappa15", k15, "--kappa23", k23, "--variant", variant]
    for s in suites:
        args += ["--suite", s]
    return args


def sweep_round(rng: random.Random):
    """One round of moduli_sweep: every configuration once, in seeded order."""
    cfgs = sweep_configs()
    rng.shuffle(cfgs)
    return cfgs


# -- genus-2 curve pairs --------------------------------------------------------------


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _rem(a, b):
    a = [Fraction(x) for x in a]
    while len(a) >= len(b) and any(a):
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        for i, x in enumerate(b):
            a[k + i] -= f * x
        a = _trim(a)
    return a


def is_squarefree(c) -> bool:
    """gcd(f, f') is a constant, by Euclid over Q."""
    a = _trim(c)
    b = _trim([i * a[i] for i in range(1, len(a))])
    while b:
        a, b = b, _rem(a, b)
    return len(a) == 1


def mobius(f, a, b, c, d, lam):
    """lam * (c x + d)^6 f((a x + b) / (c x + d)) for a sextic or quintic f."""
    out = [0] * 7
    for i, fi in enumerate(f):
        if not fi:
            continue
        # (a x + b)^i (c x + d)^(6 - i), ascending coefficients
        num = [comb(i, k) * a**k * b ** (i - k) for k in range(i + 1)]
        den = [comb(6 - i, k) * c**k * d ** (6 - i - k) for k in range(7 - i)]
        for p, u in enumerate(num):
            for q, v in enumerate(den):
                out[p + q] += lam * fi * u * v
    return _trim(out)


def _random_curve(rng):
    while True:
        deg = rng.choice((5, 6))
        f = [rng.randint(-5, 5) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
        if is_squarefree(f):
            return f


def curve_pairs(rng: random.Random, count: int, seen: set):
    """count pairs (f, g, related, r): in each block of five, four g are
    lam * (cx+d)^6 f((ax+b)/(cx+d)) with witness r = lam (ad-bc)^3, so that
    I_k(g) = r^k I_k(f), and one g is an unrelated random curve (r = None).
    No curve repeats a curve in `seen`, which is updated."""
    out = []
    while len(out) < count:
        unrelated = rng.randrange(5)
        for slot in range(5):
            f = _random_curve(rng)
            if tuple(f) in seen:
                continue
            if slot == unrelated:
                g, r = _random_curve(rng), None
            else:
                while True:
                    a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                    det = a * d - b * c
                    lam = rng.choice((-3, -2, -1, 1, 2, 3))
                    g = mobius(f, a, b, c, d, lam)
                    if det and len(g) - 1 in (5, 6):
                        r = lam * det**3
                        break
            if tuple(g) in seen or g == f:
                continue
            seen.add(tuple(f))
            seen.add(tuple(g))
            out.append({"f": f, "g": g, "related": r is not None, "r": r})
    return out[:count]
