#!/usr/bin/env python3
"""Self-test of the benchmark's own output checks.

Usage (from the root of a prymkit checkout): python3 perfbench/selftest.py

Each check must pass on real program output and reject a deliberately
wrong copy of it: a tampered certificate value, a wrong inventory, a wrong
height, a wrong recheck verdict, a wrong fiber place, and invariant tuples
off by a sign.  Also confirms that a traced run prints exactly the per-layer
metrics that BENCHMARK.json lists.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import checks
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
failures = []


def expect(name, problems, want_problems):
    ok = bool(problems) == want_problems
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {len(problems)} problem(s)"
          + (f" ({problems[0][:100]})" if problems else ""))
    if not ok:
        failures.append(name)


def prymkit(*args):
    out = subprocess.run([sys.executable, "-m", "prymkit.cli", *args], capture_output=True,
                         text=True, cwd=ROOT, env=ENV)
    return out.returncode, checks.load_jsonl(out.stdout)


def find(certs, suite, label):
    cert = next(c for c in certs if c["suite"] == suite)
    return next(c for c in cert["checks"] if c["label"] == label)


def certificate_cases(workdir):
    path = workdir / "selftest_certs.jsonl"
    code, _ = prymkit("verify", "--suite", "all", "--out", str(path))
    certs = checks.load_jsonl(path.read_text())
    path.unlink()
    expect("reference certificates pass", checks.certificate_problems(certs), False)

    bad = copy.deepcopy(certs)
    c = find(bad, "richelot", "coefficient discriminant identity k15/sheet1")
    c["lhs"] = c["lhs"] + "1"
    expect("tampered eq value is rejected", checks.certificate_problems(bad), True)

    bad = copy.deepcopy(certs)
    c = find(bad, "richelot", "normal-form/k15/sheet1 scales to the quotient curve")
    c["a"]["I4"] = "-" + c["a"]["I4"]
    expect("tampered wp_scale witness is rejected", checks.certificate_problems(bad), True)

    bad = copy.deepcopy(certs)
    c = find(bad, "fibers", "kummer12 fiber inventory")
    c["lhs"] = c["rhs"] = {"I2": 10, "I3": 2}  # consistent with itself, Euler number 26
    expect("wrong fiber inventory is rejected", checks.certificate_problems(bad), True)

    bad = copy.deepcopy(certs)
    c = find(bad, "heights", "height-pairing matrix")
    c["lhs"]["S1,T2"] = c["rhs"]["S1,T2"] = "1"
    expect("nonzero torsion height is rejected", checks.certificate_problems(bad), True)

    bad = copy.deepcopy(certs)
    c = find(bad, "heights", "height-pairing matrix")
    c["lhs"]["S1,S2"] = c["rhs"]["S1,S2"] = "1"
    expect("wrong Gram entry is rejected", checks.certificate_problems(bad), True)

    lines = [{"suite": c["suite"], "recheck": "pass", "failures": []} for c in certs]
    expect("recheck verdicts pass", checks.recheck_problems(lines, certs), False)
    lines[2]["recheck"] = "fail"
    expect("wrong recheck verdict is rejected", checks.recheck_problems(lines, certs), True)

    expect("unexpected passing of a known failure is rejected",
           checks.certificate_problems(certs, corpus.PENCIL_FAILING_LABELS), True)


def fiber_cases():
    sys.path.insert(0, str(SRC))
    from prymkit.rat import rat
    from prymkit.verify import RunConfig, families

    fams = families(RunConfig((rat(9), rat(2), rat(8)), rat(3), rat(4)))
    _, records = prymkit("fibers")
    rec = next(r for r in records if r["family"] == "dual_kummer")
    fam = fams["dual_kummer"].to_json()
    expect("fiber places agree with sympy", checks.fiber_places_problems(fam, rec), False)
    bad = copy.deepcopy(rec)
    bad["fibers"][0]["ord_delta"] += 1
    expect("wrong ord(Delta) at a place is rejected", checks.fiber_places_problems(fam, bad), True)
    bad = copy.deepcopy(rec)
    bad["fibers"][0]["type"] = "III"
    expect("wrong Kodaira type is rejected", checks.fiber_places_problems(fam, bad), True)


def curve_cases():
    sys.path.insert(0, str(SRC))
    from prymkit import genus2 as g2
    from prymkit.rat import rat_str
    from prymkit.upoly import UPoly
    from prymkit.invariants import igusa_clebsch, wp_equal

    pairs = corpus.curve_pairs(random.Random(7), 5, set())
    related = next(p for p in pairs if p["related"])
    unrelated = next(p for p in pairs if not p["related"])
    for pair in (related, unrelated):
        ia = g2.igusa_clebsch(g2.Genus2Curve(UPoly(pair["f"])))
        ib = g2.igusa_clebsch(g2.Genus2Curve(UPoly(pair["g"])))
        res = {"a": [rat_str(v) for v in ia.as_tuple()], "b": [rat_str(v) for v in ib.as_tuple()],
               "wp_equal": wp_equal(ia, ib)}
        kind = "related" if pair["related"] else "unrelated"
        expect(f"{kind} pair passes", checks.curve_op_problems(pair, res), False)
        for k, name in ((0, "I2"), (2, "I6"), (3, "I10")):
            bad = copy.deepcopy(res)
            bad["b"][k] = str(-int(bad["b"][k]))
            caught = checks.curve_op_problems(pair, bad)
            if name == "I6" and not pair["related"]:  # left to the scratch-copy checks
                moved = igusa_clebsch(corpus.mobius(pair["g"], 1, 2, -1, 1, 1)).as_tuple()
                caught = checks.moebius_problems(pair["g"], bad["b"], [1, 2, -1, 1], moved)
            expect(f"{kind} pair with {name}(g) off by a sign is rejected", caught, True)
        bad = copy.deepcopy(res)
        bad["a"] = [str(-int(v)) for v in bad["a"]]
        expect(f"{kind} pair with the tuple of f off by a sign is rejected",
               checks.curve_op_problems(pair, bad), True)
        bad = dict(res, wp_equal=not res["wp_equal"])
        expect(f"{kind} pair with the wrong verdict is rejected",
               checks.curve_op_problems(pair, bad), True)

    f = related["f"]
    inv_f = igusa_clebsch(f).as_tuple()
    scaled = igusa_clebsch([2 * v for v in f]).as_tuple()
    expect("scaling covariance holds", checks.scaling_problems(f, inv_f, 2, scaled), False)
    expect("scaling with I4 off by a sign is rejected", checks.scaling_problems(
        f, inv_f, 2, [scaled[0], -scaled[1], *scaled[2:]]), True)
    m = [1, 2, -1, 1]
    moved = igusa_clebsch(corpus.mobius(f, *m, 1)).as_tuple()
    expect("Moebius covariance holds", checks.moebius_problems(f, inv_f, m, moved), False)
    expect("Moebius image with I4 off by a sign is rejected", checks.moebius_problems(
        f, inv_f, m, [moved[0], -moved[1], *moved[2:]]), True)

    expect("wp_equivalent: (0,1,1,1) vs (0,1,1,-1) differ",
           [] if not checks.wp_equivalent((0, 1, 1, 1), (0, 1, 1, -1)) else ["equal"], False)
    expect("wp_equivalent: (0,1,-1,-1) ~ (0,1,1,1) by r^2 = -1",
           [] if checks.wp_equivalent((0, 1, -1, -1), (0, 1, 1, 1)) else ["differ"], False)


def metric_names_case():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "curve_invariants",
                          "--seed", "1", "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, cwd=ROOT)
    got = set(json.loads(out.stdout.splitlines()[-1])["metrics"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in spec["per_layer"]}
    diff = sorted(got ^ want)
    expect("traced run prints exactly the per-layer metrics of BENCHMARK.json",
           [f"differ: {diff}"] if diff else [], False)


def main() -> int:
    workdir = HERE / "runs"
    workdir.mkdir(exist_ok=True)
    certificate_cases(workdir)
    fiber_cases()
    curve_cases()
    metric_names_case()
    print(f"{len(failures)} case(s) misbehaved" if failures else "all cases behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
