"""Fresh interpreter for curve_invariants ops and for set-up probes.

Usage: python3 perfbench/opworker.py [--trace]

It imports the prymkit entry point, prints one JSON line {"import_ms": ...}
as soon as it is ready for its first op, then reads one JSON line
{"pairs": [...]} from stdin, runs one op per pair and prints one JSON line
with the results.  An empty list makes it a set-up probe.  With --trace
the per-layer tracer is installed after the ready line, before the ops.
"""

import time

_t0 = time.perf_counter()
import prymkit.cli  # noqa: E402  (the entry point whose import set-up measures)

_import_ms = (time.perf_counter() - _t0) * 1e3

import json  # noqa: E402
import sys  # noqa: E402

from prymkit import genus2 as g2  # noqa: E402
from prymkit import invariants as inv  # noqa: E402
from prymkit.rat import rat, rat_str  # noqa: E402
from prymkit.upoly import UPoly  # noqa: E402

from procmem import peak_rss_mb  # noqa: E402  (this script's directory is on sys.path)


def run_op(f, g):
    """One op: both curves (with their discriminant check), both invariant
    tuples, and the weighted-projective verdict."""
    ca = g2.Genus2Curve(UPoly([rat(v) for v in f]))
    cb = g2.Genus2Curve(UPoly([rat(v) for v in g]))
    ia = g2.igusa_clebsch(ca)
    ib = g2.igusa_clebsch(cb)
    return ia, ib, inv.wp_equal(ia, ib)


def main() -> int:
    print(json.dumps({"import_ms": _import_ms}), flush=True)
    job = json.loads(sys.stdin.readline())
    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer().install()
    clock = time.perf_counter
    results = []
    for pair in job["pairs"]:
        t0 = clock()
        ia, ib, same = run_op(pair["f"], pair["g"])
        ms = (clock() - t0) * 1e3
        results.append({"ms": ms, "a": [rat_str(v) for v in ia.as_tuple()],
                        "b": [rat_str(v) for v in ib.as_tuple()], "wp_equal": same})
    out = {"results": results, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
