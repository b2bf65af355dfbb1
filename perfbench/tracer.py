"""Per-layer call counts and inclusive times, collected from outside prymkit.

Each traced function is replaced by a counting wrapper everywhere it is
bound: in its own module, in every prymkit module that imported it by name
(``from .upoly import resultant``), in module-level tables of functions
(``verify.SUITES``) and, for methods, in the class dict under every alias
(``__rmul__ = __mul__``).  A call through any of these names is counted.

Counters are kept per thread, because ``run_suites`` runs suites in a thread
pool, and merged when the trace is read.  The time of a call is wall time,
inclusive of callees; a recursive call is counted but not timed again.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

MODULES = ("rat", "upoly", "bpoly", "ratfunc", "factorq", "invariants", "quadforms",
           "genus2", "hermite", "fibration", "pencil3", "genus5", "verify", "jsonio", "cli")

# "<module>.<qualname>" of each traced function; a method is named by its class
# and the operator it implements without underscores (UPoly.mul is __mul__).
TARGETS = (
    "rat.sqrt_exact",
    "upoly.UPoly.__mul__", "upoly.UPoly.__divmod__", "upoly.resultant",
    "upoly.resultant_upoly_coeffs", "upoly.gcd", "upoly.discriminant",
    "upoly.inv_mod", "upoly.valuation",
    "bpoly.BPoly.__mul__", "bpoly.BPoly.exact_divide",
    "ratfunc.RatFunc.__mul__",
    "factorq.squarefree_places",
    "invariants.igusa_clebsch", "invariants.transvectant", "invariants.wp_equal",
    "invariants.wp_scale_equal",
    "quadforms.det_pencil5",
    "genus2.igusa_clebsch",
    "hermite.hermite_polys", "hermite.jacobian_of_quartic",
    "fibration.height_pairing", "fibration.classify_fibers",
    "fibration.sections_from_aj", "fibration.build_pencil_dual",
    "pencil3.classify_member", "pencil3.hyperelliptic_pairings",
    "pencil3.PencilParams.from_cover",
    "genus5.gamma_locus", "genus5.prym_genus2",
    "verify.suite_richelot", "verify.suite_fibers", "verify.suite_identification",
    "verify.suite_pencil", "verify.suite_genus5", "verify.suite_heights",
    "verify.recheck_certificate",
    "jsonio.dumps",
    "cli.main",
)

# functions whose distinct first arguments are recorded as well
KEYED = {"fibration.classify_fibers": lambda fam: json.dumps(fam.to_json(), sort_keys=True)}


def metric_name(target: str) -> str:
    """'upoly.UPoly.__mul__' -> 'upoly.UPoly.mul'."""
    return ".".join(p.strip("_") for p in target.split("."))


class Tracer:
    def __init__(self):
        self._states = {}  # thread ident -> {target: [calls, ns, depth]}
        self._keys = {}  # target -> set of distinct keys seen

    def _state(self):
        return self._states.setdefault(threading.get_ident(), {})

    def _wrap(self, target, fn):
        state = self._state
        keyfn = KEYED.get(target)
        keys = self._keys.setdefault(target, set()) if keyfn else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            rec = st.get(target)
            if rec is None:
                rec = st[target] = [0, 0, 0]
            rec[0] += 1
            if keys is not None:
                keys.add(keyfn(args[0]))
            if rec[2]:
                return fn(*args, **kwargs)
            rec[2] = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[1] += clock() - t0
                rec[2] = 0

        return wrapper

    def install(self):
        """Import every prymkit module and rebind each target everywhere it is bound."""
        mods = [importlib.import_module(f"prymkit.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, mods))
        for target in TARGETS:
            modname, *path = target.split(".")
            owner = by_name[modname]
            for part in path[:-1]:
                owner = getattr(owner, part)
            raw = vars(owner)[path[-1]]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(target, raw.__func__))
            else:
                wrapped = self._wrap(target, raw)
            _rebind(mods, raw, wrapped)
        return self

    def snapshot(self) -> dict:
        """{metric name: {"calls": n, "ms": inclusive ms}} plus distinct-key counts."""
        out = {metric_name(t): {"calls": 0, "ms": 0.0} for t in TARGETS}
        for st in list(self._states.values()):
            for target, (calls, ns, _) in list(st.items()):
                rec = out[metric_name(target)]
                rec["calls"] += calls
                rec["ms"] += ns / 1e6
        for target, keys in self._keys.items():
            out[metric_name(target)]["distinct"] = len(keys)
        return out


def _rebind(modules, old, new):
    """Replace `old` by `new` in module namespaces, in module-level dicts and
    in the dicts of classes defined in these modules."""
    for mod in modules:
        ns = vars(mod)
        for name, val in list(ns.items()):
            if val is old:
                ns[name] = new
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is old:
                        val[k] = new
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                for k, v in list(vars(val).items()):
                    if v is old:
                        setattr(val, k, new)
