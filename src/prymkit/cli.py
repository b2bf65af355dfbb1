"""Command-line front end: verification suites, pencil classification,
fiber tables, and invariants of input curves, all emitted as JSON lines."""

from __future__ import annotations

import argparse
import json
import os
import sys

# each command imports the stack it runs, so that `prymkit invariants` and
# a plain import of this module load no verification suite
from .rat import rat, rat_str
from .jsonio import dumps

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_INPUT_ERROR = 2


def _parse_lambda(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("--lambda expects three comma-separated rationals")
    return tuple(rat(p) for p in parts)


def _add_moduli_args(ap: argparse.ArgumentParser):
    ap.add_argument("--lambda", dest="lambdas", default="9,2,8",
                    help="Rosenhain branch points, e.g. 9,2,8")
    ap.add_argument("--kappa15", default="3", help="square root of lambda1")
    ap.add_argument("--kappa23", default="4", help="square root of lambda2*lambda3")
    ap.add_argument("--variant", choices=("k15", "k23"), default="k15")


def _config(args):
    from .verify import RunConfig

    lambdas = _parse_lambda(args.lambdas)
    ts = tuple(rat(t) for t in getattr(args, "t", None) or ())
    suites = tuple(getattr(args, "suite", None) or ("all",))
    return RunConfig(lambdas, rat(args.kappa15), rat(args.kappa23), args.variant, ts, suites)


def _emit(out, obj):
    out.write(dumps(obj) + "\n")


def _open(path: str, mode: str):
    """open(), with an unusable path reported as invalid input."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValueError(f"cannot open {path}: {exc.strerror or exc}") from exc


def _open_out(path: str):
    """The file that `--out PATH` certificates are written to, and a function
    close(keep) for the end of the run.  A regular or new PATH is written
    under a temporary name beside it, which replaces it only if keep is true,
    so a run that exits 2 leaves PATH as it was.  Any other existing PATH (a
    device, a pipe) is written directly."""
    if os.path.exists(path) and not os.path.isfile(path):
        fh = _open(path, "w")
        return fh, lambda keep: fh.close()
    target = os.path.realpath(path)  # through a symlink, as open() writes
    tmp = os.path.join(os.path.dirname(target),
                       f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        fh = os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w")
    except OSError as exc:
        raise ValueError(f"cannot open {path}: {exc.strerror or exc}") from exc

    def close(keep: bool):
        fh.close()
        if keep:
            os.replace(tmp, target)
        else:
            os.remove(tmp)

    return fh, close


def _recheck(path: str, out) -> int:
    from .verify import recheck_certificate

    ok_all = True
    with _open(path, "r") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                cert = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {n} of {path}: {exc.msg} (column {exc.colno})") from exc
            if not isinstance(cert, dict):
                raise ValueError(f"line {n} of {path} is not a certificate (a JSON object)")
            ok, failures = recheck_certificate(cert)
            ok_all &= ok
            _emit(out, {"suite": cert.get("suite"), "recheck": "pass" if ok else "fail",
                        "failures": failures})
    return EXIT_OK if ok_all else EXIT_SUITE_FAILURE


def cmd_verify(args, out) -> int:
    if args.recheck:
        return _recheck(args.recheck, out)
    from .verify import run_suites

    cfg = _config(args)
    # open the output before any suite runs, so a bad path costs no work
    sink, close = _open_out(args.out) if args.out else (out, None)
    ok_all = True
    finished = False
    try:
        certs = run_suites(cfg)
        for cert in certs:
            ok_all &= cert.status == "pass"
            _emit(sink, cert.to_json())
        finished = True
    finally:
        if close is not None:
            close(finished)
    if args.out:
        for cert in certs:
            _emit(out, {"suite": cert.suite, "status": cert.status,
                        "checks": len(cert.checks)})
    return EXIT_OK if ok_all else EXIT_SUITE_FAILURE


def cmd_pencil(args, out) -> int:
    from . import pencil3 as p3

    cfg = _config(args)
    if not cfg.ts:
        raise ValueError("pencil classify needs at least one --t value")
    pp = cfg.pencil
    for t in cfg.ts:
        mc = p3.classify_member(pp, t)
        record = {"t": rat_str(rat(t)), "class": mc.kind, "witness": mc.witness}
        if mc.kind == "ReducibleLinePlusGenus2":
            record["witness"]["genus2_component"] = p3.node_genus2(pp, t).to_json()
        _emit(out, record)
    return EXIT_OK


def cmd_fibers(args, out) -> int:
    from . import fibration as fb
    from .verify import families

    cfg = _config(args)
    fams = families(cfg)
    wanted = args.family or sorted(fams)
    for name in wanted:
        if name not in fams:
            raise ValueError(f"unknown family {name!r}; choose from {sorted(fams)}")
        reports = fb.irreducible_reports(fb.classify_fibers(fams[name]))
        _emit(out, {
            "family": name,
            "inventory": fb.fiber_inventory(reports),
            "fibers": [r.to_json() for r in reports],
            "total_ord_delta": fb.total_ord_delta(reports),
        })
    return EXIT_OK


def cmd_invariants(args, out) -> int:
    from . import genus2 as g2
    from .upoly import UPoly

    data = json.loads(args.curve)
    if not isinstance(data, list):
        raise ValueError("--curve expects a JSON array of rationals")
    coeffs = [rat(str(v)) for v in data]
    f = UPoly(coeffs)
    if f.degree not in (5, 6):
        raise ValueError("curve polynomial must have degree 5 or 6")
    try:
        curve = g2.Genus2Curve(f)
    except ValueError as exc:
        # of degree 5 or 6, the curve is rejected only for a repeated root
        raise ValueError("curve polynomial is not squarefree") from exc
    _emit(out, {"curve": f.to_json(), "igusa_clebsch": g2.igusa_clebsch(curve).to_json()})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="prymkit",
                                 description="exact verification of the pencil geometry")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    _add_moduli_args(v)
    # verify.run_suites rejects an unknown name, before any suite runs
    v.add_argument("--suite", action="append",
                   help="a suite to run, or all (the default); repeatable")
    v.add_argument("--out", help="write certificates (JSON lines) to this path")
    v.add_argument("--recheck", help="re-validate a certificate file from witness data")

    p = sub.add_parser("pencil", help="classify pencil members")
    psub = p.add_subparsers(dest="pencil_command", required=True)
    pc = psub.add_parser("classify")
    _add_moduli_args(pc)
    pc.add_argument("--t", action="append", required=True)

    f = sub.add_parser("fibers", help="fiber tables of the five families")
    _add_moduli_args(f)
    f.add_argument("--family", action="append",
                   choices=["shioda", "kummer12", "dual_kummer", "pencil_jac", "pencil_dual"])

    i = sub.add_parser("invariants", help="invariants of an input sextic")
    i.add_argument("--curve", required=True,
                   help="JSON array of rational coefficients, ascending degree")
    return ap


COMMANDS = {"verify": cmd_verify, "pencil": cmd_pencil, "fibers": cmd_fibers,
            "invariants": cmd_invariants}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    out = sys.stdout
    try:
        code = COMMANDS[args.command](args, out)
        out.flush()
        return code
    except (ValueError, ZeroDivisionError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:
        # the reader closed stdout: send the interpreter's final flush to
        # devnull, so that it raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return EXIT_SUITE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
