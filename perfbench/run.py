#!/usr/bin/env python3
"""prymkit benchmark.

Usage (from the root of a prymkit checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify_reference, moduli_sweep, curve_invariants (see README.md).
Ops run one at a time, each in a fresh interpreter, for about S seconds in
whole rounds.  The outputs are then checked apart from the program.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import corpus
from procmem import peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable
SETUP_SAMPLES = 24  # set-up probes per run, spread over the run
CURVE_CHUNK = 150  # curve_invariants ops per worker interpreter
COVARIANCE_STRIDE = 16  # every 16th curve op: scaling of f and Moebius map of g

WORKLOADS = ("verify_reference", "moduli_sweep", "curve_invariants")


class Run:
    """State of one benchmark run: ops, set-up samples, problems, traces."""

    def __init__(self, workload, seed, seconds, trace, workdir):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.ops = []  # {"ms", "rss_mb", "checks", "failed", "traced", ...}
        self.setup = []  # (seconds to ready, import ms inside the interpreter)
        self.problems = []
        self.traces = []  # (per-layer snapshot, ops it covers, configs it covers)
        self.start = None
        self.recheck = {"calls": 0, "ms": 0.0}  # traced `verify --recheck`, whole run
        # the configuration whose fiber places sympy re-derives, once per run
        pick = random.Random(f"fibers:{workload}:{seed}")
        if workload == "moduli_sweep":
            self.fiber_config = (pick.choice(corpus.SPLIT_MODULI), pick.choice(("k15", "k23")))
        else:
            self.fiber_config = (corpus.REFERENCE, "k15")

    # -- processes --------------------------------------------------------------------

    def timed_process(self, cmd, name):
        """Run cmd to its end with stdout/stderr in files; (seconds, exit code,
        peak RSS in MB, stdout text)."""
        out_path = self.workdir / f"{name}.out"
        with open(out_path, "wb") as out, open(self.workdir / f"{name}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return dt, proc.returncode, usage.ru_maxrss / 1024, out_path.read_text()

    def worker(self, pairs, traced):
        """Start opworker.py, time it to its ready line, hand it the pairs.
        Returns (set-up seconds, import ms, worker output)."""
        cmd = [PY, str(HERE / "opworker.py")] + (["--trace"] if traced else [])
        with open(self.workdir / "worker.err", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    stderr=err, env=self.env, cwd=ROOT)
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                proc.stdin.write(json.dumps({"pairs": pairs}).encode() + b"\n")
                proc.stdin.close()
                body = proc.stdout.read()
            finally:
                proc.wait()
                proc.stdout.close()
        if proc.returncode != 0 or not ready:
            raise RuntimeError(f"opworker exited {proc.returncode}: "
                               f"{(self.workdir / 'worker.err').read_text()[-2000:]}")
        return setup_s, json.loads(ready)["import_ms"], json.loads(body)

    def probe_setup(self):
        """One set-up sample: a fresh interpreter importing prymkit.cli."""
        setup_s, import_ms, _ = self.worker([], False)
        self.setup.append((setup_s, import_ms))

    def spread_setup(self):
        """Keep the set-up samples spread evenly over the measured time."""
        due = SETUP_SAMPLES * min(1.0, (time.perf_counter() - self.start) / self.seconds)
        while len(self.setup) < due:
            self.probe_setup()

    def elapsed(self):
        return time.perf_counter() - self.start

    # -- verify workloads -------------------------------------------------------------------

    def rounds(self):
        if self.workload == "verify_reference":
            # the reference moduli are the CLI defaults: no moduli arguments
            return [(["--suite", "all"], frozenset())]
        return [(corpus.verify_args(mod, variant, suites),
                 corpus.PENCIL_FAILING_LABELS if "pencil" in suites else frozenset())
                for mod, variant, suites in corpus.sweep_round(self.rng)]

    def verify_op(self, args, expected_failures, traced):
        i = len(self.ops)
        cert = self.workdir / f"op{i}.jsonl"
        trace_path = self.workdir / f"op{i}.trace.json"
        if traced:
            cmd = [PY, str(HERE / "traced_cli.py"), str(trace_path), "verify", *args]
        else:
            cmd = [PY, "-m", "prymkit.cli", "verify", *args]
        dt, code, rss, _ = self.timed_process(cmd + ["--out", str(cert)], f"op{i}")
        if rss <= peak_rss_mb():
            # a child started by vfork reports at least its parent's peak
            self.problems.append(f"op {i}: peak RSS {rss:.1f} MB is not above this "
                                 f"process's own peak, so it is not the op's")
        op = {"ms": dt * 1e3, "rss_mb": rss, "traced": traced, "cert": cert,
              "expected_failures": expected_failures, "failed": code != 0}
        want = 1 if expected_failures else 0
        if code != want:
            err = (self.workdir / f"op{i}.err").read_text()[-2000:]
            self.problems.append(f"op {i} ({' '.join(args)}): exit {code}, expected {want}: {err}")
        if traced:
            self.traces.append((json.loads(trace_path.read_text()), 1, 1))
        self.ops.append(op)

    def run_verify(self):
        traced_round = False
        while True:
            for args, expected in self.rounds():
                self.verify_op(args, expected, traced_round)
                self.spread_setup()
            if self.trace:
                traced_round = not traced_round
                if self.elapsed() >= self.seconds and not traced_round:
                    break  # as many traced rounds as untraced ones
            elif self.elapsed() >= self.seconds:
                break
        self.check_verify()

    def check_verify(self):
        all_certs = []
        for i, op in enumerate(self.ops):
            certs = checks.load_jsonl(op["cert"].read_text())
            op["checks"] = sum(len(c.get("checks", [])) for c in certs)
            op["bytes"] = op["cert"].stat().st_size
            self.problems += [f"op {i}: {p}"
                              for p in checks.certificate_problems(certs, op["expected_failures"])]
            all_certs += certs
        # `prymkit verify --recheck` on every certificate the run wrote, in one file
        bundle = self.workdir / "all.jsonl"
        bundle.write_text("".join(op["cert"].read_text() for op in self.ops))
        recheck_trace = self.workdir / "recheck.trace.json"
        if self.trace:
            cmd = [PY, str(HERE / "traced_cli.py"), str(recheck_trace), "verify"]
        else:
            cmd = [PY, "-m", "prymkit.cli", "verify"]
        _, code, _, out = self.timed_process(cmd + ["--recheck", str(bundle)], "recheck")
        want = 0 if all(c["status"] == "pass" for c in all_certs) else 1
        if code != want:
            self.problems.append(f"recheck exited {code}, expected {want}")
        self.problems += checks.recheck_problems(checks.load_jsonl(out), all_certs)
        if self.trace:
            self.recheck = json.loads(recheck_trace.read_text())["verify.recheck_certificate"]
        self.check_fiber_places()

    def check_fiber_places(self):
        """Once per run: sympy factors each family's discriminant at one
        configuration and must find the places of `prymkit fibers`."""
        moduli, variant = self.fiber_config
        args = corpus.verify_args(moduli, variant, ())
        _, code, _, out = self.timed_process([PY, "-m", "prymkit.cli", "fibers", *args], "fibers")
        if code != 0:
            self.problems.append(f"prymkit fibers {' '.join(args)} exited {code}")
            return
        sys.path.insert(0, str(SRC))
        from prymkit.rat import rat
        from prymkit.verify import RunConfig, families

        lam = tuple(rat(v) for v in moduli[0].split(","))
        fams = families(RunConfig(lam, rat(moduli[1]), rat(moduli[2]), variant))
        records = checks.load_jsonl(out)
        if sorted(r["family"] for r in records) != sorted(fams):
            self.problems.append(f"fiber tables for {[r['family'] for r in records]}")
        for rec in records:
            self.problems += checks.fiber_places_problems(fams[rec["family"]].to_json(), rec)

    # -- curve_invariants -----------------------------------------------------------------------

    def run_curves(self):
        seen = set()
        traced = False
        while True:
            pairs = corpus.curve_pairs(self.rng, CURVE_CHUNK, seen)
            setup_s, import_ms, out = self.worker(pairs, traced)
            self.setup.append((setup_s, import_ms))
            for pair, res in zip(pairs, out["results"]):
                self.ops.append({"ms": res["ms"], "rss_mb": out["peak_rss_mb"], "traced": traced,
                                 "failed": False, "pair": pair, "result": res,
                                 # invariant weights the verdict compares
                                 "checks": min(len(res["a"]), len(res["b"]))})
            if len(out["results"]) != len(pairs):
                self.problems.append(f"worker returned {len(out['results'])} of {len(pairs)} ops")
            if traced:
                self.traces.append((out["trace"], len(pairs), 0))
            self.spread_setup()
            if self.trace:
                traced = not traced
                if self.elapsed() >= self.seconds and not traced:
                    break
            elif self.elapsed() >= self.seconds:
                break
        self.check_curves()

    def check_curves(self):
        sys.path.insert(0, str(SRC))
        from prymkit.invariants import igusa_clebsch

        crng = random.Random(f"covariance:{self.seed}")
        for i, op in enumerate(self.ops):
            self.problems += [f"op {i}: {p}"
                              for p in checks.curve_op_problems(op["pair"], op["result"])]
            if i % COVARIANCE_STRIDE:
                continue
            pair, res = op["pair"], op["result"]
            lam = crng.choice((-3, -2, 2, 3, 5))
            scaled = igusa_clebsch([lam * v for v in pair["f"]]).as_tuple()
            self.problems += [f"op {i}: {p}" for p in
                              checks.scaling_problems(pair["f"], res["a"], lam, scaled)]
            while True:
                m = [crng.randint(-3, 3) for _ in range(4)]
                if m[0] * m[3] - m[1] * m[2]:
                    break
            moved = igusa_clebsch(corpus.mobius(pair["g"], *m, 1)).as_tuple()
            self.problems += [f"op {i}: {p}" for p in
                              checks.moebius_problems(pair["g"], res["b"], m, moved)]

    # -- metrics -----------------------------------------------------------------------------------

    def end_to_end(self):
        timed = [op for op in self.ops if not op["traced"]]
        return {
            "setup_s": (statistics.median(s for s, _ in self.setup), "s"),
            "op_ms": (statistics.median(op["ms"] for op in timed), "ms"),
            "peak_rss_mb": (max(op["rss_mb"] for op in timed), "MB"),
            "checks_per_op": (statistics.fmean(op["checks"] for op in self.ops), "checks"),
        }

    def per_layer(self):
        from tracer import TARGETS, metric_name

        timed = sorted(op["ms"] for op in self.ops if not op["traced"])
        traced = [op["ms"] for op in self.ops if op["traced"]]
        n = len(timed)
        # highest percentile with at least ten samples beyond it; the median below 40 ops
        tail = timed[n - 11] if n >= 40 else statistics.median(timed)
        m = {
            "op_ms.tail": (tail, "ms"),
            "op_ms.traced": (statistics.median(traced), "ms"),
            "trace.overhead_ms": (statistics.median(traced) - statistics.median(timed), "ms"),
            "cli.import_ms": (statistics.median(i for _, i in self.setup), "ms"),
        }
        total = {metric_name(t): [0, 0.0] for t in TARGETS}
        ops = configs = distinct_families = 0
        for snap, n_ops, n_cfg in self.traces:
            ops += n_ops
            configs += n_cfg
            for name, rec in snap.items():
                total[name][0] += rec["calls"]
                total[name][1] += rec["ms"]
            distinct_families += snap["fibration.classify_fibers"].get("distinct", 0)
        for name, (calls, ms) in total.items():
            m[f"{name}.calls"] = (calls / ops, "count")
            m[f"{name}.ms"] = (ms / ops, "ms")
        fam_calls = total["fibration.classify_fibers"][0]
        m["fibration.classify_fibers.calls_per_family"] = (
            fam_calls / distinct_families if distinct_families else 0.0, "calls/family")
        for name in ("pencil3.PencilParams.from_cover", "fibration.build_pencil_dual"):
            m[f"{name}.calls_per_config"] = (
                total[name][0] / configs if configs else 0.0, "calls/config")
        # the recheck runs once over every op's certificates, so it is per op of the run
        m["verify.recheck_certificate.calls"] = (self.recheck["calls"] / len(self.ops), "count")
        m["verify.recheck_certificate.ms"] = (self.recheck["ms"] / len(self.ops), "ms")
        sizes = [op["bytes"] for op in self.ops if "bytes" in op]
        m["jsonio.cert_bytes"] = (statistics.fmean(sizes) if sizes else 0.0, "bytes")
        return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "prymkit" / "cli.py").is_file():
        print(f"error: no prymkit sources under {SRC}", file=sys.stderr)
        return 2
    runs_dir = HERE / "runs"
    runs_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir))
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        run.probe_setup()  # compiles the byte code once; not a sample
        run.setup.clear()
        run.start = time.perf_counter()
        if args.workload == "curve_invariants":
            run.run_curves()
        else:
            run.run_verify()
        run.spread_setup()
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in run.problems[:50]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": len(run.ops),
        "failed": sum(op["failed"] for op in run.ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
