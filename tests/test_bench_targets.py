"""The benchmark's tracer rebinds library functions by name; every name it
targets must exist, or the traced benchmark run fails.  The benchmark's
curve op must also pass the benchmark's own checks, or the run fails."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_targets_install():
    # a subprocess, so the functions of this test session are not rebound
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
                         env=env, capture_output=True, text=True, cwd=ROOT)
    assert out.returncode == 0, out.stderr


def test_curve_op_passes_the_benchmark_checks(monkeypatch):
    """The curve_invariants op, run by the benchmark's worker on 60 corpus
    pairs from two seeds, passes the benchmark's own output checks; so do
    the covariance checks, called as the benchmark calls them.  The batch
    holds every corpus shape: quintics and sextics, related and unrelated
    pairs."""
    pytest.importorskip("sympy")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks
    import corpus

    from prymkit.invariants import igusa_clebsch

    seen = set()
    pairs = [pair for seed in ("tier-1", "tier-1:b")
             for pair in corpus.curve_pairs(random.Random(seed), 30, seen)]
    assert {len(pair[k]) - 1 for pair in pairs for k in "fg"} == {5, 6}
    assert {pair["related"] for pair in pairs} == {True, False}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "opworker.py")],
                         input=json.dumps({"pairs": pairs}) + "\n", env=env,
                         capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    results = json.loads(out.stdout.splitlines()[-1])["results"]
    assert len(results) == len(pairs)
    for pair, res in zip(pairs, results):
        assert checks.curve_op_problems(pair, res) == []
        # I_k(lam f) = lam^k I_k(f), on a scaled int list
        scaled = igusa_clebsch([-3 * v for v in pair["f"]]).as_tuple()
        assert checks.scaling_problems(pair["f"], res["a"], -3, scaled) == []
        moved = igusa_clebsch(corpus.mobius(pair["g"], 2, 1, -1, 1, 1)).as_tuple()
        assert checks.moebius_problems(pair["g"], res["b"], (2, 1, -1, 1), moved) == []

    # a form with the double root x = 1, moved so that the root goes to
    # infinity: the image has degree 4, and both have I10 = 0
    f = [3, -5, 3, -2, 1, -1, 1]  # (x - 1)^2 (x^4 + x^3 + 2 x^2 + x + 3)
    m = (1, 0, 1, 1)
    image = corpus.mobius(f, *m, 1)
    assert len(image) - 1 == 4
    inv_f = igusa_clebsch(f).as_tuple()
    assert inv_f[3] == 0
    assert checks.moebius_problems(f, inv_f, m, igusa_clebsch(image).as_tuple()) == []


def _prymkit(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "prymkit.cli", *args], env=env,
                          capture_output=True, text=True, cwd=ROOT, timeout=120)


def test_verify_ops_pass_the_benchmark_checks(monkeypatch, tmp_path):
    """The verify_reference op and the moduli_sweep op at (9,16,36; 3,24) k15
    with pencil, run as the benchmark runs them, pass the benchmark's own
    certificate checks; so do the recheck of both and one fiber table, whose
    places sympy re-derives from the family's discriminant."""
    pytest.importorskip("sympy")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks
    import corpus

    from prymkit.rat import rat
    from prymkit.verify import RunConfig, families

    (sweep,) = [(mod, suites) for mod, variant, suites in corpus.sweep_configs()
                if mod[0] == "9,16,36" and variant == "k15"]
    assert "pencil" in sweep[1]
    ops = [(["--suite", "all"], frozenset(), 0),
           (corpus.verify_args(sweep[0], "k15", sweep[1]), corpus.PENCIL_FAILING_LABELS, 1)]
    texts, all_certs = [], []
    for i, (args, expected, code) in enumerate(ops):
        path = tmp_path / f"op{i}.jsonl"
        out = _prymkit("verify", *args, "--out", str(path))
        assert out.returncode == code, out.stderr
        certs = checks.load_jsonl(path.read_text())
        assert checks.certificate_problems(certs, expected) == []
        texts.append(path.read_text())
        all_certs += certs
    bundle = tmp_path / "all.jsonl"
    bundle.write_text("".join(texts))
    out = _prymkit("verify", "--recheck", str(bundle))
    assert out.returncode == 1, out.stderr  # the sweep op's pencil certificate fails
    assert checks.recheck_problems(checks.load_jsonl(out.stdout), all_certs) == []

    out = _prymkit("fibers", "--family", "pencil_dual")
    assert out.returncode == 0, out.stderr
    (record,) = checks.load_jsonl(out.stdout)
    fam = families(RunConfig(tuple(rat(v) for v in corpus.REFERENCE[0].split(",")),
                             rat(corpus.REFERENCE[1]), rat(corpus.REFERENCE[2]), "k15"))
    assert checks.fiber_places_problems(fam["pencil_dual"].to_json(), record) == []
