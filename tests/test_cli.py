import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from prymkit.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "richelot")
    assert code == 0
    cert = json.loads(out.strip())
    assert cert["suite"] == "richelot" and cert["status"] == "pass"
    assert all(c["ok"] for c in cert["checks"])


@pytest.mark.parametrize("variant", ["k15", "k23"])
def test_verify_all_pass_exit_zero(capsys, variant):
    code, out, _ = run_cli(capsys, "verify", "--lambda", "9,2,8", "--kappa15", "3",
                           "--kappa23", "4", "--variant", variant, "--suite", "all")
    assert code == 0
    # the certificates at the reference moduli, byte for byte
    assert out == (DATA / f"reference_{variant}.jsonl").read_text()
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert [d["suite"] for d in lines] == [
        "richelot", "fibers", "identification", "pencil", "genus5", "heights",
    ]
    assert all(d["status"] == "pass" for d in lines)


SWEEP_SUITES = ("richelot", "fibers", "identification", "genus5")


@pytest.mark.parametrize("moduli, variant, suites, expected_code, golden", [
    (("49,5,45", "7", "15"), "k15", SWEEP_SUITES, 0, "sweep_49_5_45_k15.jsonl"),
    # pencil fails its members at t = +-4 here, in both variants
    (("9,16,36", "3", "24"), "k23", SWEEP_SUITES + ("pencil",), 1, "sweep_9_16_36_k23.jsonl"),
], ids=["49_5_45_k15", "9_16_36_k23"])
def test_split_moduli_certificates(capsys, moduli, variant, suites, expected_code, golden):
    # certificates away from the reference, where the parametric coefficients
    # are largest, byte for byte
    lam, k15, k23 = moduli
    argv = ["verify", "--lambda", lam, "--kappa15", k15, "--kappa23", k23, "--variant", variant]
    for suite in suites:
        argv += ["--suite", suite]
    code, out, _ = run_cli(capsys, *argv)
    assert code == expected_code
    assert out == (DATA / golden).read_text()


def test_invalid_moduli_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--lambda", "4,2,2",
                           "--kappa15", "2", "--kappa23", "2")
    assert code == 2
    assert "distinct" in err


def test_mismatched_square_root_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--lambda", "9,2,8",
                           "--kappa15", "5", "--kappa23", "4")
    assert code == 2
    assert "k15" in err


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "richelot")
    _, out2, _ = run_cli(capsys, "verify", "--suite", "richelot")
    assert out1 == out2


def test_certificates_roundtrip(tmp_path, capsys):
    path = tmp_path / "certs.jsonl"
    code, _, _ = run_cli(capsys, "verify", "--suite", "richelot", "--suite", "fibers",
                         "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--recheck", str(path))
    assert code == 0
    for line in out.strip().splitlines():
        assert json.loads(line)["recheck"] == "pass"


def test_recheck_detects_tampering(tmp_path, capsys):
    path = tmp_path / "certs.jsonl"
    run_cli(capsys, "verify", "--suite", "richelot", "--out", str(path))
    tampered = []
    for line in path.read_text().splitlines():
        cert = json.loads(line)
        cert["checks"][0]["r"] = "1"
        tampered.append(json.dumps(cert))
    path.write_text("\n".join(tampered) + "\n")
    code, out, _ = run_cli(capsys, "verify", "--recheck", str(path))
    assert code == 1
    assert json.loads(out.strip().splitlines()[0])["recheck"] == "fail"


_DROP = object()


@pytest.mark.parametrize("kind, where, value", [
    ("wp_equal", ("b", "I4"), _DROP),
    ("wp_scale", ("a", "I10"), "x"),
    ("wp_scale", ("r",), _DROP),
    ("wp_equal", ("a",), 5),
], ids=["wp_equal_without_I4", "wp_scale_I10_x", "wp_scale_without_r", "wp_equal_a_not_an_object"])
def test_recheck_fails_a_malformed_weighted_projective_check(tmp_path, capsys, kind, where, value):
    # an unreadable witness fails its own check, under its label, and the
    # recheck goes on to the other certificates
    certs = [json.loads(l) for l in (DATA / "reference_k15.jsonl").read_text().splitlines()]
    suite, check = next((c["suite"], ch) for c in certs for ch in c["checks"] if ch["kind"] == kind)
    *outer, key = where
    target = check
    for k in outer:
        target = target[k]
    if value is _DROP:
        del target[key]
    else:
        target[key] = value
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(c) + "\n" for c in certs))
    code, out, err = run_cli(capsys, "verify", "--recheck", str(path))
    assert (code, err) == (1, "")
    recs = [json.loads(l) for l in out.splitlines()]
    assert [r["suite"] for r in recs] == [c["suite"] for c in certs]
    for r in recs:
        want = ("fail", [check["label"]]) if r["suite"] == suite else ("pass", [])
        assert (r["recheck"], r["failures"]) == want


def test_verify_unwritable_out_exits_two_before_any_suite(tmp_path, capsys, monkeypatch):
    import prymkit.verify

    def refuse(cfg):
        raise AssertionError("a suite ran before --out was opened")

    monkeypatch.setattr(prymkit.verify, "run_suites", refuse)
    path = tmp_path / "missing" / "x.jsonl"
    code, out, err = run_cli(capsys, "verify", "--suite", "richelot", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot open {path}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, reason", [
    (("--lambda", "49,5,45", "--kappa15", "7", "--kappa23", "15", "--suite", "pencil"),
     "x0 is not a root of the quartic"),
    (("--lambda", "1,2,3"), None),
], ids=["pencil_49_5_45", "lambda_1_2_3"])
def test_verify_exiting_two_keeps_an_existing_out_file(tmp_path, capsys, argv, reason):
    path = tmp_path / "keep.jsonl"
    old = (DATA / "reference_k15.jsonl").read_bytes()
    path.write_bytes(old)
    code, out, err = run_cli(capsys, "verify", *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if reason is not None:
        assert reason in err
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.jsonl"]


def test_verify_out_replaces_an_existing_file_with_the_certificates(tmp_path, capsys):
    path = tmp_path / "certs.jsonl"
    path.write_text("an older run\n")
    code, out, err = run_cli(capsys, "verify", "--out", str(path))
    assert (code, err) == (0, "")
    assert path.read_bytes() == (DATA / "reference_k15.jsonl").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["certs.jsonl"]
    assert [json.loads(l)["status"] for l in out.splitlines()] == ["pass"] * 6


def test_verify_out_writes_through_a_symlink_and_to_a_device(tmp_path, capsys):
    (tmp_path / "real.jsonl").write_text("an older run\n")
    (tmp_path / "link.jsonl").symlink_to("real.jsonl")
    code, _, _ = run_cli(capsys, "verify", "--suite", "richelot",
                         "--out", str(tmp_path / "link.jsonl"))
    assert code == 0
    assert (tmp_path / "link.jsonl").is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "real.jsonl"]
    first = (DATA / "reference_k15.jsonl").read_text().splitlines(keepends=True)[0]
    assert (tmp_path / "real.jsonl").read_text() == first
    # a device is written directly, never replaced
    code, _, _ = run_cli(capsys, "verify", "--suite", "richelot", "--out", os.devnull)
    assert code == 0 and os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


def test_verify_out_of_a_failing_run_is_written(tmp_path, capsys):
    # exit 1 is a finished run: its certificates replace the file
    path = tmp_path / "certs.jsonl"
    path.write_text("an older run\n")
    code, _, err = run_cli(capsys, "verify", "--lambda", "9,16,36", "--kappa15", "3",
                           "--kappa23", "24", "--variant", "k23", *(
                               a for s in SWEEP_SUITES + ("pencil",) for a in ("--suite", s)),
                           "--out", str(path))
    assert (code, err) == (1, "")
    assert path.read_bytes() == (DATA / "sweep_9_16_36_k23.jsonl").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["certs.jsonl"]


def test_verify_out_to_a_directory_exits_two(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "richelot", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot open {tmp_path}: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


EQ_LABEL = "coefficient discriminant identity k15/sheet1"


@pytest.mark.parametrize("drop", [("lhs", "rhs"), ("lhs",), ("rhs",)],
                         ids=["both_sides", "lhs", "rhs"])
def test_recheck_fails_an_eq_check_without_its_sides(tmp_path, capsys, drop):
    certs = [json.loads(l) for l in (DATA / "reference_k15.jsonl").read_text().splitlines()]
    suite, check = next((c["suite"], ch) for c in certs for ch in c["checks"]
                        if ch.get("label") == EQ_LABEL)
    assert check["kind"] == "eq"
    for key in drop:
        del check[key]
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(c) + "\n" for c in certs))
    code, out, err = run_cli(capsys, "verify", "--recheck", str(path))
    assert (code, err) == (1, "")
    for r in map(json.loads, out.splitlines()):
        want = ("fail", [EQ_LABEL]) if r["suite"] == suite else ("pass", [])
        assert (r["recheck"], r["failures"]) == want


@pytest.mark.parametrize("line", ["[1]", "5", "null", '"cert"'])
def test_recheck_of_a_line_that_is_not_an_object_exits_two(tmp_path, capsys, line):
    first = (DATA / "reference_k15.jsonl").read_text().splitlines()[0]
    path = tmp_path / "bad.jsonl"
    path.write_text(first + "\n\n" + line + "\n")
    code, out, err = run_cli(capsys, "verify", "--recheck", str(path))
    assert code == 2
    assert [json.loads(l)["recheck"] for l in out.splitlines()] == ["pass"]
    assert err == f"error: line 3 of {path} is not a certificate (a JSON object)\n"


def test_recheck_names_the_file_line_that_does_not_parse(tmp_path, capsys):
    first = (DATA / "reference_k15.jsonl").read_text().splitlines()[0]
    path = tmp_path / "bad.jsonl"
    path.write_text(first + "\n{oops\n")
    code, out, err = run_cli(capsys, "verify", "--recheck", str(path))
    assert code == 2
    assert [json.loads(l)["recheck"] for l in out.splitlines()] == ["pass"]
    assert err == (f"error: line 2 of {path}: "
                   "Expecting property name enclosed in double quotes (column 2)\n")


@pytest.mark.parametrize("checks, failures", [
    ([1], ["checks[0]"]),
    ([{"kind": "flag", "ok": True, "label": "fine"}, None, "eq"], ["checks[1]", "checks[2]"]),
    (5, ["checks"]),
    ({"kind": "flag", "ok": True}, ["checks"]),
], ids=["one_int", "null_and_string", "int", "object"])
def test_recheck_fails_checks_that_are_not_a_list_of_objects(tmp_path, capsys, checks, failures):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"suite": "x", "status": "pass", "checks": checks}) + "\n")
    code, out, err = run_cli(capsys, "verify", "--recheck", str(path))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"suite": "x", "recheck": "fail", "failures": failures}


def test_recheck_of_a_missing_file_exits_two(tmp_path, capsys):
    path = tmp_path / "missing.jsonl"
    code, out, err = run_cli(capsys, "verify", "--recheck", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot open {path}: ") and err.count("\n") == 1, err


def test_pencil_classify_stream(capsys):
    code, out, _ = run_cli(capsys, "pencil", "classify", "--t", "0", "--t", "1",
                           "--t", "3", "--t", "4")
    assert code == 0
    recs = [json.loads(l) for l in out.strip().splitlines()]
    by_t = {r["t"]: r["class"] for r in recs}
    assert by_t == {
        "0": "SmoothHyperelliptic",
        "1": "SmoothGenus3",
        "3": "ReducibleLinePlusGenus2",
        "4": "ReducibleLinePlusGenus2",
    }
    reducible = [r for r in recs if r["class"] == "ReducibleLinePlusGenus2"]
    assert all("genus2_component" in r["witness"] for r in reducible)


def test_fibers_inventories(capsys):
    code, out, _ = run_cli(capsys, "fibers", "--family", "shioda", "--family", "dual_kummer")
    assert code == 0
    recs = {json.loads(l)["family"]: json.loads(l) for l in out.strip().splitlines()}
    assert recs["shioda"]["inventory"] == {"I0*": 2, "I2": 6}
    assert recs["dual_kummer"]["inventory"] == {"I1": 8, "I4": 4}
    assert recs["shioda"]["total_ord_delta"] == 24


def test_invariants_command(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--curve",
                           '["0","144","-308","238","-77","10.5"]' .replace("10.5", "21/2"))
    assert code == 0
    rec = json.loads(out.strip())
    assert set(rec["igusa_clebsch"]) == {"I2", "I4", "I6", "I10"}


def test_invariants_rejects_non_squarefree(capsys):
    code, _, err = run_cli(capsys, "invariants", "--curve", '["0","0","1","0","0","1"]')
    assert code == 2
    assert "squarefree" in err


@pytest.mark.parametrize("curve", [
    '[3,-5,3,-2,1,-1,1]',                 # (x - 1)^2 (x^4 + x^3 + 2x^2 + x + 3)
    '["1/4","-1","1","0","-3/8","3/2","-3/2"]',  # (x - 1/2)^2 (1 - 3/2 x^4)
])
def test_invariants_rejects_non_squarefree_sextic(capsys, curve):
    code, out, err = run_cli(capsys, "invariants", "--curve", curve)
    assert (code, out, err) == (2, "", "error: curve polynomial is not squarefree\n")


@pytest.mark.parametrize("curve", ["5", "null", '"123456"'])
def test_invariants_rejects_a_curve_that_is_not_an_array(capsys, curve):
    # a JSON string would otherwise be read digit by digit as a polynomial
    code, out, err = run_cli(capsys, "invariants", "--curve", curve)
    assert (code, out, err) == (2, "", "error: --curve expects a JSON array of rationals\n")


def test_suite_subset_in_canonical_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identification", "--suite", "richelot")
    assert code == 0
    suites = [json.loads(l)["suite"] for l in out.strip().splitlines()]
    assert suites == ["richelot", "identification"]


def test_no_suite_draws_random_numbers(monkeypatch):
    import random

    from prymkit import verify

    def refuse(*args, **kwargs):
        raise AssertionError("a suite drew a random number")

    assert not hasattr(verify, "random")
    for name in ("__init__", "seed", "random", "getrandbits"):
        monkeypatch.setattr(random.Random, name, refuse)
    cfg = verify.RunConfig((Fraction(9), Fraction(2), Fraction(8)), Fraction(3), Fraction(4))
    assert [c.status for c in verify.run_suites(cfg)] == ["pass"] * 6


def test_closed_stdout_exits_one_without_traceback():
    # the reader is gone before the first write, as with `prymkit fibers | head -c 0`
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "prymkit.cli", "fibers"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
