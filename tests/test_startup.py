"""What each entry point loads: a fresh interpreter per case, since the test
session itself has every prymkit module loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prymkit import verify
from prymkit.cli import main

SRC = Path(__file__).parents[1] / "src"
ALL_MODULES = {"prymkit"} | {f"prymkit.{p.stem}" for p in (SRC / "prymkit").glob("*.py")
                             if p.stem != "__init__"}
SUITE_STACK = {f"prymkit.{m}" for m in
               ("verify", "pencil3", "fibration", "hermite", "genus5", "factorq", "ratfunc")}

# run `prymkit ARGS` (or only the import, without ARGS), then print the loaded
# prymkit modules as the last line of stdout
PROBE = """
import json, sys
from prymkit.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
loaded = sorted(m for m in sys.modules if m == "prymkit" or m.startswith("prymkit."))
print(json.dumps(loaded))
sys.exit(code)
"""


def loaded_modules(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_all_modules_are_sixteen():
    assert len(ALL_MODULES) == 16 and SUITE_STACK <= ALL_MODULES


@pytest.mark.parametrize("argv", [(), ("invariants", "--curve", "[1,0,0,0,0,0,1]")],
                         ids=["import", "invariants"])
def test_light_entry_points_load_no_suite(argv):
    loaded = loaded_modules(*argv)
    assert "prymkit.cli" in loaded
    assert not loaded & SUITE_STACK, sorted(loaded & SUITE_STACK)


def test_invariants_loads_only_the_curve_stack():
    # genus2 imports quadforms only inside delta_abc (Richelot), so neither
    # quadforms nor the bpoly it builds on is compiled for a curve
    assert loaded_modules("invariants", "--curve", "[1,0,0,0,0,0,1]") == {
        "prymkit", *(f"prymkit.{m}" for m in
                     ("cli", "rat", "jsonio", "upoly", "genus2", "invariants"))}


def test_verify_loads_every_module():
    assert loaded_modules("verify", "--suite", "richelot") == ALL_MODULES


def test_unknown_suite_exits_two_before_any_suite(tmp_path, capsys, monkeypatch):
    def refuse(cfg):
        raise AssertionError("a suite ran")

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, refuse)
    path = tmp_path / "certs.jsonl"
    code = main(["verify", "--suite", "richelot", "--suite", "bogus", "--out", str(path)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", "error: unknown suite 'bogus'\n")
    assert list(tmp_path.iterdir()) == []
