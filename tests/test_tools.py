"""The committed developer tools run from a checkout."""

import compileall
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_ab_inprocess_one_round():
    # both sides are this checkout's src/, loaded under two package names
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), src, src,
         "qsolver.build_q", "(1,)", "--rounds", "1"],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    header, row = run.stdout.splitlines()
    assert header.split() == ["args", "base_ms", "new_ms", "base_iqr_ms",
                              "ratio", "new_faster"]
    fields = row.split()
    assert fields[0] == "(1,)" and len(fields) == 6
    assert fields[3] == "0.000" and fields[5] in ("0/1", "1/1")


def test_ab_launch_one_round():
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_launch.py"), src, src,
         "--rounds", "1", "--", "construct", "--genus", "1",
         "--alpha", "a0=1,a1=0,a2=0,a3=1"],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    header, row = run.stdout.splitlines()
    assert header.split() == ["base_ms", "new_ms", "base_iqr_ms", "ratio",
                              "new_faster", "base_mb", "new_mb"]
    fields = row.split()
    assert len(fields) == 7 and fields[2] == "0.0"
    assert fields[4] in ("0/1", "1/1")
    assert all(float(f) > 0 for f in fields[5:])


@pytest.mark.parametrize("tool, args", [
    ("ab_inprocess.py", ["qsolver.build_q", "(1,)"]),
    ("ab_launch.py", ["--", "construct", "--genus", "1"])])
@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_ab_tools_reject_rounds_below_one(tool, args, rounds):
    # argparse's usage error, before anything is loaded or launched
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), src, src,
         "--rounds", rounds, *args],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == ""
    assert "usage:" in run.stderr and "--rounds" in run.stderr
    assert "Traceback" not in run.stderr


def test_ab_launch_refuses_error_exits():
    # construct --genus 0 is the CLI's usage error (exit 2): timing it would
    # time argparse, so the tool stops with exit 1 and names the code
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_launch.py"), src, src,
         "--rounds", "2", "--", "construct", "--genus", "0"],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 1 and run.stdout == ""
    assert "exited 2" in run.stderr and "Traceback" not in run.stderr


def test_ab_launch_times_failed_checks():
    # exit 1 is a failed check (the degenerate sample point of seed 503),
    # which both sides report alike: it is timed
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_launch.py"), src, src,
         "--rounds", "1", "--", "verify", "--genus", "1",
         "--alpha", "a0=1,a1=1,a2=-5,a3=-2"],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) == 2


@pytest.mark.parametrize("cached", [0, 1], ids=["base", "new"])
def test_ab_launch_refuses_bytecode_in_one_tree(tmp_path, cached):
    # one side would load cached bytecode while the other compiles on
    # every launch: refused before anything is launched, naming the tree
    trees = []
    for name in ("a", "b"):
        trees.append(str(tmp_path / name))
        shutil.copytree(ROOT / "src", trees[-1],
                        ignore=shutil.ignore_patterns("__pycache__"))
    assert compileall.compile_dir(Path(trees[cached]) / "weylpair",
                                  quiet=1)
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_launch.py"), *trees,
         "--rounds", "1", "--", "construct", "--genus", "1"],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == (f"{trees[cached]} alone holds weylpair/__pycache__;"
                          " remove it or cache both trees\n")


def _tree(root: Path, value: int) -> str:
    """A source tree whose weylpair.m.f() returns value."""
    pkg = root / "weylpair"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "m.py").write_text(f"def f():\n    return {value}\n")
    return str(root)


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
def test_ab_inprocess_refuses_unequal_results(tmp_path, optimize):
    # an explicit check, so python -O cannot turn it into a timed speedup
    run = subprocess.run(
        [sys.executable, *optimize, str(ROOT / "tools" / "ab_inprocess.py"),
         _tree(tmp_path / "a", 1), _tree(tmp_path / "b", 2), "m.f", "()",
         "--rounds", "1"],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert "results differ for ()" in run.stderr
    assert len(run.stdout.splitlines()) == 1  # the header, no timing row


@pytest.mark.parametrize("function", ["weylpair.qsolver.build_q",
                                      "build_q", "qsolver.no_such"])
def test_ab_inprocess_rejects_bad_function_name(function):
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), src, src,
         function, "(1,)", "--rounds", "1"],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == ""
    assert "usage:" in run.stderr and "Traceback" not in run.stderr
