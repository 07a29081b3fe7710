"""The committed developer tools run from a checkout."""

import subprocess
import sys
from pathlib import Path

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
