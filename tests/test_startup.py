"""What a fresh `weylpair` process pays before any math: importing the
package loads none of its modules, importing the CLI loads neither
dataclasses and inspect nor the json package, only numeric verify loads
its one own layer (numeric), no command loads curvefun or series, and
--help works, which the benchmark's launch check relies on."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_skips_dataclasses_inspect_and_json():
    proc = python("-c", "import sys, weylpair.cli; "
                        "print(sorted({'dataclasses', 'inspect', 'json'} "
                        "& set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_import_loads_no_submodule():
    # weylpair/__init__.py is no facade: each module is imported by name
    proc = python("-c", "import sys, weylpair; "
                        "print(sorted(m for m in sys.modules "
                        "if m.startswith('weylpair.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [["--help"], ["construct", "--help"]])
def test_help_exits_zero(argv):
    proc = python("-m", "weylpair.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage")


# curvefun and series are the tier-1 oracle of verify's reduction and
# expansion entries, and bench/replay.py's; no command imports them
VERIFY_LAYERS = {"weylpair.curvefun", "weylpair.series", "weylpair.numeric"}


def loaded_verify_layers(*argv) -> set:
    """The modules of VERIFY_LAYERS a `weylpair` launch imports, read from
    -X importtime, which names every module a process imports."""
    proc = python("-X", "importtime", "-m", "weylpair.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")} & VERIFY_LAYERS


@pytest.mark.parametrize("argv", [
    ["construct", "--genus", "2", "--alpha", "a0=1,a1=0,a2=0,a3=1"],
    ["examples"], ["--help"]], ids=["construct", "examples", "help"])
def test_only_verify_loads_its_layers(argv):
    assert loaded_verify_layers(*argv) == set()


def test_verify_loads_its_layers():
    assert loaded_verify_layers(
        "verify", "--genus", "2",
        "--alpha", "a0=1,a1=0,a2=0,a3=1") == {"weylpair.numeric"}
    # symbolic parameters skip the root-level checks of numeric
    assert loaded_verify_layers("verify", "--genus", "2") == set()
