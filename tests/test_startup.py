"""What a fresh `weylpair` process pays before any math: importing the
package loads none of its modules, importing the CLI loads neither
dataclasses and inspect nor the json package, and --help works, which
the benchmark's launch check relies on.  Each command loads an exact set
of weylpair modules: construct, symbolic verify and --help load cli,
curve, pairs, poly, qsolver and weyl; numeric verify adds numeric, and
examples adds reference.  No command loads curvefun or series."""

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


# the launch of the `weylpair` console script; `python -m weylpair.cli`
# runs the same code, with cli named __main__
SCRIPT = "import sys; from weylpair.cli import main; sys.exit(main())"
# what every command compiles: the pair, its certificates and the CLI
CORE = {"cli", "curve", "pairs", "poly", "qsolver", "weyl"}
NUMERIC = ["--alpha", "a0=1,a1=0,a2=0,a3=1"]


def loaded_modules(*argv) -> set:
    """The weylpair.* modules a `weylpair` launch imports, without the
    prefix, read from -X importtime, which names every module a process
    imports."""
    proc = python("-X", "importtime", "-c", SCRIPT, *argv)
    assert proc.returncode == 0, proc.stderr
    names = {line.rsplit("|", 1)[-1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return {m.removeprefix("weylpair.") for m in names
            if m.startswith("weylpair.")}


# curvefun and series are the tier-1 oracle of verify's reduction and
# expansion entries, and bench/replay.py's; no command imports them.
# numeric is numeric verify's root-level layer, reference the recorded
# forms that only examples reports
@pytest.mark.parametrize("argv, extra", [
    (["construct", "--genus", "2", *NUMERIC], set()),
    (["examples"], {"reference"}),
    (["--help"], set())], ids=["construct", "examples", "help"])
def test_only_verify_loads_its_layers(argv, extra):
    assert loaded_modules(*argv) == CORE | extra


def test_verify_loads_its_layers():
    assert (loaded_modules("verify", "--genus", "2", *NUMERIC)
            == CORE | {"numeric"})
    # symbolic parameters skip the root-level checks of numeric
    assert loaded_modules("verify", "--genus", "2") == CORE
