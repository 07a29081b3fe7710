"""What a fresh `weylpair` process pays before any math: importing the
package loads none of its modules, importing the CLI loads neither
dataclasses and inspect nor the json package, and --help works, which
the benchmark's launch check relies on.  The CLI parses before it
compiles any mathematics: --help, a usage error, a parameter error and
an unwritable --out load only cli and errors, and neither fractions nor
decimal.  Each command then loads an exact set of weylpair modules:
construct and symbolic verify load cli, curve, errors, pairs, poly,
qsolver and weyl; numeric verify adds numeric, and examples adds
reference.  No command loads curvefun or series.  The package imports
only the standard library and itself."""

import ast
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


def test_src_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies: every import in the package
    # is relative or names a standard-library module
    for path in sorted((SRC / "weylpair").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    (path.name, name)


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
# the CLI front end: argparse, the parameter names and the error types
FRONT = {"cli", "errors"}
# what every command compiles: the pair, its certificates and the CLI
CORE = FRONT | {"curve", "pairs", "poly", "qsolver", "weyl"}
NUMERIC = ["--alpha", "a0=1,a1=0,a2=0,a3=1"]


def imported(*argv, code: int = 0) -> set:
    """Every module a `weylpair` launch imports, read from -X importtime,
    which names every module a process imports; the launch must exit with
    code."""
    proc = python("-X", "importtime", "-c", SCRIPT, *argv)
    assert proc.returncode == code, proc.stderr
    return {line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def weylpair_modules(names: set) -> set:
    """The weylpair.* modules among names, without the prefix."""
    return {m.removeprefix("weylpair.") for m in names
            if m.startswith("weylpair.")}


def loaded_modules(*argv) -> set:
    """The weylpair.* modules a `weylpair` launch imports."""
    return weylpair_modules(imported(*argv))


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    ([], 2),
    (["construct", "--genus", "1", "--alpha", "bogus=1"], 2),
    (["construct", "--genus", "1", "--out", "OUT"], 2)],
    ids=["help", "usage", "bad-alpha", "unwritable-out"])
def test_help_and_rejected_launches_load_no_mathematics(argv, code,
                                                        tmp_path):
    out = str(tmp_path / "missing" / "x.json")
    names = imported(*[out if a == "OUT" else a for a in argv], code=code)
    assert weylpair_modules(names) == FRONT
    assert not {"fractions", "decimal"} & names


@pytest.mark.parametrize("alpha", ["a3=0", "a3=0/7"])
def test_a3_zero_is_rejected_before_any_layer_loads(alpha):
    # the a3 != 0 rule lives in errors; fractions.Fraction reads the value
    argv = ["verify", "--genus", "1", "--alpha", alpha]
    assert weylpair_modules(imported(*argv, code=2)) == FRONT
    proc = python("-m", "weylpair.cli", *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "parameter error: a3 must be nonzero\n"


def test_cli_import_exposes_what_the_replay_imports():
    # bench/replay.py runs `from weylpair.cli import INTERNAL_ERRORS,
    # build_parser`; both resolve with no math module loaded
    proc = python("-c", "import sys, weylpair.cli as c; "
                        "c.build_parser(); "
                        "print([e.__name__ for e in c.INTERNAL_ERRORS], "
                        "sorted(m for m in sys.modules "
                        "if m.startswith('weylpair.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "['XDependenceError', 'DegreeError', 'MultipleRootError', "
        "'DegenerateDerivativeError'] ['weylpair.cli', 'weylpair.errors']\n")


def test_error_types_keep_their_homes():
    from weylpair import cli, curve, errors, numeric, qsolver
    for exc in cli.INTERNAL_ERRORS:
        assert exc is getattr(qsolver, exc.__name__)
        assert exc is getattr(numeric, exc.__name__)
        assert exc is getattr(errors, exc.__name__)
    assert curve.ParamError is errors.ParamError is cli.ParamError
    assert curve.PARAM_NAMES is errors.PARAM_NAMES is cli.PARAM_NAMES
    assert qsolver.ParamError is errors.ParamError


# curvefun and series are the tier-1 oracle of verify's reduction and
# expansion entries, and bench/replay.py's; no command imports them.
# numeric is numeric verify's root-level layer, reference the recorded
# forms that only examples reports
@pytest.mark.parametrize("argv, extra", [
    (["construct", "--genus", "2", *NUMERIC], set()),
    (["examples"], {"reference"})], ids=["construct", "examples"])
def test_only_verify_loads_its_layers(argv, extra):
    assert loaded_modules(*argv) == CORE | extra


def test_verify_loads_its_layers():
    assert (loaded_modules("verify", "--genus", "2", *NUMERIC)
            == CORE | {"numeric"})
    # symbolic parameters skip the root-level checks of numeric
    assert loaded_modules("verify", "--genus", "2") == CORE
