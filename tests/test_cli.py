"""Command-line interface: exit codes, JSON contracts, determinism."""

import collections
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weylpair import cli, curve, numeric, pairs, qsolver, reference
from weylpair.cli import INTERNAL_ERRORS, main
from weylpair.curve import SpectralCurve
from weylpair.curvefun import (expand_at_infinity, expansion_report,
                               reduction_coefficients, reduction_residuals)
from weylpair.numeric import (roots_z, verify_krichever,
                              verify_potential_recovery)
from weylpair.pairs import quartic_from_potentials
from weylpair.poly import Poly, Rat
from weylpair.qsolver import XDependenceError, curve_identity_residual

from conftest import curve_from_json, deriv, op_from_json, poly_from_json


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_genus2_contains_curve(capsys):
    code, out, err = run_cli(
        ["construct", "--genus", "2", "--alpha", "a0=sym,a1=0,a2=0,a3=1"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"genus", "Q", "deltas", "F", "L4", "M"}
    z = Poly.var("z")
    a0 = Poly.var("a0")
    f = curve_from_json(doc["F"]).as_poly()
    assert f == z**5 + 27 * a0 * z**2 + 81
    q = poly_from_json(doc["Q"])
    assert q == z**2 + 3 * Poly.var("x") * z + 9 * Poly.var("x") ** 2
    m = op_from_json(doc["M"])
    assert m.order() == 10


def test_construct_genus1_numeric(capsys):
    code, out, _ = run_cli(
        ["construct", "--genus", "1", "--alpha", "a0=1,a1=0,a2=0,a3=1"],
        capsys)
    assert code == 0
    z = Poly.var("z")
    f = curve_from_json(json.loads(out)["F"]).as_poly()
    assert f == z**3 - 1


def test_construct_rejects_genus_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--genus", "0", "--alpha", "a3=1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["bogus"], []])
def test_unknown_or_missing_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "invalid choice" in out.err or "required" in out.err


def test_param_error_exit_code(capsys):
    code, _, err = run_cli(
        ["construct", "--genus", "1", "--alpha", "a3=0"], capsys)
    assert code == 2
    assert "a3" in err


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_internal_error_exit_code(command, monkeypatch, capsys):
    def build_pair(g, params):
        raise XDependenceError("probe")

    monkeypatch.setattr(pairs, "build_pair", build_pair)
    code, out, err = run_cli([command, "--genus", "1"], capsys)
    assert code == 3
    assert out == ""
    assert err == "internal consistency error: XDependenceError: probe\n"


def test_bad_alpha_string(capsys):
    code, _, _ = run_cli(
        ["construct", "--genus", "1", "--alpha", "bogus=1"], capsys)
    assert code == 2
    code, _, _ = run_cli(
        ["construct", "--genus", "1", "--alpha", "a0=one"], capsys)
    assert code == 2


def test_verify_symbolic_slice_passes(capsys):
    code, out, _ = run_cli(
        ["verify", "--genus", "2", "--alpha", "a0=sym,a1=0,a2=0,a3=1"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "q_ode" in names and "square_identity" in names
    skipped = [c for c in doc["checks"] if c["pass"] is None]
    assert {c["name"] for c in skipped} == {
        "curve_nonsingular", "root_distinctness", "potential_recovery",
        "krichever_relation"}
    for c in skipped:
        assert "skipped" in c["detail"]


def test_verify_numeric_runs_all(capsys):
    code, out, _ = run_cli(
        ["verify", "--genus", "2", "--alpha", "a0=1,a1=0,a2=0,a3=1",
         "--samples", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert all(c["pass"] is True for c in doc["checks"])


def test_verify_genus3_slice(capsys):
    code, out, _ = run_cli(
        ["verify", "--genus", "3", "--alpha", "a0=sym,a1=0,a2=0,a3=1"],
        capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_inject_fault_q_flags_ode(capsys):
    code, out, _ = run_cli(
        ["verify", "--genus", "2", "--alpha", "a0=1,a1=0,a2=0,a3=1",
         "--samples", "1", "--inject-fault", "q"], capsys)
    assert code == 1
    doc = json.loads(out)
    flags = {c["name"]: c["pass"] for c in doc["checks"]}
    assert flags["q_ode"] is False
    assert doc["pass"] is False


def test_inject_fault_curve(capsys):
    code, out, _ = run_cli(
        ["verify", "--genus", "1", "--alpha", "a0=1,a1=0,a2=0,a3=1",
         "--samples", "1", "--inject-fault", "curve"], capsys)
    assert code == 1
    flags = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert flags["curve_identity"] is False
    assert flags["square_identity"] is False
    assert flags["q_ode"] is True


def test_inject_fault_companion(capsys):
    code, out, _ = run_cli(
        ["verify", "--genus", "1", "--alpha", "a0=1,a1=0,a2=0,a3=1",
         "--samples", "1", "--inject-fault", "companion"], capsys)
    assert code == 1
    flags = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert flags["commutation"] is False


def test_examples_reports_match_and_known_gap(capsys):
    code, out, err = run_cli(["examples"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["3"]["companion_match"] is True
    assert doc["2"]["companion_match"] is True
    assert doc["2"]["companion_diff"] == []
    assert doc["2"]["commutation_zero"] and doc["2"]["square_identity_zero"]
    assert "genus 2: MATCH" in err and "genus 3: MATCH" in err
    assert "DIFFERS" not in err


MATCHING_REPORT = {"curve_match": True, "curve_diff": "0",
                   "companion_match": True, "companion_diff": [],
                   "commutation_zero": True, "square_identity_zero": True}


@pytest.mark.parametrize("field", ["companion_match", "curve_match",
                                   "commutation_zero",
                                   "square_identity_zero"])
def test_examples_fails_closed(field, monkeypatch, capsys):
    rep = MATCHING_REPORT
    bad = dict(rep, **{field: False})
    if field == "companion_match":
        bad["companion_diff"] = [(0, "-9")]
    monkeypatch.setattr(reference, "match_reference_examples",
                        lambda: {2: bad, 3: rep})
    code, out, _ = run_cli(["examples"], capsys)
    assert code == 1
    assert json.loads(out)["2"][field] is False


def test_examples_prints_curve_diff(monkeypatch, capsys):
    bad = dict(MATCHING_REPORT, curve_match=False, curve_diff="27*a0*z^2")
    monkeypatch.setattr(reference, "match_reference_examples",
                        lambda: {2: bad, 3: MATCHING_REPORT})
    code, _, err = run_cli(["examples"], capsys)
    assert code == 1
    assert "genus 2: DIFFERS" in err and "genus 3: MATCH" in err
    assert "  constructed - recorded curve: 27*a0*z^2" in err
    assert err.count("recorded curve") == 1


def test_output_determinism(tmp_path, capsys):
    args = ["construct", "--genus", "2", "--alpha", "a0=sym,a1=0,a2=0,a3=1"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_examples_determinism(capsys):
    code1, out1, _ = run_cli(["examples"], capsys)
    code2, out2, _ = run_cli(["examples"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_examples_stdout_pinned():
    # the whole document of a fresh `python -m weylpair.cli examples`
    # launch, both genera matching, byte for byte
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "weylpair.cli", "examples"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout) == 335
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "95334853c05528aa5d307768e30b7a7308f8b332be610b7492537b7b10b1a07c")


def test_verify_report_is_json_and_summary_on_stderr(capsys):
    code, out, err = run_cli(
        ["verify", "--genus", "1", "--alpha", "a0=sym,a1=0,a2=0,a3=1"],
        capsys)
    assert code == 0
    json.loads(out)  # stdout is pure JSON
    assert "checks run" in err  # human summary on stderr


# at x0 = 1/2, Q = z - 6 and 6 is a root of F = z^3 - 10z^2 + 23z + 6, so
# the pole sits on a branch point and both root-level checks raise
DEGENERATE_X0 = "a0=1/1,a1=1/1,a2=-5/1,a3=-2/1"


def test_bench_replay_matches_cli(capsys, monkeypatch):
    # bench/replay.py calls the library the way `weylpair verify` does;
    # the names, flags and signatures it uses must keep giving the CLI's
    # verdicts, check by check and in the same order, also where a
    # root-level check raises
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    replay = importlib.import_module("replay")
    for g, alpha, exit_code in ((2, "a0=1/1,a1=0/1,a2=0/1,a3=1/1", 0),
                                (1, DEGENERATE_X0, 1)):
        verdicts, _, _ = replay.verify(replay.NullTracer(), g, alpha)
        code, out, _ = run_cli(["verify", "--genus", str(g),
                                "--alpha", alpha], capsys)
        assert code == exit_code
        checks = json.loads(out)["checks"]
        assert list(verdicts.items()) == [(c["name"], c["pass"])
                                          for c in checks]


def test_bench_oracle_meets_judge(monkeypatch):
    # bench/oracle_case.py runs replay.oracle on each oracle-commutant
    # case, and the judge wants a basis of g + 1 operators, M in the
    # affine span and every basis element in span{1, L, ..., L^g}
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    replay = importlib.import_module("replay")
    workloads = importlib.import_module("workloads")
    for case in workloads.cases("oracle-commutant", 1107):
        doc, _ = replay.oracle(replay.NullTracer(), case.genus, case.alpha)
        assert doc["basis_size"] == case.genus + 1
        assert doc["in_affine_span"] is True
        assert doc["is_power_span"] is True


def test_verify_reports_exception_under_failed_checks(capsys):
    code, out, err = run_cli(
        ["verify", "--genus", "1", "--alpha", DEGENERATE_X0], capsys)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    failed = [name for name, c in checks.items() if c["pass"] is False]
    assert failed == ["potential_recovery", "krichever_relation"]
    message = ("DegenerateDerivativeError: a root of Q(x0=1/2, z) is a "
               "branch point of the curve; resample x0")
    for name in failed:
        assert checks[name]["detail"] == message
        assert f"FAILED {name}: {message}" in err
    assert checks["root_distinctness"]["pass"] is True
    assert checks["root_distinctness"]["detail"] == "disc_z Q(x0, z) != 0"


def test_verify_computes_bracket_once(capsys, monkeypatch):
    # the commutation and square-identity checks share one [L, M]
    calls = []
    commutator = pairs.commutator
    monkeypatch.setattr(pairs, "commutator",
                        lambda a, b: calls.append(1) or commutator(a, b))
    code, _, _ = run_cli(["verify", "--genus", "2", "--alpha",
                          "a0=1,a1=0,a2=0,a3=1", "--samples", "1"], capsys)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_verify_rejects_samples_below_one(samples, capsys):
    # with no sample point no root-level check would run, yet all three
    # would read PASS
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--genus", "1", "--alpha", "a0=1,a1=0,a2=0,a3=1",
              "--samples", samples])
    assert exc.value.code == 2
    assert "argument --samples: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["9", "5", "0", "-3"])
def test_verify_rejects_series_order_below_2g_plus_6(order, capsys):
    code, out, err = run_cli(["verify", "--genus", "2", "--alpha",
                              "a0=1,a1=0,a2=0,a3=1", "--series-order", order],
                             capsys)
    assert code == 2
    assert out == ""
    assert err == ("parameter error: --series-order must be at least "
                   f"2g+6 = 10 at genus 2, got {order}\n")


def test_verify_accepts_series_order_2g_plus_6(capsys):
    code, out, _ = run_cli(["verify", "--genus", "2", "--alpha",
                            "a0=1,a1=0,a2=0,a3=1", "--series-order", "10",
                            "--samples", "1"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_double_root_fails_root_distinctness():
    # at g = 2, Q = z^2 + 3xz + 9x^2 and Q - 27/16 = (z + 3/4)^2 at x = 1/2,
    # with simple roots at x = 3/2 and 5/2
    pair = pairs.build_pair(2, {"a0": 1, "a1": 0, "a2": 0, "a3": 1})
    bad_q = pair.q._replace(q=pair.q.q - Rat(27, 16))
    checks = {c["name"]: c
              for c in pairs.verify_pair(pair._replace(q=bad_q))}
    assert checks["root_distinctness"] == {
        "name": "root_distinctness", "pass": False,
        "detail": "MultipleRootError: Q(x0=1/2, z) has a multiple root"}


def test_skipped_sample_points_fail_root_level_checks():
    # Q = (z + 3x/2)^2 has a double root at every x0, so neither
    # root-level check runs anywhere; neither may read PASS
    pair = pairs.build_pair(2, {"a0": 1, "a1": 0, "a2": 0, "a3": 1})
    z, x = Poly.var("z"), Poly.var("x")
    bad_q = pair.q._replace(q=(z + Rat(3, 2) * x) ** 2)
    checks = {c["name"]: c
              for c in pairs.verify_pair(pair._replace(q=bad_q))}
    errors = [f"MultipleRootError: Q(x0={x0}, z) has a multiple root"
              for x0 in ("1/2", "3/2", "5/2")]
    assert checks["root_distinctness"]["pass"] is False
    assert checks["root_distinctness"]["detail"] == "; ".join(errors)
    skipped = "; ".join(f"not run at x0={x0}: {e}"
                        for x0, e in zip(("1/2", "3/2", "5/2"), errors))
    for name in ("potential_recovery", "krichever_relation"):
        assert checks[name] == {"name": name, "pass": False,
                                "detail": skipped}


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["construct", "--genus", "1", "--out",
                              str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == (f"parameter error: cannot write --out {path}: "
                   "No such file or directory\n")


@pytest.mark.parametrize("alpha", ["a0=1,a1=1,a2=1,a3=1,a0=2",
                                   "a0=sym,a3=1,a0=1", "a3=1,a3=1"])
def test_repeated_alpha_name_is_rejected(alpha, capsys):
    code, out, err = run_cli(["construct", "--genus", "1", "--alpha",
                              alpha], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error: parameter ")
    assert err.endswith(" bound twice\n")


def test_construct_stdout_matches_benchmark_refs(capsys, monkeypatch):
    # the emitted JSON is a contract: the self-check case and every
    # construct-highg case of seed 1107 (g = 6, 8, 10 and both g = 12, where
    # the operator products are largest) must hash to their recorded sha256
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    run = importlib.import_module("run")
    refs = json.loads((bench / "construct_refs.json").read_text())["cases"]
    todo = [workloads.Case("construct", 1, run.SELF_CHECK_ALPHA)]
    todo += workloads.cases("construct-highg", 1107)
    assert [c.genus for c in todo] == [1, 6, 8, 10, 12, 12]
    for case in todo:
        code, out, _ = run_cli(["construct", "--genus", str(case.genus),
                                "--alpha", case.alpha], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == refs[case.id]


@pytest.mark.parametrize("target,reason",
                         [("missing/x.json", "No such file or directory"),
                          ("", "Is a directory")])
@pytest.mark.parametrize("command", ["construct", "verify"])
def test_unwritable_out_fails_before_any_work(command, target, reason,
                                              tmp_path, monkeypatch, capsys):
    def build_pair(*args, **kwargs):
        raise AssertionError("build_pair called")

    monkeypatch.setattr(pairs, "build_pair", build_pair)
    path = tmp_path / target
    code, out, err = run_cli([command, "--genus", "1", "--out", str(path)],
                             capsys)
    assert code == 2
    assert out == ""
    assert err == f"parameter error: cannot write --out {path}: {reason}\n"


def test_term_budget_variable_is_ignored(monkeypatch, capsys):
    argv = ["verify", "--genus", "2", "--alpha", "a0=1,a1=0,a2=0,a3=1"]
    monkeypatch.delenv("WEYL_COMMUTE_MAX_TERMS", raising=False)
    code, unset, _ = run_cli(argv, capsys)
    assert code == 0
    monkeypatch.setenv("WEYL_COMMUTE_MAX_TERMS", "1")
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == unset


T3 = ["--genus", "3", "--alpha", "a0=2,a1=3/4,a2=3,a3=1"]
VERIFY_REFS = [
    (["--genus", "2", "--alpha", "a0=1,a1=0,a2=0,a3=1"], 0,
     "7f9b62983af95126b182635da51ac9f1e330dfd00e4c45def01391b9fe26b47d"),
    (["--genus", "4", "--alpha", "a0=2,a1=3/4,a2=3,a3=1"], 0,
     "4a69f8e2e8bb03783ad764906983a3eb6a0443bf9d71ee0fe4e4a1dd769261e0"),
    (["--genus", "1", "--alpha", "a0=sym,a1=sym,a2=sym,a3=sym"], 0,
     "78bffb08a170789bad0c42c2242efc43f3b17781c6d2cba58c0c509bc4c03748"),
    (["--genus", "2", "--alpha", "a0=sym,a1=sym,a2=sym,a3=sym"], 0,
     "2ee9427009611b99615f6fcd3fde845ac1bfad23dd8088d5108504d44e3e47aa"),
    (["--genus", "3", "--alpha", "a0=sym,a1=0,a2=0,a3=1"], 0,
     "717c7e2a1f8537c3352dcbda3df5541595dcf79c16671d7fb7a517083a245fbf"),
    (["--genus", "1", "--alpha", "a0=1,a1=1,a2=-5,a3=-2"], 1,
     "04985a6c3d2c8a88e7675bc404bdd62b2dd23fd9e844ab36a3722c26ad4982f1"),
    (T3 + ["--series-order", "40"], 0,
     "366de44e1a8f25b868b3e1cf2b924857c5bfa4d01e35ffb821a0e0ee4851e700"),
    (T3 + ["--inject-fault", "q"], 1,
     "e4ce46042da8f8aa313243e555d89024b6b360ad320058f9c4a2e259d891b906"),
    (T3 + ["--inject-fault", "curve"], 1,
     "48015b183179ee5230ec05a0ff7de2fcbbb8489d16e6348df264317a29200ce8"),
    (T3 + ["--inject-fault", "companion"], 1,
     "e538a4356a5e96eaa6acb4e928e34fd38b7d6dd8fc9537bccaab76c215923fd4"),
    # seed 10105: Qx vanishes at a root of Q(1/2, z), raised by the
    # potential-recovery check itself
    (["--genus", "2", "--alpha", "a0=-5/1,a1=1/1,a2=-9/4,a3=5/3"], 1,
     "dc10514a29fd92601987a59a1c7ab539226bbbddeb44919b77861a47c5eac138"),
    # F = z^3: a zero disc_z F, so curve_nonsingular fails
    (["--genus", "1", "--alpha", "a0=0,a1=0,a2=0,a3=1"], 1,
     "da023210a85e092c9c1d031c1e081068424f509fc55eb0195df6e3e6535eac31"),
    # the root-level checks on a degree-17 F and a degree-8 Q(x0, z)
    (["--genus", "8", "--alpha", "a0=2,a1=3/4,a2=3,a3=1"], 0,
     "425472834f44a47c610e53895e7122f95f54966b2de0a9bb3a01d99514b7d780"),
    # the high-genus path: a degree-41 F and a degree-20 Q(x0, z)
    (["--genus", "20", "--alpha", "a0=2,a1=3/4,a2=3,a3=1"], 0,
     "43feae2b9b7fdffb56f22a763d74ea5fd41e9472161e1988a02341a32c12bcdf"),
]


def test_verify_stdout_matches_parent(capsys):
    # the verify report is a contract too: numeric, symbolic-slice and
    # fully symbolic runs, the seed-503 degenerate sample point, a long
    # series order and each injected fault keep their recorded stdout
    for argv, expected_code, sha in VERIFY_REFS:
        code, out, _ = run_cli(["verify", *argv], capsys)
        assert code == expected_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == sha, argv


# fully symbolic verify at genus 3, recorded before _op_mul_terms and
# x0_of_product shared one term loop: the heaviest CLI run of that loop
SYMBOLIC_G3_REF = (
    ["--genus", "3", "--alpha", "a0=sym,a1=sym,a2=sym,a3=sym"], 0,
    "4a9a30f3719a955defb1bd06911e80269aa4c8ea160c295d17af833c3182d4b6")


def test_verify_fully_symbolic_genus3_stdout(capsys):
    argv, expected_code, sha = SYMBOLIC_G3_REF
    code, out, _ = run_cli(["verify", *argv], capsys)
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == sha


EMIT_EDGE_CASES = [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}, ()]}, "", "plain",
    'quote " backslash \\ slash / nul \x00 unit \x1f del \x7f',
    "tab\t newline\n return\r é é snowman ☃ \U0001f600",
    0, -1, 7, 2**2000, -(2**2000) + 1, True, False, None,
    {"z": 1, "a": [True, False, None], "m": {"y": "", "b": -3}},
    [(0, "-9"), (3, 'x"y')],
]


def json_form(obj):
    """obj with every Poly replaced by its to_json(), the data model that
    _dumps writes a Poly leaf as."""
    if isinstance(obj, Poly):
        return obj.to_json()
    if isinstance(obj, dict):
        return {k: json_form(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_form(v) for v in obj]
    return obj


def edge_polys() -> list:
    x, z = Poly.var("x"), Poly.var("z")
    a = [Poly.var(f"a{i}") for i in range(4)]
    big = 2**2000 + 3
    return [
        Poly.zero(), Poly.one(), Poly.rat(Rat(-3, 7)), -x, x**5,
        # every variable, mixed signs and denominators
        Rat(5, 6) * x**2 * z * a[0]**3 - Rat(7, 4) * a[1] * a[2] + a[3]
        + Rat(-1, 12) * z**4 + 2,
        # over den 6 with numerators 2, 3, -4: no term in lowest terms
        Poly.from_nums({0: 2, 1 << 80: 3, 2 << 64: -4}, 6),
        # 2000-bit numerators of both signs, alone and over a denominator
        Poly.from_nums({0: -big, 3 << 80: big + 2}, 1),
        Poly.from_nums({1 << 80: -(2**2000) + 1, 1 << 64: big}, 15),
    ]


def test_emit_matches_json_dumps(monkeypatch, capsys):
    # _dumps is the CLI's only writer; it must give json.dumps's bytes on
    # every document the CLI emits, tuples among them, quoting strings
    # with the function json.dumps uses.  construct hands it Polys, each
    # written as the bytes of its to_json()
    assert cli.encode_basestring_ascii is json.encoder.encode_basestring_ascii
    docs = []
    monkeypatch.setattr(cli, "_emit", lambda doc, out_path: docs.append(doc))
    reference_companion = reference.reference_companion
    monkeypatch.setattr(reference, "reference_companion",
                        lambda g: reference_companion(g) + deriv(2))
    constructs = [(1, "a0=sym,a1=sym"), (6, "a0=2,a1=3/4,a2=3,a3=1"),
                  (12, "a0=3/4,a1=3/4,a2=-5/3,a3=-1/4")]
    runs = [*(["construct", "--genus", str(g), "--alpha", alpha]
              for g, alpha in constructs),
            ["verify", *T3],
            *(["verify", *T3, "--inject-fault", fault]
              for fault in ("q", "curve", "companion")),
            ["examples"]]
    for argv in runs:
        main(argv)
    capsys.readouterr()
    assert len(docs) == len(runs)
    assert [doc["pass"] for doc in docs[3:7]] == [True, False, False, False]
    assert docs[-1]["2"]["companion_diff"] == [(2, "-1")]
    # the construct documents hold the to_json() form of the pair
    for (g, alpha), doc in zip(constructs, docs):
        pair = pairs.build_pair(g, cli._parse_alpha(alpha))
        assert json_form(doc) == {
            "genus": g, "Q": pair.q.q.to_json(),
            "deltas": [d.to_json() for d in pair.q.deltas],
            "F": pair.curve.to_json(), "L4": pair.l4.to_json(),
            "M": pair.m.to_json()}
    polys = edge_polys()
    nested = [*polys, polys, {"p": polys[5], "q": [[polys[7]], (polys[6],)]}]
    for doc in docs + EMIT_EDGE_CASES + nested:
        assert cli._dumps(doc) == json.dumps(json_form(doc), indent=1,
                                             sort_keys=True)
    for bad in (1.5, [0.0], {"a": 2.5}, {1: "a"}, {"a": {2: "b"}}):
        with pytest.raises(TypeError):
            cli._dumps(bad)


SERIES_KEYS = ("leading_term", "potential_v", "potential_w",
               "self_adjoint_b1", "odd_coeffs_vanish")


def oracle_curve_entries(qp, curve, l4) -> dict:
    """The reduction and expansion entries computed by curvefun itself;
    None for the series entries where 1/Q has no expansion at infinity."""
    u0, u1 = reduction_coefficients(qp, curve)
    r0, r1 = reduction_residuals(u0, u1, l4)
    out = {"reduction_psi": r0.is_zero(), "reduction_dpsi": r1.is_zero()}
    order = 2 * qp.g + 8
    try:
        report = expansion_report(expand_at_infinity(u0, order),
                                  expand_at_infinity(u1, order), qp, curve)
    except ValueError:
        report = dict.fromkeys(SERIES_KEYS)
    out.update((f"series_{key}", report[key]) for key in SERIES_KEYS)
    return out


def corrupted_pairs(pair):
    """The pair, five corruptions of Q and F, an L built with V + 1, and
    two Q that are not monic of z-degree g, by name."""
    g, qp, curve = pair.g, pair.q, pair.curve
    x, z = Poly.var("x"), Poly.var("z")

    def bump(i):
        coeffs = list(curve.coeffs)
        coeffs[i] = coeffs[i] + 1
        return pair._replace(curve=SpectralCurve(g=g, coeffs=tuple(coeffs)))

    def with_q(q):
        return pair._replace(q=qp._replace(q=q))

    return {"pair": pair, "Q+x": with_q(qp.q + x),
            "Q+xz": with_q(qp.q + x * z),
            "Q+z^(g-1)": with_q(qp.q + z ** (g - 1)),
            "F+z^2g": bump(2 * g), "c0+1": bump(0),
            "L(V+1)": pair._replace(
                l4=quartic_from_potentials(qp.v + 1, qp.w)),
            "Q+xz^g": with_q(qp.q + x * z ** g),
            "Q+z^(g+1)": with_q(qp.q + z ** (g + 1))}


@pytest.mark.parametrize("g,alpha", [
    (1, "a0=2,a1=3/4,a2=3,a3=1"), (2, "a0=2,a1=3/4,a2=3,a3=1"),
    (3, "a0=2,a1=3/4,a2=3,a3=1"), (4, "a0=2,a1=3/4,a2=3,a3=1"),
    (1, ""), (2, "")], ids=["numeric-g1", "numeric-g2", "numeric-g3",
                            "numeric-g4", "symbolic-g1", "symbolic-g2"])
def test_curve_entries_match_curvefun_oracle(g, alpha):
    # verify reads the reduction and expansion entries off the curve and
    # trace certificates; the reduction and the expansions at infinity
    # themselves must give the same verdicts
    params = cli._parse_alpha(alpha)
    for name, pair in corrupted_pairs(pairs.build_pair(g, params)).items():
        derived = {c["name"]: c["pass"]
                   for c in pairs.verify_pair(pair, samples=1)}
        oracle = oracle_curve_entries(pair.q, pair.curve, pair.l4)
        q = pair.q.q
        shaped = q.degree("z") == g and q.coeff_in("z", g) == 1
        # the oracle expands 1/Q wherever Q is monic in z
        assert (oracle["series_leading_term"] is None) is (
            q.coeff_in("z", q.degree("z")) != 1), name
        for key, verdict in oracle.items():
            if shaped or key.startswith("reduction_"):
                assert derived[key] is verdict, (name, key)
            else:
                # not monic of z-degree g: the series entries fail closed
                assert derived[key] is False, (name, key)
        if name == "pair":
            assert all(oracle.values())
        if name == "L(V+1)":
            assert not derived["reduction_psi"]
            assert not derived["reduction_dpsi"]


def oracle_root_checks(qp, curve, samples: int) -> dict:
    """(pass, detail) of the root-level checks as roots_z, then
    verify_potential_recovery and verify_krichever at each sample point
    give them, each checking on its own."""
    recovery_ok = krichever_ok = True
    root_errors, check_errors = [], []
    for x0 in (Rat(2 * i + 1, 2) for i in range(samples)):
        try:
            roots_z(qp, None, x0)
        except INTERNAL_ERRORS as exc:
            root_errors.append(f"{type(exc).__name__}: {exc}")
            check_errors.append(f"not run at x0={x0}: {root_errors[-1]}")
            continue
        try:
            recovery = verify_potential_recovery(qp, None, x0)["pass"]
            recovery_ok = recovery_ok and recovery
            krichever = verify_krichever(qp, curve, None, x0)["pass"]
            krichever_ok = krichever_ok and krichever
        except INTERNAL_ERRORS as exc:
            recovery_ok = krichever_ok = False
            check_errors.append(f"{type(exc).__name__}: {exc}")
    return {
        "root_distinctness": (not root_errors, "; ".join(root_errors)
                              or "disc_z Q(x0, z) != 0"),
        "potential_recovery": (
            recovery_ok and not root_errors, "; ".join(check_errors)
            or "Q(x0, z) divides Qxx^2 - 2QxQxxx - 4F - 4VQx^2; "
               "res_z(Q, Qx) != 0"),
        "krichever_relation": (
            krichever_ok and not root_errors, "; ".join(check_errors)
            or "the same divisibility; res_z(Q, F) != 0")}


def engine_cases():
    """(name, pair): corrupted_pairs and Q + x^5, whose jet at x = 0 is
    Q's, at g = 1..4 on a generic tuple and on the degenerate seed-503 and
    seed-10105 tuples; Q = (z + 3x/2)^2, Q - 27/16 and Q = 0 at g = 2."""
    x, z = Poly.var("x"), Poly.var("z")
    for alpha in ("a0=2,a1=3/4,a2=3,a3=1", DEGENERATE_X0,
                  "a0=-5/1,a1=1/1,a2=-9/4,a3=5/3"):
        for g in (1, 2, 3, 4):
            pair = pairs.build_pair(g, cli._parse_alpha(alpha))
            cases = corrupted_pairs(pair)
            cases["Q+x^5"] = pair._replace(
                q=pair.q._replace(q=pair.q.q + x ** 5))
            yield from ((f"{alpha} g={g} {name}", p)
                        for name, p in cases.items())
    pair = pairs.build_pair(2, {"a0": 1, "a1": 0, "a2": 0, "a3": 1})
    for name, q in (("(z+3x/2)^2", (z + Rat(3, 2) * x) ** 2),
                    ("Q-27/16", pair.q.q - Rat(27, 16)),
                    ("Q=0", Poly.zero())):
        yield name, pair._replace(q=pair.q._replace(q=q))


def test_verify_pair_matches_the_oracles():
    # curve_identity is read as E = 0 and 4F = rhs(*) at x = 0, and the
    # root-level checks off one verify_krichever call per sample point;
    # the full-x residual and the checks run one by one must agree
    for name, pair in engine_cases():
        checks = {c["name"]: c for c in pairs.verify_pair(pair)}
        assert checks["curve_identity"]["pass"] is curve_identity_residual(
            pair.q, pair.curve).is_zero(), name
        for key, (ok, detail) in oracle_root_checks(
                pair.q, pair.curve, 3).items():
            assert checks[key] == {"name": key, "pass": ok,
                                   "detail": detail}, (name, key)


def test_verify_forms_each_certificate_once(capsys, monkeypatch):
    # E once in build and once in certify; neither the full-x rhs(*) nor
    # the per-sample recovery check; disc_z F, then disc_z Q, res_z(Q, Qx)
    # and res_z(Q, F) at each sample point
    calls = collections.Counter()
    for module, name in [(qsolver, "derived_ode_residual"),
                         (pairs, "derived_ode_residual"),
                         (qsolver, "curve_rhs"),
                         (numeric, "verify_potential_recovery"),
                         (numeric, "shares_root"), (curve, "shares_root")]:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    code, _, _ = run_cli(["verify", "--genus", "2", "--alpha",
                          "a0=1,a1=0,a2=0,a3=1", "--samples", "3"], capsys)
    assert code == 0
    assert calls == {"derived_ode_residual": 2, "shares_root": 1 + 3 * 3}
