"""Command-line interface: exit codes, JSON contracts, determinism."""

import dataclasses
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from weylpair import cli, pairs
from weylpair.cli import main
from weylpair.curve import SpectralCurve
from weylpair.poly import Poly, Rat
from weylpair.weyl import DiffOp


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
    f = SpectralCurve.from_json(doc["F"]).as_poly()
    assert f == z**5 + 27 * a0 * z**2 + 81
    q = Poly.from_json(doc["Q"])
    assert q == z**2 + 3 * Poly.var("x") * z + 9 * Poly.var("x") ** 2
    m = DiffOp.from_json(doc["M"])
    assert m.order() == 10


def test_construct_genus1_numeric(capsys):
    code, out, _ = run_cli(
        ["construct", "--genus", "1", "--alpha", "a0=1,a1=0,a2=0,a3=1"],
        capsys)
    assert code == 0
    z = Poly.var("z")
    f = SpectralCurve.from_json(json.loads(out)["F"]).as_poly()
    assert f == z**3 - 1


def test_construct_rejects_genus_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--genus", "0", "--alpha", "a3=1"])
    assert exc.value.code == 2


def test_param_error_exit_code(capsys):
    code, _, err = run_cli(
        ["construct", "--genus", "1", "--alpha", "a3=0"], capsys)
    assert code == 2
    assert "a3" in err


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
    monkeypatch.setattr(cli, "match_reference_examples",
                        lambda: {2: bad, 3: rep})
    code, out, _ = run_cli(["examples"], capsys)
    assert code == 1
    assert json.loads(out)["2"][field] is False


def test_examples_prints_curve_diff(monkeypatch, capsys):
    bad = dict(MATCHING_REPORT, curve_match=False, curve_diff="27*a0*z^2")
    monkeypatch.setattr(cli, "match_reference_examples",
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


def test_double_root_fails_root_distinctness(monkeypatch):
    # at g = 2, Q = z^2 + 3xz + 9x^2 and Q - 27/16 = (z + 3/4)^2 at x = 1/2,
    # with simple roots at x = 3/2 and 5/2
    pair = pairs.build_pair(2, {"a0": 1, "a1": 0, "a2": 0, "a3": 1})
    bad_q = dataclasses.replace(pair.q, q=pair.q.q - Rat(27, 16))
    monkeypatch.setattr(cli, "build_pair",
                        lambda g, params: dataclasses.replace(pair, q=bad_q))
    args = cli.build_parser().parse_args(
        ["verify", "--genus", "2", "--alpha", "a0=1,a1=0,a2=0,a3=1"])
    checks = {c["name"]: c
              for c in cli._checks_for(args, cli._parse_alpha(args.alpha))}
    assert checks["root_distinctness"] == {
        "name": "root_distinctness", "pass": False,
        "detail": "MultipleRootError: Q(x0=1/2, z) has a multiple root"}
