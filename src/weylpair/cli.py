"""Batch command-line front end.

Three subcommands:

    construct  build Q, the spectral polynomial and the operator pair,
               and emit them as one JSON document
    verify     run the full verification suite and exit 0 only if every
               scheduled check passes
    examples   reproduce the recorded genus-2 and genus-3 closed forms,
               report exact matches or coefficient diffs, and exit 1 on
               any diff or false certificate

Machine-readable JSON goes to stdout (or --out); a human summary,
including timings, goes to stderr so the JSON output is byte-identical
across runs.  Exit codes: 0 success, 1 failed check, 2 bad parameters or
usage, 3 internal consistency error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .curve import ParamError, SpectralCurve, is_nonsingular
from .curvefun import (expand_at_infinity, expansion_report,
                       reduction_coefficients, reduction_residuals)
from .numeric import (DegenerateDerivativeError, MultipleRootError, roots_z,
                      verify_krichever, verify_potential_recovery)
from .pairs import (OperatorPair, build_pair, match_reference_examples,
                    verify_commutation, verify_square_identity)
from .weyl import DiffOp, adjoint
from .poly import NotDivisibleError, Poly, Rat
from .qsolver import (DegreeError, NormalizationError, QPolynomial,
                      RecursionDivisionError, XDependenceError,
                      curve_identity_residual, derived_ode_residual,
                      q_ode_residual, trace_identity_residual)

INTERNAL_ERRORS = (NotDivisibleError, RecursionDivisionError,
                   NormalizationError, XDependenceError, DegreeError,
                   MultipleRootError, DegenerateDerivativeError)


def _parse_alpha(text: str) -> dict:
    """Parse 'a0=sym,a1=0,a2=1/2,a3=1' into a parameter binding."""
    params: dict = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise ParamError(f"bad parameter binding {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        value = value.strip()
        if name not in ("a0", "a1", "a2", "a3"):
            raise ParamError(f"unknown parameter {name!r}")
        if value in ("sym", "symbolic"):
            continue
        try:
            params[name] = Rat(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParamError(f"bad rational {value!r} for {name}") from exc
    return params


def _is_numeric(params: dict) -> bool:
    return all(name in params for name in ("a0", "a1", "a2", "a3"))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _rat_arg(text: str) -> Rat:
    return Rat(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylpair",
        description="Construct and verify commuting differential operator "
                    "pairs of orders 4 and 4g+2 in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--genus", type=_positive_int, required=True)
        p.add_argument("--alpha", default="",
                       help="comma list a0=VAL,... with VAL a rational "
                            "like 3/2 or 'sym' to stay symbolic")
        p.add_argument("--out", default=None,
                       help="write the JSON document to this path instead "
                            "of stdout")

    con = sub.add_parser("construct", help="build and emit the pair")
    common(con)

    ver = sub.add_parser("verify", help="run the verification suite")
    common(ver)
    ver.add_argument("--series-order", type=int, default=None,
                     help="expansion order at infinity, at least 2g+6 "
                          "(default 2g+8)")
    ver.add_argument("--samples", type=_positive_int, default=3,
                     help="number of numeric sample points")
    # every check is exact; bench/replay.py still passes these three
    ver.add_argument("--tol-root", type=float, default=1e-12,
                     help="not read: no root is approximated")
    ver.add_argument("--tol-recovery", type=float, default=1e-8,
                     help="not read: potential recovery is exact")
    ver.add_argument("--tol-krichever", type=float, default=1e-6,
                     help="not read: the pole coupling is exact")
    ver.add_argument("--inject-fault", choices=["q", "curve", "companion"],
                     default=None, help="test hook: corrupt one object "
                                        "before checking")

    sub.add_parser("examples",
                   help="reproduce the recorded genus-2/3 closed forms")
    return parser


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=1, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_construct(args) -> int:
    t0 = time.monotonic()
    params = _parse_alpha(args.alpha)
    pair = build_pair(args.genus, params)
    doc = {
        "genus": args.genus,
        "Q": pair.q.q.to_json(),
        "deltas": [d.to_json() for d in pair.q.deltas],
        "F": pair.curve.to_json(),
        "L4": pair.l4.to_json(),
        "M": pair.m.to_json(),
    }
    _emit(doc, args.out)
    print(f"constructed genus {args.genus} pair "
          f"(orders 4 and {pair.m.order()}) in {time.monotonic()-t0:.2f}s",
          file=sys.stderr)
    return 0


def _checks_for(args, params: dict) -> list[dict]:
    g = args.genus
    # expansion_report reads u1 up to k^(2g+5)
    order = 2 * g + 8 if args.series_order is None else args.series_order
    if order < 2 * g + 6:
        raise ParamError(f"--series-order must be at least 2g+6 = "
                         f"{2 * g + 6} at genus {g}, got {order}")
    numeric = _is_numeric(params)
    pair = build_pair(g, params)
    qp, curve = pair.q, pair.curve
    if args.inject_fault == "q":
        qp = QPolynomial(g=qp.g, deltas=qp.deltas,
                         q=qp.q + Poly.var("x"), v=qp.v, w=qp.w,
                         alphas=qp.alphas)
    elif args.inject_fault == "curve":
        coeffs = list(curve.coeffs)
        coeffs[0] = coeffs[0] + Poly.one()
        curve = SpectralCurve(g=g, coeffs=tuple(coeffs))
    m = pair.m
    if args.inject_fault == "companion":
        m = m + DiffOp([Poly.var("x")])

    checks = []

    def add(name, passed, detail=""):
        checks.append({"name": name, "pass": bool(passed),
                       "detail": str(detail)})

    add("q_ode", q_ode_residual(qp).is_zero(),
        "fifth-order linear ODE residual of Q")
    add("curve_identity", curve_identity_residual(qp, curve).is_zero(),
        "4F equals the quadratic expression in Q, V, W")
    add("derived_ode", derived_ode_residual(qp).is_zero(),
        "x-derivative companion identity")
    add("trace_identity", trace_identity_residual(qp, curve).is_zero(),
        "W = 2[z^(g-1)]Q - c_2g")
    u0, u1 = reduction_coefficients(qp, curve)
    r0, r1 = reduction_residuals(u0, u1, pair.l4)
    add("reduction_psi", r0.is_zero(), "psi-coefficient equals z")
    add("reduction_dpsi", r1.is_zero(), "psi'-coefficient vanishes")
    s0 = expand_at_infinity(u0, order)
    s1 = expand_at_infinity(u1, order)
    series = expansion_report(s0, s1, qp, curve)
    for key in ("leading_term", "potential_v", "potential_w",
                "self_adjoint_b1", "odd_coeffs_vanish"):
        add(f"series_{key}", series[key])
    add("self_adjoint_l4", adjoint(pair.l4) == pair.l4)
    add("self_adjoint_m", adjoint(m) == m)
    patched = OperatorPair(g=g, l4=pair.l4, m=m, curve=curve, q=qp)
    add("commutation", verify_commutation(patched).is_zero(),
        "[L4, M] = 0")
    add("square_identity", verify_square_identity(patched).is_zero(),
        "M^2 = F(L4)")

    if numeric:
        add("curve_nonsingular", is_nonsingular(curve, params),
            "disc_z F != 0 at the bound parameters")
        sample_points = [Rat(2 * i + 1, 2) for i in range(args.samples)]
        recovery_ok = True
        krichever_ok = True
        # exception messages from roots_z, and from the two root-level
        # checks, where one exception fails both
        root_errors = []
        check_errors = []
        for x0 in sample_points:
            # a corrupted Q must surface as failed checks, not a crash
            try:
                roots_z(qp, None, x0)
            except INTERNAL_ERRORS as exc:
                root_errors.append(f"{type(exc).__name__}: {exc}")
                continue
            try:
                rep = verify_potential_recovery(qp, None, x0)
                recovery_ok = recovery_ok and rep["pass"]
                repk = verify_krichever(qp, curve, None, x0)
                krichever_ok = krichever_ok and repk["pass"]
            except INTERNAL_ERRORS as exc:
                recovery_ok = False
                krichever_ok = False
                check_errors.append(f"{type(exc).__name__}: {exc}")
        add("root_distinctness", not root_errors,
            "; ".join(root_errors) or "disc_z Q(x0, z) != 0")
        add("potential_recovery", recovery_ok,
            "; ".join(check_errors)
            or "Q(x0, z) divides Qxx^2 - 2QxQxxx - 4F - 4VQx^2; "
               "res_z(Q, Qx) != 0")
        add("krichever_relation", krichever_ok,
            "; ".join(check_errors)
            or "the same divisibility; res_z(Q, F) != 0")
    else:
        for name in ("curve_nonsingular", "root_distinctness",
                     "potential_recovery", "krichever_relation"):
            checks.append({"name": name, "pass": None,
                           "detail": "skipped: symbolic parameters"})
    return checks


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    params = _parse_alpha(args.alpha)
    checks = _checks_for(args, params)
    failed = [c for c in checks if c["pass"] is False]
    doc = {
        "genus": args.genus,
        "alpha": {k: f"{v.numerator}/{v.denominator}"
                  for k, v in sorted(params.items())},
        "checks": checks,
        "pass": not failed,
    }
    _emit(doc, args.out)
    ran = sum(1 for c in checks if c["pass"] is not None)
    skipped = len(checks) - ran
    print(f"{ran} checks run, {len(failed)} failed, {skipped} skipped "
          f"({time.monotonic()-t0:.2f}s)", file=sys.stderr)
    for c in failed:
        print(f"  FAILED {c['name']}: {c['detail']}", file=sys.stderr)
    return 1 if failed else 0


def cmd_examples(args) -> int:
    report = match_reference_examples()
    doc = {}
    failed = False
    for g, rep in sorted(report.items()):
        doc[str(g)] = rep
        match = rep["companion_match"] and rep["curve_match"]
        certified = rep["commutation_zero"] and rep["square_identity_zero"]
        failed = failed or not (match and certified)
        status = "MATCH" if match else "DIFFERS"
        print(f"genus {g}: {status} "
              f"(commutation {'ok' if rep['commutation_zero'] else 'BAD'}, "
              f"square identity "
              f"{'ok' if rep['square_identity_zero'] else 'BAD'})",
              file=sys.stderr)
        if not rep["curve_match"]:
            print(f"  constructed - recorded curve: {rep['curve_diff']}",
                  file=sys.stderr)
        for order, diff in rep["companion_diff"]:
            print(f"  constructed - recorded at D^{order}: {diff}",
                  file=sys.stderr)
    _emit(doc, getattr(args, "out", None))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "construct":
            return cmd_construct(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "examples":
            return cmd_examples(args)
        parser.error(f"unknown command {args.command}")
    except ParamError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except INTERNAL_ERRORS as exc:
        print(f"internal consistency error: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
