"""Batch command-line front end.

Three subcommands:

    construct  build Q, the spectral polynomial and the operator pair,
               and emit them as one JSON document
    verify     run the full verification suite and exit 0 only if every
               scheduled check passes
    examples   reproduce the recorded genus-2 and genus-3 closed forms,
               report exact matches or coefficient diffs, and exit 1 on
               any diff or false certificate

Machine-readable JSON goes to stdout (or to the --out of construct and
verify); a human summary, including timings, goes to stderr so the JSON
output is byte-identical across runs.  The JSON is the bytes of
json.dumps(doc, indent=1, sort_keys=True), written by _dumps.  Exit
codes: 0 success, 1 failed check, 2 bad parameters or usage, 3 internal
consistency error.
"""

from __future__ import annotations

# the standard library and the error types only: each command imports its
# layer after argparse has accepted the command line, so --help, a usage
# or parameter error and an unwritable --out compile no mathematics.  The
# layers then compile (no cached bytecode) with argparse loaded, which
# puts a command's own peak RSS 0.2-0.4 MB above compiling them first
# (tools/ab_launch.py mb: verify g=4 15.9 MB, construct g=12 17.0 MB,
# --help 14.8 MB); the benchmark's peak_rss_mb reads the runner's mark of
# about 20.5-21 MB instead, which these launches stay below
import argparse
import errno
import os
import sys
import time
# json.encoder's own quoting function; importing it from there would load
# the json package, its decoder and scanner, about 3 ms per launch
from _json import encode_basestring_ascii

from .errors import (PARAM_NAMES, DegenerateDerivativeError, DegreeError,
                     MultipleRootError, ParamError, XDependenceError)

INTERNAL_ERRORS = (XDependenceError, DegreeError, MultipleRootError,
                   DegenerateDerivativeError)


def _parse_alpha(text: str) -> dict:
    """Parse 'a0=sym,a1=0,a2=1/2,a3=1' into a parameter binding."""
    params: dict = {}
    if not text:
        return params
    seen: set = set()
    for item in text.split(","):
        if "=" not in item:
            raise ParamError(f"bad parameter binding {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        value = value.strip()
        if name not in PARAM_NAMES:
            raise ParamError(f"unknown parameter {name!r}")
        if name in seen:
            raise ParamError(f"parameter {name!r} bound twice")
        seen.add(name)
        if value in ("sym", "symbolic"):
            continue
        from fractions import Fraction  # weylpair.poly.Rat, loaded here
        try:
            params[name] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParamError(f"bad rational {value!r} for {name}") from exc
    return params


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


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
                     help="order of bench/replay.py's oracle expansions, "
                          "at least 2g+6 (default 2g+8)")
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


def _check_out(out_path: str | None) -> None:
    """Reject an --out that cannot be written before any work is done.
    The file is neither created nor truncated here; _emit still reports
    an error that only the write itself finds."""
    if not out_path:
        return
    parent = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        err = errno.EISDIR
    elif not os.path.isdir(parent):
        err = errno.ENOENT
    elif not os.access(out_path if os.path.exists(out_path) else parent,
                       os.W_OK):
        err = errno.EACCES
    else:
        return
    raise ParamError(f"cannot write --out {out_path}: {os.strerror(err)}")


def _dumps(doc) -> str:
    """json.dumps(doc, indent=1, sort_keys=True), which with indent set
    runs a pure-Python encoder, for dicts with str keys, lists, tuples,
    str, int, bool, None and Polys (as to_json()); else a TypeError."""
    from .poly import NVARS, Poly

    def dumps(obj, ind: str) -> str:
        if isinstance(obj, Poly):
            # the bytes of dumps(obj.to_json(), ind), with no dict per term
            i2, i3, i4 = ind + "  ", ind + "   ", ind + "    "
            term = (f'{{\n{i3}"c": "%s",\n{i3}"e": [\n{i4}'
                    + f",\n{i4}".join(["%d"] * NVARS) + f"\n{i3}]\n{i2}}}")
            body = f",\n{i2}".join([term % (c, *e)
                                     for c, e in obj.json_terms()])
            return (f'{{\n{ind} "terms": '
                    + (f"[\n{i2}{body}\n{ind} ]" if body else "[]")
                    + f"\n{ind}}}")
        if isinstance(obj, int):
            return ("true" if obj is True else "false" if obj is False
                    else int.__repr__(obj))
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)
        if obj is None:
            return "null"
        inner = ind + " "
        sep = ",\n" + inner
        if isinstance(obj, (list, tuple)):
            body = sep.join([dumps(v, inner) for v in obj])
            return f"[\n{inner}{body}\n{ind}]" if obj else "[]"
        if isinstance(obj, dict):
            # encode_basestring_ascii raises TypeError on a non-str key
            body = sep.join([encode_basestring_ascii(k) + ": "
                             + dumps(obj[k], inner) for k in sorted(obj)])
            return f"{{\n{inner}{body}\n{ind}}}" if obj else "{}"
        raise TypeError(f"{type(obj).__name__} is not emitted as JSON")

    return dumps(doc, "")


def _emit(doc: dict, out_path: str | None) -> None:
    text = _dumps(doc)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ParamError(f"cannot write --out {out_path}: "
                             f"{exc.strerror}") from exc
    else:
        sys.stdout.write(text + "\n")


def cmd_construct(args) -> int:
    t0 = time.monotonic()
    params = _parse_alpha(args.alpha)
    from .pairs import build_pair
    pair = build_pair(args.genus, params)
    # the to_json() form of each field, with its Polys left for _dumps
    doc = {
        "genus": args.genus,
        "Q": pair.q.q,
        "deltas": pair.q.deltas,
        "F": {"g": pair.curve.g, "c": pair.curve.coeffs},
        "L4": {"coeffs": pair.l4.coeffs},
        "M": {"coeffs": pair.m.coeffs},
    }
    _emit(doc, args.out)
    print(f"constructed genus {args.genus} pair "
          f"(orders 4 and {pair.m.order()}) in {time.monotonic()-t0:.2f}s",
          file=sys.stderr)
    return 0


def _checks_for(args, params: dict) -> list[dict]:
    g = args.genus
    # the oracle expansions of bench/replay.py read u1 up to k^(2g+5)
    order = args.series_order
    if order is not None and order < 2 * g + 6:
        raise ParamError(f"--series-order must be at least 2g+6 = "
                         f"{2 * g + 6} at genus {g}, got {order}")
    from .curve import SpectralCurve, is_nonsingular
    from .pairs import (OperatorPair, build_pair, quartic_from_potentials,
                        verify_commutation, verify_self_adjoint,
                        verify_square_identity)
    from .poly import Poly, Rat
    from .qsolver import (curve_identity_residual, q_ode_residual,
                          trace_identity_residual)
    from .weyl import DiffOp, is_self_adjoint
    pair = build_pair(g, params)
    qp, curve = pair.q, pair.curve
    if args.inject_fault == "q":
        qp = qp._replace(q=qp.q + Poly.var("x"))
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

    # q_ode and derived_ode name one residual, d/dx(*) / (2Q)
    ode_ok = q_ode_residual(qp).is_zero()
    add("q_ode", ode_ok, "fifth-order linear ODE residual of Q")
    curve_ok = curve_identity_residual(qp, curve).is_zero()
    add("curve_identity", curve_ok,
        "4F equals the quadratic expression in Q, V, W")
    add("derived_ode", ode_ok, "x-derivative companion identity")
    trace_ok = trace_identity_residual(qp, curve).is_zero()
    add("trace_identity", trace_ok, "W = 2[z^(g-1)]Q - c_2g")
    # L = (D^2+V)^2+W reduces by psi'' = u1 psi' + u0 psi, u1 = Q'/Q and
    # u0 = (-Q''/2 + w)/Q - V, to R0 + R1 D.  With C = 4F - rhs(*), for
    # every Q (arXiv:1107.3356 §2; curvefun is the oracle):
    #     R0 - z = C / (4 Q^2),   R1 = 0,
    #     [k^1]u0 = -W/2  <=>  trace_identity,  for Q monic of z-degree g,
    # and such a Q makes u1 an even O(k^2) series in k = 1/sqrt(z) and u0 =
    # 1/k - V + O(k).  The series entries fail closed on any other Q.
    normal = pair.l4 == quartic_from_potentials(qp.v, qp.w)
    monic = qp.q.degree("z") == g and qp.q.coeff_in("z", g) == 1
    add("reduction_psi", normal and curve_ok, "psi-coefficient equals z")
    add("reduction_dpsi", normal, "psi'-coefficient vanishes")
    for key in ("leading_term", "potential_v", "potential_w",
                "self_adjoint_b1", "odd_coeffs_vanish"):
        add(f"series_{key}", monic and (trace_ok or key != "potential_w"))
    patched = OperatorPair(g=g, l4=pair.l4, m=m, curve=curve, q=qp)
    add("self_adjoint_l4", is_self_adjoint(pair.l4))
    add("self_adjoint_m", verify_self_adjoint(patched).is_zero())
    add("commutation", verify_commutation(patched).is_zero(),
        "[L4, M] = 0")
    add("square_identity", verify_square_identity(patched).is_zero(),
        "M^2 = F(L4)")

    if all(name in params for name in PARAM_NAMES):
        from .numeric import (roots_z, verify_krichever,
                              verify_potential_recovery)
        add("curve_nonsingular", is_nonsingular(curve, params),
            "disc_z F != 0 at the bound parameters")
        sample_points = [Rat(2 * i + 1, 2) for i in range(args.samples)]
        recovery_ok = krichever_ok = True
        # messages from roots_z and from the two root-level checks; both
        # fail on either, as they do not run where roots_z raises
        root_errors = []
        check_errors = []
        for x0 in sample_points:
            # a corrupted Q must surface as failed checks, not a crash
            try:
                roots_z(qp, None, x0)
            except INTERNAL_ERRORS as exc:
                root_errors.append(f"{type(exc).__name__}: {exc}")
                check_errors.append(f"not run at x0={x0}: {root_errors[-1]}")
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
        add("potential_recovery", recovery_ok and not root_errors,
            "; ".join(check_errors)
            or "Q(x0, z) divides Qxx^2 - 2QxQxxx - 4F - 4VQx^2; "
               "res_z(Q, Qx) != 0")
        add("krichever_relation", krichever_ok and not root_errors,
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
    # the recorded forms are compiled by this command alone
    from .reference import match_reference_examples
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
    _emit(doc, None)
    return 1 if failed else 0


COMMANDS = {"construct": cmd_construct, "verify": cmd_verify,
            "examples": cmd_examples}


def main(argv=None) -> int:
    # the subcommand is required, so argparse exits 2 on any other
    args = build_parser().parse_args(argv)
    try:
        _check_out(getattr(args, "out", None))
        return COMMANDS[args.command](args)
    except ParamError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except INTERNAL_ERRORS as exc:
        print(f"internal consistency error: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
