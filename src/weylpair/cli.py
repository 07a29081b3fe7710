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
# layers then compile with argparse loaded, 0.2-0.4 MB of peak RSS above
# compiling them first, below the benchmark runner's own mark
import argparse
import errno
import os
import sys
import time
# json.encoder's own quoting function; importing it from there would load
# the json package, its decoder and scanner, about 3 ms per launch
from _json import encode_basestring_ascii

from .errors import INTERNAL_ERRORS, PARAM_NAMES, ParamError, check_a3


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
    check_a3(params.get("a3", 1))
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
    ver.add_argument("--samples", type=_positive_int, default=3,
                     help="number of numeric sample points")
    ver.add_argument("--inject-fault", choices=["q", "curve", "companion"],
                     default=None, help="test hook: corrupt one object "
                                        "before checking")
    # read by bench/replay.py alone, as namespace attributes; no flag sets
    # them.  Deleted with the benchmark's move onto verify_pair
    ver.set_defaults(series_order=None, tol_root=1e-12, tol_recovery=1e-8,
                     tol_krichever=1e-6)

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
        try:  # the error open() would meet at the parent
            os.stat(parent)
            err = errno.ENOTDIR
        except OSError as exc:
            err = exc.errno
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


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    params = _parse_alpha(args.alpha)
    from .pairs import build_pair, verify_pair
    from .poly import Poly
    pair = build_pair(args.genus, params)
    x = Poly.var("x")
    if args.inject_fault == "q":
        pair = pair._replace(q=pair.q._replace(q=pair.q.q + x))
    elif args.inject_fault == "curve":
        c = pair.curve.coeffs
        pair = pair._replace(curve=pair.curve._replace(
            coeffs=(c[0] + 1, *c[1:])))
    elif args.inject_fault == "companion":
        pair = pair._replace(m=pair.m + pair.m.from_poly(x))
    checks = verify_pair(pair, args.samples)
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
