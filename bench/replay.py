"""In-process replay of the benchmark's cases, one span per call into a
layer.

The replay calls the same public functions, in the same order and with the
same CLI defaults, as `weylpair verify` / `weylpair construct` and the
oracle script do, and returns the verdicts so the caller can compare them
with the fresh-process output of the same case.  Spans are recorded here,
in the benchmark's own files; the program itself carries no tracing.

Requires ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

import weylpair.curvefun as curvefun_mod
from weylpair.cli import INTERNAL_ERRORS, build_parser
from weylpair.curve import is_nonsingular
from weylpair.curvefun import (expand_at_infinity, expansion_report,
                               reduction_coefficients, reduction_residuals)
from weylpair.numeric import (roots_z, verify_krichever,
                              verify_potential_recovery)
from weylpair.pairs import (OperatorPair, build_companion, build_quartic,
                            commutant_solve, in_affine_span, is_power_span,
                            verify_commutation)
from weylpair.poly import Poly, Rat
from weylpair.qsolver import (build_q, curve_identity_residual,
                              derived_ode_residual, extract_curve,
                              q_ode_residual, trace_identity_residual)
from weylpair.series import LaurentSeries
from weylpair.weyl import adjoint, op_mul, poly_of_op

from workloads import NUMERIC_CHECKS


class NullTracer:
    """Tracing off: oracle_case.py runs the same code untraced."""

    @staticmethod
    def span(name: str):
        return nullcontext()


class Tracer:
    """Spans kept in memory: name, start, end, parent span and case id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.case: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "case": self.case,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name; a layer's self time is this
        minus the totals of its child spans."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out


@contextmanager
def traced_series(tracer: Tracer):
    """Wrap the two series-layer calls that expand_at_infinity makes
    internally (curvefun.expand_w and LaurentSeries.inverse) in spans."""
    expand_w, inverse = curvefun_mod.expand_w, LaurentSeries.inverse

    def traced_expand_w(*args, **kwargs):
        with tracer.span("series.sqrt"):
            return expand_w(*args, **kwargs)

    def traced_inverse(self):
        with tracer.span("series.inverse"):
            return inverse(self)

    curvefun_mod.expand_w = traced_expand_w
    LaurentSeries.inverse = traced_inverse
    try:
        yield
    finally:
        curvefun_mod.expand_w = expand_w
        LaurentSeries.inverse = inverse


def parse_alpha(alpha: str) -> dict:
    return {k: Rat(v) for k, v in
            (item.split("=") for item in alpha.split(","))} if alpha else {}


def build(tr, g: int, params: dict) -> OperatorPair:
    """build_pair, one span per step."""
    with tr.span("qsolver.build_q"):
        qp = build_q(g, params)
    with tr.span("qsolver.extract_curve"):
        curve = extract_curve(qp)
    with tr.span("pairs.build_quartic"):
        l4 = build_quartic(g, params)
    with tr.span("pairs.build_companion"):
        m = build_companion(qp, l4)
    return OperatorPair(g=g, l4=l4, m=m, curve=curve, q=qp)


def construct(tr, g: int, alpha: str) -> tuple[str, OperatorPair]:
    """The text `weylpair construct` prints, and the pair behind it."""
    pair = build(tr, g, parse_alpha(alpha))
    with tr.span("cli.emit"):
        doc = {"genus": g, "Q": pair.q.q.to_json(),
               "deltas": [d.to_json() for d in pair.q.deltas],
               "F": pair.curve.to_json(), "L4": pair.l4.to_json(),
               "M": pair.m.to_json()}
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    return text, pair


def verify(tr, g: int, alpha: str) -> tuple[dict, OperatorPair, object]:
    """Check verdicts by name, as `weylpair verify` reports them, plus the
    pair and M*M for the work counts."""
    args = build_parser().parse_args(
        ["verify", "--genus", str(g)] + (["--alpha", alpha] if alpha else []))
    params = parse_alpha(alpha)
    pair = build(tr, g, params)
    qp, curve, l4, m = pair.q, pair.curve, pair.l4, pair.m
    v: dict = {}
    with tr.span("qsolver.residuals"):
        v["q_ode"] = q_ode_residual(qp).is_zero()
        v["curve_identity"] = curve_identity_residual(qp, curve).is_zero()
        v["derived_ode"] = derived_ode_residual(qp).is_zero()
        v["trace_identity"] = trace_identity_residual(qp, curve).is_zero()
    with tr.span("curvefun.reduction"):
        u0, u1 = reduction_coefficients(qp, curve)
        r0, r1 = reduction_residuals(u0, u1, l4)
    v["reduction_psi"] = r0.is_zero()
    v["reduction_dpsi"] = r1.is_zero()
    order = args.series_order or (2 * g + 8)
    with tr.span("curvefun.expand"):
        s0 = expand_at_infinity(u0, order)
        s1 = expand_at_infinity(u1, order)
        series = expansion_report(s0, s1, qp, curve)
    for key in ("leading_term", "potential_v", "potential_w",
                "self_adjoint_b1", "odd_coeffs_vanish"):
        v[f"series_{key}"] = bool(series[key])
    with tr.span("weyl.adjoint"):
        v["self_adjoint_l4"] = adjoint(l4) == l4
        v["self_adjoint_m"] = adjoint(m) == m
    with tr.span("pairs.commutation"):
        v["commutation"] = verify_commutation(pair).is_zero()
    with tr.span("pairs.square_identity"):
        with tr.span("weyl.mm"):
            mm = op_mul(m, m)
        with tr.span("weyl.f_of_l"):
            f_of_l = poly_of_op(list(curve.coeffs) + [Poly.one()], l4)
        v["square_identity"] = (mm - f_of_l).is_zero()
    if not params:
        v.update(dict.fromkeys(NUMERIC_CHECKS))
        return v, pair, mm
    with tr.span("curve.nonsingular"):
        v["curve_nonsingular"] = bool(is_nonsingular(curve, params))
    distinct = recovery = krichever = True
    for x0 in (Rat(2 * i + 1, 2) for i in range(args.samples)):
        try:
            with tr.span("numeric.roots"):
                roots_z(qp, None, x0, tol_root=args.tol_root)
        except INTERNAL_ERRORS:
            distinct = False
            continue
        try:
            with tr.span("numeric.recovery"):
                rep = verify_potential_recovery(qp, None, x0,
                                                tol=args.tol_recovery)
            recovery = recovery and rep["pass"]
            with tr.span("numeric.krichever"):
                rep = verify_krichever(qp, curve, None, x0,
                                       tol=args.tol_krichever)
            krichever = krichever and rep["pass"]
        except INTERNAL_ERRORS:
            recovery = krichever = False
    v["root_distinctness"] = distinct
    v["potential_recovery"] = bool(recovery)
    v["krichever_relation"] = bool(krichever)
    return v, pair, mm


def oracle(tr, g: int, alpha: str) -> tuple[dict, OperatorPair]:
    """The independent commutant oracle at order 4g+2 and the criterion-9
    checks on its answer."""
    pair = build(tr, g, parse_alpha(alpha))
    with tr.span("pairs.commutant_solve"):
        particular, basis = commutant_solve(pair.l4, 4 * g + 2, known=pair.m)
    with tr.span("pairs.oracle_checks"):
        in_span = in_affine_span(pair.m, particular, basis)
        powers = is_power_span(basis, pair.l4, g)
    return {"genus": g, "alpha": alpha, "basis_size": len(basis),
            "in_affine_span": bool(in_span),
            "is_power_span": bool(powers)}, pair
