"""Rational functions on the curve, the reduction identity, expansions."""

import pytest

from weylpair.curvefun import (ContextMismatchError, CurveContext, CurveFun,
                               expand_at_infinity, expand_w,
                               expansion_report, reduction_coefficients,
                               reduction_residuals)
from weylpair.pairs import build_quartic
from weylpair.poly import Poly, Rat
from weylpair.qsolver import build_q, extract_curve
from weylpair.series import LaurentSeries, series_from_poly

from conftest import random_param_tuple, random_poly

x = Poly.var("x")
z = Poly.var("z")
a0 = Poly.var("a0")

SLICE = {"a1": 0, "a2": 0, "a3": 1}


def make_ctx(g=1, params=SLICE):
    qp = build_q(g, params)
    curve = extract_curve(qp)
    return CurveContext(q=qp, curve=curve), qp, curve


def test_defining_relation():
    ctx, qp, curve = make_ctx()
    w = CurveFun.w(ctx)
    assert w * w == CurveFun.from_poly(ctx, curve.as_poly())


def test_cancellation_against_q():
    ctx, qp, _ = make_ctx()
    w_over_q = CurveFun(ctx, Poly.zero(), Poly.one(), 1)
    qfun = CurveFun.from_poly(ctx, qp.q)
    assert w_over_q * qfun == CurveFun.w(ctx)


def test_u1_times_q_is_q_prime():
    ctx, qp, curve = make_ctx()
    _, u1 = reduction_coefficients(qp, curve)
    qfun = CurveFun.from_poly(ctx, qp.q)
    assert u1 * qfun == CurveFun.from_poly(ctx, qp.q.diff("x"))


def test_uncancelled_q_factor_is_equal(rng):
    # no operation divides by Q, so equality must see through a common
    # factor of Q that was never cancelled
    ctx, qp, _ = make_ctx(2)
    for _ in range(20):
        a = random_poly(rng, vars=("x", "z"), max_exp=2, n_terms=3)
        b = random_poly(rng, vars=("x", "z"), max_exp=1, n_terms=2)
        m = rng.randint(0, 2)
        lazy = CurveFun(ctx, a * qp.q, b * qp.q, m + 1)
        assert lazy == CurveFun(ctx, a, b, m)
        assert lazy != CurveFun(ctx, a + 1, b, m)
        assert (lazy - CurveFun(ctx, a, b, m)).is_zero()


def test_context_mismatch_raises():
    ctx1, _, _ = make_ctx(1)
    ctx2, _, _ = make_ctx(2)
    with pytest.raises(ContextMismatchError):
        CurveFun.w(ctx1) * CurveFun.w(ctx2)


def test_diff_x_of_point_coordinate():
    ctx, _, _ = make_ctx()
    assert CurveFun.w(ctx).diff_x().is_zero()
    assert CurveFun.from_poly(ctx, z).diff_x().is_zero()


def test_diff_x_quotient_rule():
    ctx, qp, _ = make_ctx()
    inv_q = CurveFun(ctx, Poly.one(), Poly.zero(), 1)
    assert inv_q.diff_x() == CurveFun(ctx, -qp.q.diff("x"), Poly.zero(), 2)


def test_diff_u1_formula():
    # (Q'/Q)' = Q''/Q - (Q'/Q)^2
    ctx, qp, curve = make_ctx(2)
    _, u1 = reduction_coefficients(qp, curve)
    expect = (CurveFun(ctx, qp.q.diff("x").diff("x"), Poly.zero(), 1)
              - u1 * u1)
    assert u1.diff_x() == expect


def test_reduction_coefficients_genus1():
    ctx, qp, curve = make_ctx()
    u0, u1 = reduction_coefficients(qp, curve)
    v = x**3 + a0
    assert u0 == CurveFun(ctx, -v * qp.q, Poly.one(), 1)  # Q'' = 0 here
    assert u1 == CurveFun(ctx, Poly.one(), Poly.zero(), 1)


def sigma(f: CurveFun) -> CurveFun:
    """Pullback under the sheet involution (z, w) -> (z, -w)."""
    return CurveFun(f.ctx, f.a, -f.b, f.m)


def test_u1_sheet_involution_invariant():
    for g in (1, 2, 3):
        qp = build_q(g, SLICE)
        curve = extract_curve(qp)
        u0, u1 = reduction_coefficients(qp, curve)
        assert sigma(u1) == u1
        assert sigma(u0) != u0


def test_curvefun_ring_axioms(rng):
    ctx, qp, curve = make_ctx(2)

    def rand_cf():
        return CurveFun(ctx,
                        random_poly(rng, vars=("x", "z"), max_exp=2,
                                    n_terms=3),
                        random_poly(rng, vars=("x", "z"), max_exp=1,
                                    n_terms=2),
                        rng.randint(0, 2))

    for _ in range(60):
        u, v, w = rand_cf(), rand_cf(), rand_cf()
        assert u + v == v + u
        assert u * v == v * u
        assert (u + v) + w == u + (v + w)
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w


def test_curvefun_leibniz(rng):
    ctx, _, _ = make_ctx(2)

    def rand_cf():
        return CurveFun(ctx,
                        random_poly(rng, vars=("x", "z"), max_exp=2,
                                    n_terms=3),
                        random_poly(rng, vars=("x", "z"), max_exp=1,
                                    n_terms=2),
                        rng.randint(0, 2))

    for _ in range(60):
        u, v = rand_cf(), rand_cf()
        assert (u * v).diff_x() == u.diff_x() * v + u * v.diff_x()


def test_reduction_residuals_zero_symbolic():
    for g in (1, 2, 3, 4):
        qp = build_q(g, SLICE)
        curve = extract_curve(qp)
        u0, u1 = reduction_coefficients(qp, curve)
        l4 = build_quartic(g, SLICE)
        r0, r1 = reduction_residuals(u0, u1, l4)
        assert r0.is_zero() and r1.is_zero()


def test_reduction_residuals_zero_numeric(rng):
    for g in (1, 2, 3, 4):
        params = random_param_tuple(rng)
        qp = build_q(g, params)
        curve = extract_curve(qp)
        u0, u1 = reduction_coefficients(qp, curve)
        l4 = build_quartic(g, params)
        r0, r1 = reduction_residuals(u0, u1, l4)
        assert r0.is_zero() and r1.is_zero()


def test_reduction_negative_control():
    qp = build_q(1, SLICE)
    curve = extract_curve(qp)
    u0, u1 = reduction_coefficients(qp, curve)
    l4 = build_quartic(1, SLICE)
    one = CurveFun.from_poly(u0.ctx, Poly.one())
    r0, _ = reduction_residuals(u0 + one, u1, l4)
    assert not r0.is_zero()


def test_expand_w_genus1():
    _, qp, curve = make_ctx()
    ws = expand_w(curve, 9)
    expect = LaurentSeries(-3, [Poly.one()] + [Poly.zero()] * 5
                           + [Poly.rat(Rat(-1, 2)) * a0], 9)
    assert ws.same_up_to_trunc(expect)


def test_expand_u0_genus1():
    _, qp, curve = make_ctx()
    u0, _ = reduction_coefficients(qp, curve)
    s = expand_at_infinity(u0, 2)
    assert s.val == -1
    assert s.coeff(-1) == Poly.one()
    assert s.coeff(0) == -(x**3 + a0)
    assert s.coeff(1) == -x


def test_expand_u1_even_powers_only():
    for g in (1, 2):
        qp = build_q(g, SLICE)
        curve = extract_curve(qp)
        _, u1 = reduction_coefficients(qp, curve)
        s = expand_at_infinity(u1, 2 * g + 9)
        assert all(s.coeff(n).is_zero() for n in s.known_range() if n % 2)


def test_expansion_is_ring_homomorphism():
    _, qp, curve = make_ctx(2)
    u0, u1 = reduction_coefficients(qp, curve)
    for a, b in ((u0, u1), (u0, u0), (u1, u1)):
        lhs = expand_at_infinity(a * b, 4)
        rhs = expand_at_infinity(a, 8) * expand_at_infinity(b, 8)
        assert lhs.same_up_to_trunc(rhs)
    s = expand_at_infinity(u0 + u1, 4)
    t = expand_at_infinity(u0, 4) + expand_at_infinity(u1, 4)
    assert s.same_up_to_trunc(t)


def test_defining_relation_survives_expansion():
    for g in (1, 2):
        qp = build_q(g, SLICE)
        curve = extract_curve(qp)
        ws = expand_w(curve, 8)
        fs = series_from_poly(curve.as_poly(), 8 - (2 * g + 1))
        assert (ws * ws).same_up_to_trunc(fs)


def test_expansion_report_passes():
    for g, params in ((1, SLICE), (2, SLICE), (2, None), (3, SLICE)):
        qp = build_q(g, params)
        curve = extract_curve(qp)
        u0, u1 = reduction_coefficients(qp, curve)
        n = 2 * g + 8
        rep = expansion_report(expand_at_infinity(u0, n),
                               expand_at_infinity(u1, n), qp, curve)
        assert rep["all"], rep


def test_expansion_report_detects_injected_b1():
    qp = build_q(1, SLICE)
    curve = extract_curve(qp)
    u0, u1 = reduction_coefficients(qp, curve)
    n = 2 * 1 + 8
    s1 = expand_at_infinity(u1, n)
    val = min(s1.val, 1)
    coeffs = [s1.coeff(k) for k in range(val, s1.trunc)]
    coeffs[1 - val] = x  # inject b1 = x
    bad = LaurentSeries(val, coeffs, s1.trunc)
    rep = expansion_report(expand_at_infinity(u0, n), bad, qp, curve)
    assert not rep["self_adjoint_b1"]
    assert not rep["all"]


# -- the truncations at infinity against the padded-budget reference --------

def truncate(s, trunc):
    return LaurentSeries(s.val, s.coeffs, min(s.trunc, trunc))


def padded_expand_w(curve, trunc):
    """expand_w with F expanded 4(2g+1) orders past the request."""
    d = 2 * curve.g + 1
    f_series = series_from_poly(curve.as_poly(), trunc + 2 * d)
    unit = f_series.shift(2 * d)
    return truncate(unit.sqrt().shift(-d), trunc)


def padded_expand_at_infinity(u, order):
    """expand_at_infinity with every factor expanded to one budget padded
    by the degrees involved, then truncated."""
    g = u.ctx.curve.g
    dz = max(u.a.degree("z"), u.b.degree("z"), 0)
    budget = order + 2 * dz + (2 * g + 1) + 2 * g * u.m + 6
    out = series_from_poly(u.a, budget)
    if not u.b.is_zero():
        w_s = padded_expand_w(u.ctx.curve, budget)
        out = out + series_from_poly(u.b, budget) * w_s
    if u.m:
        q_s = series_from_poly(u.ctx.q.q, budget)
        out = out * q_s.inverse() ** u.m
    assert out.trunc >= order
    return truncate(out, order)


def series_parts(s):
    return s.val, s.trunc, s.coeffs


NUMERIC = {"a0": Rat(2), "a1": Rat(3, 4), "a2": Rat(3), "a3": Rat(1)}


@pytest.mark.parametrize("g,params", [(1, NUMERIC), (2, NUMERIC),
                                      (3, NUMERIC), (4, NUMERIC),
                                      (1, None), (2, None)],
                         ids=["g1", "g2", "g3", "g4", "g1-sym", "g2-sym"])
def test_expansions_match_padded_budget(g, params):
    _, qp, curve = make_ctx(g, params)
    u0, u1 = reduction_coefficients(qp, curve)
    funs = {"u0": u0, "u1": u1, "u0*u1": u0 * u1, "u0-u0": u0 - u0}
    assert funs["u0*u1"].m == 2 and funs["u0-u0"].m == 1
    for order in range(1, 2 * g + 11):
        for name, u in funs.items():
            assert (series_parts(expand_at_infinity(u, order))
                    == series_parts(padded_expand_at_infinity(u, order))), \
                (name, order)
    # below T = -4(2g+1) + 1 the padded expand_w has no term left to take
    # the square root of
    for trunc in range(-4 * (2 * g + 1) + 1, 2 * g + 11):
        assert (series_parts(expand_w(curve, trunc))
                == series_parts(padded_expand_w(curve, trunc))), trunc
