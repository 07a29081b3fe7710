"""The Q recursion, its ODE gate, and the spectral polynomial extraction."""

import pytest

from weylpair.curve import ParamError
from weylpair.poly import Poly, Rat
from weylpair.qsolver import (QPolynomial, XDependenceError, assemble_q,
                              build_deltas, build_q, curve_identity_residual,
                              curve_rhs, derived_ode_residual, extract_curve,
                              q_ode_residual, trace_identity_residual)

from conftest import derived_ode_reading, random_param_tuple, random_poly

x = Poly.var("x")
z = Poly.var("z")
a0 = Poly.var("a0")
a1 = Poly.var("a1")
a2 = Poly.var("a2")
a3 = Poly.var("a3")

SLICE = {"a1": 0, "a2": 0, "a3": 1}


def test_deltas_genus1():
    d = build_deltas(1)
    assert d[1] == a3
    assert d[0] == a2 + z


def test_deltas_genus2():
    d = build_deltas(2)
    assert d[2] == a3**2
    assert d[1] == a3 * (4 * a2 + z) * Poly.rat(Rat(1, 3))
    assert d[0] == (a2 + z) * (4 * a2 + z) * Poly.rat(Rat(1, 9)) + a1 * a3


def test_deltas_reject_bad_genus():
    with pytest.raises(ParamError):
        build_deltas(0)


def test_assemble_genus1():
    qp = build_q(1)
    assert qp.q == z + a3 * x + a2


def test_assemble_genus2_slice():
    qp = build_q(2, SLICE)
    assert qp.q == z**2 + 3 * x * z + 9 * x**2


def test_q_monic_in_z():
    for g in range(1, 6):
        qp = build_q(g)
        assert qp.q.coeff_in("z", g) == Poly.one()


def test_q_degrees():
    for g in range(1, 6):
        qp = build_q(g)
        assert qp.q.degree("x") == g
        assert qp.q.degree("z") == g
        for s, d in enumerate(qp.deltas):
            assert d.degree("z") == g - s


def test_ode_residual_zero_symbolic():
    for g in range(1, 5):
        assert q_ode_residual(build_q(g)).is_zero()


def test_ode_residual_zero_numeric(rng):
    for g in range(1, 5):
        qp = build_q(g, random_param_tuple(rng))
        assert q_ode_residual(qp).is_zero()


def test_ode_negative_control():
    qp = build_q(1)
    bad = QPolynomial(g=qp.g, deltas=qp.deltas, q=qp.q + x, v=qp.v, w=qp.w,
                      alphas=qp.alphas)
    assert not q_ode_residual(bad).is_zero()


def test_extract_genus1_slice():
    curve = extract_curve(build_q(1, SLICE))
    assert curve.as_poly() == z**3 - a0


def test_extract_genus2_slice():
    curve = extract_curve(build_q(2, SLICE))
    assert curve.as_poly() == z**5 + 27 * a0 * z**2 + 81


def test_extract_genus3_slice():
    curve = extract_curve(build_q(3, SLICE))
    assert curve.as_poly() == (z**7 + 594 * a0 * z**4 - 2025 * z**2
                               + 91125 * a0**2 * z)


def test_extract_monic_and_x_free_fully_symbolic():
    for g in range(1, 5):
        curve = extract_curve(build_q(g))
        f = curve.as_poly()
        assert f.degree("x") == 0
        assert f.degree("z") == 2 * g + 1
        assert f.coeff_in("z", 2 * g + 1) == Poly.one()


def test_extract_rejects_corrupted_q():
    qp = build_q(2, SLICE)
    bad = QPolynomial(g=qp.g, deltas=qp.deltas, q=qp.q + x, v=qp.v, w=qp.w,
                      alphas=qp.alphas)
    with pytest.raises(XDependenceError):
        extract_curve(bad)


def test_curve_identity_residual():
    qp = build_q(2, SLICE)
    curve = extract_curve(qp)
    assert curve_identity_residual(qp, curve).is_zero()
    # perturbing W breaks it
    bad = QPolynomial(g=qp.g, deltas=qp.deltas, q=qp.q, v=qp.v,
                      w=qp.w + 1, alphas=qp.alphas)
    assert not curve_identity_residual(bad, curve).is_zero()


def test_curve_identity_genus1():
    qp = build_q(1)
    assert curve_identity_residual(qp, extract_curve(qp)).is_zero()


def test_derived_ode_residual_zero():
    assert derived_ode_residual(build_q(1)).is_zero()
    assert derived_ode_residual(build_q(2, SLICE)).is_zero()
    assert derived_ode_residual(build_q(3)).is_zero()


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_derived_ode_is_q_ode_operator(g):
    # on any Q, not only the constructed one, the two residuals agree: the
    # derived_ode check is the q_ode check written with V'' and W
    qp = build_q(g)
    for bump in (Poly.zero(), x, x**3 * z, a1 * x**2):
        moved = QPolynomial(g=g, deltas=qp.deltas, q=qp.q + bump, v=qp.v,
                            w=qp.w, alphas=qp.alphas)
        res = q_ode_residual(moved)
        assert derived_ode_residual(moved) == res
        assert res.is_zero() == bump.is_zero()


def test_derived_ode_cube_reading_fails():
    # disambiguation: the product with Q^3 instead of the third derivative
    # is dimensionally inconsistent and does not vanish
    assert not derived_ode_reading(build_q(1),
                                   third_term="cube").is_zero()
    assert not derived_ode_reading(build_q(2, SLICE),
                                   third_term="cube").is_zero()


def test_derived_ode_flipped_curvature_sign_fails():
    # the V'' term enters with a plus sign; the flipped sign does not vanish
    qp = build_q(1)
    res = derived_ode_reading(qp, curvature_sign=-1)
    assert not res.is_zero()
    # the gap between the two sign readings is exactly 4 V'' Q'
    vxx = qp.v.diff("x").diff("x")
    assert derived_ode_residual(qp) - res == 4 * vxx * qp.q.diff("x")


def companion_identity_gap(q: Poly, v: Poly, w: Poly) -> Poly:
    """d/dx of curve_rhs minus 2*Q*(companion identity), for arbitrary
    polynomials Q, V, W, with the library's companion expression."""
    qp = QPolynomial(g=0, deltas=(), q=q, v=v, w=w, alphas=())
    return curve_rhs(q, v, w).diff("x") - 2 * q * derived_ode_residual(qp)


def test_companion_identity_is_pure_algebra(rng):
    # d/dx of the curve identity equals 2Q times the companion identity for
    # arbitrary Q, V, W, independent of any equation holding
    for _ in range(30):
        q = random_poly(rng, vars=("x", "z"), max_exp=3, n_terms=5)
        v = random_poly(rng, vars=("x",), max_exp=3, n_terms=3)
        w = random_poly(rng, vars=("x",), max_exp=2, n_terms=3)
        assert companion_identity_gap(q, v, w).is_zero()


def test_trace_identity():
    for g in range(1, 5):
        qp = build_q(g)
        curve = extract_curve(qp)
        assert trace_identity_residual(qp, curve).is_zero()


def test_a3_zero_rejected():
    with pytest.raises(ParamError):
        build_q(1, {"a3": 0})


def test_numeric_equals_symbolic_specialization(rng):
    for g in (1, 2, 3):
        params = random_param_tuple(rng)
        direct = build_q(g, params)
        specialized = build_q(g).eval_params(params)
        assert direct.q == specialized.q
        assert direct.v == specialized.v
        assert direct.w == specialized.w
