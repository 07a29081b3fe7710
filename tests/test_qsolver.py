"""The Q recursion, its ODE gate, and the spectral polynomial extraction."""

import hashlib
import json

import pytest
import sympy

from weylpair.curve import ParamError
from weylpair.poly import Poly, Rat
from weylpair.qsolver import (QPolynomial, XDependenceError, build_deltas,
                              build_q, curve_identity_residual, curve_rhs, derived_ode_residual, extract_curve,
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


# sha256 of the deltas, Q, V and W as JSON, recorded before the recursion
# was rewritten without division: every byte of the construction is kept
TUPLE = {"a0": Rat(-7, 3), "a1": Rat(5, 4), "a2": Rat(-9, 2), "a3": Rat(7, 3)}
Q_PINS = [
    (1, None,
     "95dcda8f6008da3daa2b1d6f87e3326b290b68289244240e8cb432e0388c197f"),
    (2, None,
     "41766a27037d164db910103ddba0924920342d2dba25257191dd2f044610acb1"),
    (3, None,
     "546f7d6dfcb83f1cd394a7f7f7d3432bceb3bffcf6c00e5181e2a257ced2d423"),
    (4, None,
     "4f624669492c39f36a810f7d701fecff3a725b51437c1ff89734bbc38201ad77"),
    (5, None,
     "371983e29bae09dd90746701ef79592fd3658241c15a331cb8ee44088f1981c9"),
    (6, None,
     "dc57aea7a80688bf2163dc8c5615fccb9d7e7fd434e2120c8775b6aa8995ac54"),
    (7, None,
     "39389a4898529e0e5546dcfcd83e187175976f4478e7044a752e437be1298e5a"),
    (8, None,
     "045e9f5532799f58aae8b9814e01c10e09767084cc70c86b9e1f0d4fc15e2a1c"),
    (2, SLICE,
     "9051dfd0d33eb95af1d77158ad70e773a2892aabe9e2a237d1360d03a4afb568"),
    (3, SLICE,
     "2c55a3c0bdf58a6dd952040744df861e52543e2a6a2be97e81664d1b58084113"),
    (5, TUPLE,
     "29d8943ad2ea3c171f2be9a798adaaed5babfe353e8aaf9fba629790c716fe3a"),
    (12, TUPLE,
     "c9a49543f0f079dc19762a742f266ebe22403b9fdef3c75c386591f5f26f64f8"),
]


@pytest.mark.parametrize("g,params,digest", Q_PINS,
                         ids=[f"g{g}-symbolic" for g in range(1, 9)]
                         + ["g2-slice", "g3-slice", "g5-rat", "g12-rat"])
def test_q_construction_pinned(g, params, digest):
    qp = build_q(g, params)
    text = json.dumps([[d.to_json() for d in qp.deltas], qp.q.to_json(),
                       qp.v.to_json(), qp.w.to_json()], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("params", [None, TUPLE], ids=["symbolic", "rat"])
def test_q_lead_coefficient_closed_form(params):
    # only 2z delta_{s+1} raises the z-degree, so [z^g]delta_0 is a
    # nonzero rational and build_q's monic rescaling always exists
    for g in range(1, 13):
        lead = Rat(1)
        for s in range(g):
            lead *= Rat(2 * (s + 1), (g - s) * (s + g + 1) * (2 * s + 1))
        assert build_deltas(g, params)[0].coeff_in("z", g) == Poly.rat(lead)


def test_recursion_is_the_ode_for_every_genus():
    # the x^s coefficient of the parameter form of the ODE (as in
    # derived_ode_residual) on Q = sum_t delta_t x^t, by the rule
    # [x^s](x^k Q^(n)) = delta_{s-k+n} (s-k+n)!/(s-k)!, a falling factorial
    # and so a polynomial in s; q[n] stands for Q^(n), d[j] for delta_{s+j}
    # and e[j] for eps_{s+j}
    g, s, b0, b1, b2, b3, sz, sx = sympy.symbols("g s a0 a1 a2 a3 z x")
    q = sympy.symbols("q0:6")
    d = sympy.symbols("d0:6")
    e = sympy.symbols("e0:6")
    v = b3 * sx**3 + b2 * sx**2 + b1 * sx + b0
    ode = (q[5] + 4 * v * q[3]
           + 4 * (b2 - (g**2 + g - 3) * b3 * sx + sz) * q[1]
           + 6 * v.diff(sx) * q[2] - 2 * g * (g + 1) * b3 * q[0])
    coeff = 0
    for (k, *ns), c in sympy.Poly(ode, sx, *q).terms():
        n = ns.index(1)
        coeff += c * d[n - k] * sympy.expand_func(sympy.ff(s - k + n, n))
    # R_s of build_deltas; A_s = -2 a3 c_s is the coefficient of delta_s
    r = (2 * (b2 * (s + 1)**2 + sz) * d[1]
         + b1 * (s + 2) * (2 * s + 3) * d[2]
         + 2 * b0 * (s + 2) * (s + 3) * d[3]
         + (s + 2) * (s + 3) * (s + 4) * (s + 5) * d[5] / 2)
    c_s = (g - s) * (s + g + 1) * (2 * s + 1)
    assert sympy.expand(coeff - (2 * (s + 1) * r - 2 * b3 * c_s * d[0])) == 0
    # delta_{s+j} = a3^s a3^j eps_{s+j} gives R_s = a3^s a3 R'_s, so
    # delta_s = (s+1) R_s / (a3 c_s) is a3^s eps_s with eps_s =
    # (s+1) R'_s / c_s, a step that divides by nothing; p stands for a3^s
    r_eps = (2 * (b2 * (s + 1)**2 + sz) * e[1]
             + b1 * b3 * (s + 2) * (2 * s + 3) * e[2]
             + 2 * b0 * b3**2 * (s + 2) * (s + 3) * e[3]
             + b3**4 * (s + 2) * (s + 3) * (s + 4) * (s + 5) * e[5] / 2)
    p = sympy.Symbol("p")
    r_sub = r.subs({d[j]: p * b3**j * e[j] for j in range(6)})
    assert sympy.expand(r_sub - p * b3 * r_eps) == 0


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


def five_product_rhs(q: Poly, v: Poly, w: Poly) -> Poly:
    """The right-hand side of (*) term by term, with its five products of
    Q-sized factors: curve_rhs as it was before the regrouping, kept here
    as the reference."""
    d = [q]
    for _ in range(4):
        d.append(d[-1].diff("x"))
    rhs = 4 * (z - w) * d[0] ** 2
    rhs = rhs - 4 * v * d[1] ** 2
    rhs = rhs + d[2] ** 2
    rhs = rhs - 2 * d[1] * d[3]
    rhs = rhs + 2 * d[0] * (2 * v.diff("x") * d[1] + 4 * v * d[2] + d[4])
    return rhs


@pytest.mark.parametrize("variables", [("x", "z"), ("x", "z", "a0", "a3")],
                         ids=["numeric", "symbolic"])
def test_curve_rhs_matches_five_products(variables, rng):
    # random Q, V and W that solve nothing, so the right-hand side keeps
    # the x-dependence extract_curve must detect, plus the real Q at g = 3
    x_dependent = 0
    for _ in range(15):
        q = random_poly(rng, vars=variables, max_exp=5, n_terms=8)
        v = random_poly(rng, vars=[u for u in variables if u != "z"],
                        max_exp=3, n_terms=4)
        w = random_poly(rng, vars=[u for u in variables if u != "z"],
                        max_exp=2, n_terms=3)
        rhs = curve_rhs(q, v, w)
        assert rhs == five_product_rhs(q, v, w)
        x_dependent += rhs.degree("x") > 0
    assert x_dependent >= 12
    params = None if len(variables) > 2 else random_param_tuple(rng)
    qp = build_q(3, params)
    assert curve_rhs(qp.q, qp.v, qp.w) == five_product_rhs(qp.q, qp.v, qp.w)


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


def ode_in_parameters(qp: QPolynomial) -> Poly:
    """The fifth-order ODE of Q written with a2, a3 and g in place of V''
    and W:  Q^(5) + 4V Q^(3) + 4(a2 - (g^2+g-3) a3 x + z) Q'
    + 6V' Q'' - 2g(g+1) a3 Q."""
    g = qp.g
    _, _, b2, b3 = qp.alphas
    d = [qp.q]
    for _ in range(5):
        d.append(d[-1].diff("x"))
    return (d[5] + 4 * qp.v * d[3]
            + 4 * (b2 - Rat(g * g + g - 3) * b3 * x + z) * d[1]
            + 6 * qp.v.diff("x") * d[2]
            - Rat(2 * g * (g + 1)) * b3 * d[0])


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_ode_residual_matches_parameter_form(g, rng):
    # q_ode_residual is written with V'' and W; on the potentials of the
    # construction it is the same operator as the form in a2, a3 and g,
    # on the constructed Q and on perturbed ones, symbolic and numeric
    for qp in (build_q(g), build_q(g, random_param_tuple(rng))):
        for bump in (Poly.zero(), x, x**3 * z, a1 * x**2):
            moved = qp._replace(q=qp.q + bump)
            assert q_ode_residual(moved) == ode_in_parameters(moved)


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
        # and (*) reduced mod Q: with P = Qxx^2 - 2QxQxxx - 4F - 4VQx^2
        # for an x-free F, P + Q*(...) = rhs(*) - 4F, so P = -Q*(...)
        # exactly when F = rhs(*)/4
        f = random_poly(rng, vars=("z",), max_exp=4, n_terms=3)
        d = [q]
        for _ in range(4):
            d.append(d[-1].diff("x"))
        p = d[2] ** 2 - 2 * d[1] * d[3] - 4 * f - 4 * v * d[1] ** 2
        cofactor = (4 * (z - w) * q + 4 * v.diff("x") * d[1] + 8 * v * d[2]
                    + 2 * d[4])
        assert p + q * cofactor == curve_rhs(q, v, w) - 4 * f


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
        symbolic = build_q(g)
        assert direct.q == symbolic.q.eval(params)
        assert direct.v == symbolic.v.eval(params)
        assert direct.w == symbolic.w.eval(params)
        assert len(direct.deltas) == len(symbolic.deltas) == g + 1
        for d_num, d_sym in zip(direct.deltas, symbolic.deltas):
            assert d_num == d_sym.eval(params)
