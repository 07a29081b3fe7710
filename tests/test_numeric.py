"""Root-level checks: the exact checks against the float pole data they
replaced.

The reference for the pole coupling is the float computation the library
used before the checks became exact (_pole_data below), at the roots that
numpy.roots finds for the certified slice Q(x0, z); its v0' is in turn
checked against a finite difference (fd_v0_prime)."""

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from weylpair.curve import ParamError, SpectralCurve
from weylpair.numeric import (DegenerateDerivativeError, MultipleRootError,
                              _x_slices, roots_z, verify_krichever,
                              verify_potential_recovery)
from weylpair.poly import Poly, Rat, divides, shares_root
from weylpair.qsolver import (DegreeError, QPolynomial, XDependenceError,
                              _x_derivs, build_q, derived_ode_residual,
                              extract_curve)

from conftest import random_param_tuple

NUMERIC = {"a0": 1, "a1": 0, "a2": 0, "a3": 1}


def _complex_coeffs(p: Poly) -> list[complex]:
    """Dense complex coefficients of a polynomial in z alone, lowest
    degree first."""
    out = []
    for c in p.coeffs_in("z"):
        if not c.is_constant():
            raise ValueError(f"polynomial is not univariate in z: {p}")
        out.append(complex(c.const_value()))
    return out


def _horner(coeffs: list[complex], t: complex) -> complex:
    acc = complex(0.0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _roots(qp, x0) -> list[complex]:
    """The g roots of the certified slice Q(x0, z), by numpy.roots."""
    coeffs = _complex_coeffs(roots_z(qp, None, x0))
    return [complex(r) for r in np.roots(coeffs[::-1])]


def test_linear_root_genus1():
    # Q = z + x: the root of Q(2, z) is -2, and gamma' = -Qx/Qz = -1
    qp = build_q(1, NUMERIC)
    z = Poly.var("z")
    assert qp.q == z + Poly.var("x")
    assert roots_z(qp, None, 2) == z + 2
    assert _roots(qp, 2) == [complex(-2)]


def test_quadratic_roots_genus2():
    # Q(1, z) = z^2 + 3z + 9, roots (-3 +- 3i sqrt(3)) / 2
    qp = build_q(2, NUMERIC)
    z = Poly.var("z")
    assert roots_z(qp, None, 1) == z**2 + 3 * z + 9
    expect = sorted([complex(-1.5, 3 * math.sqrt(3) / 2),
                     complex(-1.5, -3 * math.sqrt(3) / 2)],
                    key=lambda c: c.imag)
    got = sorted(_roots(qp, 1), key=lambda c: c.imag)
    assert all(abs(a - b) < 1e-10 for a, b in zip(got, expect))


def test_multiple_root_detection():
    # force a collision: at x0 = 0 with a0 = 0 the slice Q(0, z) = z^g
    qp = build_q(2, {"a0": 0, "a1": 0, "a2": 0, "a3": 1})
    with pytest.raises(MultipleRootError):
        roots_z(qp, None, 0)


def test_potential_recovery():
    # for g = 1, Q(x0, .) is linear and Qx(x0, .) a constant
    assert verify_potential_recovery(build_q(1, NUMERIC), None, 2)["pass"]
    assert verify_potential_recovery(build_q(2, NUMERIC), None, 1)["pass"]
    qp3 = build_q(3, NUMERIC)
    for i in range(5):
        rep = verify_potential_recovery(qp3, None, Rat(2 * i + 1, 2))
        assert rep["pass"], rep


def test_potential_recovery_symbolic_binding():
    # the checks bind nothing: a symbolic Q raises ParamError in each, with
    # or without a params argument, which none of them reads
    qp = build_q(2)
    curve = extract_curve(build_q(2, NUMERIC))
    for params in (None, NUMERIC):
        with pytest.raises(ParamError, match="left unbound"):
            roots_z(qp, params, 1)
        with pytest.raises(ParamError, match="left unbound"):
            verify_potential_recovery(qp, params, 1)
        with pytest.raises(ParamError, match="left unbound"):
            verify_krichever(qp, curve, params, 1)


def test_krichever_unbound_curve_fails_closed():
    # a numeric Q with the symbolic curve of build_q(2): the resultants and
    # the division would run over Q[a0..a3] and read as a plain FAIL
    qp = build_q(2, NUMERIC)
    with pytest.raises(ParamError, match="left unbound"):
        verify_krichever(qp, extract_curve(build_q(2)), None, 1)


def test_krichever_relation_genus1():
    qp = build_q(1, NUMERIC)
    curve = extract_curve(qp)
    for x0 in (Rat(1, 2), 1, 2):
        rep = verify_krichever(qp, curve, None, x0)
        assert rep["pass"], rep
        assert rep["simple_poles"] == 1


def test_krichever_relation_genus2_both_branches():
    # the exact check covers both sheets at once; the float reference
    # agrees at every pole on each of them
    qp = build_q(2, NUMERIC)
    curve = extract_curve(qp)
    rep = verify_krichever(qp, curve, None, 1)
    assert rep["pass"] and rep["simple_poles"] == 2
    poles = _poles(qp, curve, 1)
    assert len(poles) == 4  # 2 poles x 2 branches
    for pd in poles:
        assert _coupling_residual(pd) < 1e-10


def test_krichever_residue_structure():
    # the residue of u1 at each pole is -gamma' = Qx/Qz
    qp = build_q(2, NUMERIC)
    curve = extract_curve(qp)
    x0 = Rat(3, 2)
    qx = _complex_coeffs(qp.q.diff("x").eval({"x": x0}))
    qz = _complex_coeffs(roots_z(qp, None, x0).diff("z"))
    gammas = _roots(qp, x0)
    for i, pd in enumerate(_poles(qp, curve, x0)):
        gamma = gammas[i // 2]
        assert abs(pd.c1 - _horner(qx, gamma) / _horner(qz, gamma)) < 1e-10


def test_krichever_random_tuples(rng):
    for g in (2, 3):
        params = random_param_tuple(rng)
        qp = build_q(g, params)
        curve = extract_curve(qp)
        rep = verify_krichever(qp, curve, None, Rat(5, 4))
        assert rep["pass"], (g, params, rep)


@dataclass
class PoleData:
    """Local data of the reduction coefficients at one pole and branch:
    residues c0, c1, regular parts d0, d1, the ratio v0 = c0/c1, and its
    total x-derivative along the pole."""

    gamma: complex
    branch: int
    c0: complex
    c1: complex
    d0: complex
    d1: complex
    v0: complex
    v0_prime: complex


def _pole_data(jet: dict[str, list[complex]], v_x0: float, gamma: complex,
               branch: int) -> PoleData:
    """Residue and regular part of u0 and u1 at z = gamma on one branch,
    and v0' along the moving pole.

    u1 = Qx/Q and u0 = (-Qxx/2 + w)/Q - V have simple poles at the roots
    of Q; with Q = (z - gamma) * Qt the expansion of N/Q is

        N(gamma)/Qt(gamma) / (z - gamma)
        + [N'(gamma)/Qt(gamma) - N(gamma) Qt'(gamma)/Qt(gamma)^2] + ...

    where Qt(gamma) = Qz(gamma) and Qt'(gamma) = Qzz(gamma)/2, and
    w(z) = branch * sqrt(F(z)) is analytic there with w_z = F'/(2w).

    Qz cancels in v0 = c0/c1 = N0/N1 with N0 = -Qxx/2 + w and N1 = Qx, so
    v0 is a function of (x, gamma(x)) and gamma' = -Qx/Qz gives
    v0' = (N0' N1 - N0 N1') / N1^2 with the total derivatives
    N0' = -Qxxx/2 + (-Qxxz/2 + w_z) gamma' and N1' = Qxx + Qxz gamma'.
    """
    at = {k: _horner(cs, gamma) for k, cs in jet.items()}
    qt = at["qz"]
    qtp = at["qzz"] / 2.0
    w = branch * cmath.sqrt(at["f"])
    wz = at["fz"] / (2 * w)

    n1, n1z = at["qx"], at["qxz"]
    c1 = n1 / qt
    d1 = n1z / qt - n1 * qtp / (qt * qt)

    n0 = -at["qxx"] / 2.0 + w
    n0z = -at["qxxz"] / 2.0 + wz
    c0 = n0 / qt
    d0 = n0z / qt - n0 * qtp / (qt * qt) - v_x0

    gamma_prime = -n1 / qt
    n0p = -at["qxxx"] / 2.0 + n0z * gamma_prime
    n1p = at["qxx"] + n1z * gamma_prime
    return PoleData(gamma=gamma, branch=branch, c0=c0, c1=c1, d0=d0, d1=d1,
                    v0=c0 / c1, v0_prime=(n0p * n1 - n0 * n1p) / (n1 * n1))


def _jet(qp, curve, x0) -> tuple[dict[str, list[complex]], float]:
    """Complex coefficients of the derivatives of Q (at x0) and F that
    _pole_data reads, and V(x0)."""
    q, qx, qxx, qxxx = _x_slices(qp, Rat(x0), 3)
    f = curve.as_poly()
    polys = {"qz": q.diff("z"), "qzz": q.diff("z").diff("z"),
             "qx": qx, "qxz": qx.diff("z"), "qxx": qxx,
             "qxxz": qxx.diff("z"), "qxxx": qxxx, "f": f, "fz": f.diff("z")}
    jet = {k: _complex_coeffs(p) for k, p in polys.items()}
    return jet, float(qp.v.eval({"x": Rat(x0)}).const_value())


def _poles(qp, curve, x0) -> list[PoleData]:
    """PoleData at every root of Q(x0, .) in _roots' order, branch +1
    then -1 at each root."""
    jet, v_x0 = _jet(qp, curve, x0)
    return [_pole_data(jet, v_x0, gamma, branch)
            for gamma in _roots(qp, x0) for branch in (1, -1)]


def _raw_residual(pd: PoleData) -> complex:
    return pd.d0 - (pd.v0 ** 2 + pd.v0 * pd.d1 - pd.v0_prime)


def _coupling_residual(pd: PoleData) -> float:
    """|d0 - (v0^2 + v0 d1 - v0')|, relative to its largest term."""
    scale = max(1.0, abs(pd.d0), abs(pd.v0) ** 2, abs(pd.v0 * pd.d1),
                abs(pd.v0_prime))
    return abs(_raw_residual(pd)) / scale


# Measured: at most 7e-16 over g = 1..4, 12 points each, both branches.
IDENTITY_BOUND = 1e-12


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_coupling_residual_is_p_over_qx_squared(g):
    # off the roots, where neither side vanishes, the float pole coupling
    # residual is P(gamma) / (4 Qx(gamma)^2) with
    # P = Qxx^2 - 2 Qx Qxxx - 4F - 4V Qx^2 on either sheet: the exact
    # checks test exactly this quantity's vanishing at every root
    rng = random.Random(400 + g)
    params = {"a0": Rat(2), "a1": Rat(3, 4), "a2": Rat(3), "a3": Rat(1)}
    qp = build_q(g, params)
    curve = extract_curve(qp)
    for x0 in (Rat(1, 2), Rat(3, 2), Rat(-5, 3)):
        jet, v_x0 = _jet(qp, curve, x0)
        for _ in range(4):
            gamma = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            at = {k: _horner(cs, gamma) for k, cs in jet.items()}
            p = (at["qxx"] ** 2 - 2 * at["qx"] * at["qxxx"] - 4 * at["f"]
                 - 4 * v_x0 * at["qx"] ** 2)
            want = p / (4 * at["qx"] ** 2)
            for branch in (1, -1):
                got = _raw_residual(_pole_data(jet, v_x0, gamma, branch))
                assert abs(got - want) / abs(want) < IDENTITY_BOUND


def _match_roots(base: list[complex], moved: list[complex]) -> list[complex]:
    """Nearest-neighbour pairing of the moved roots to the base roots."""
    used = [False] * len(moved)
    out = []
    for gm in base:
        best, best_d = min(((j, abs(hm - gm)) for j, hm in enumerate(moved)
                            if not used[j]), key=lambda t: t[1])
        spacing = min((abs(gm - o) for o in base if o is not gm),
                      default=float("inf"))
        assert best_d <= 0.45 * spacing, "ambiguous root pairing"
        used[best] = True
        out.append(moved[best])
    return out


def fd_v0_prime(qp, curve, x0, h=Rat(1, 4096)) -> list[complex]:
    """v0' at every pole and branch of Q(x0, .) by a central difference
    with one Richardson step (h and h/2), in _poles' order.

    The roots at x0 +- h and x0 +- h/2 are paired with those at x0 by
    nearest neighbour, the sheet of w = +-sqrt(F) by sign continuity, and
    v0 = (-Qxx/2 + w)/Qx is evaluated directly at each shifted pole.
    The float pole coupling's v0' as it was before the closed form, kept
    here as the reference for _pole_data.
    """
    x0 = Rat(x0)
    f = _complex_coeffs(curve.as_poly())
    qx = qp.q.diff("x")
    qxx = qx.diff("x")
    base = _roots(qp, x0)
    w_base = [cmath.sqrt(_horner(f, gm)) for gm in base]
    offsets = [-h, -h / 2, h / 2, h]
    v0 = {}
    for dx in offsets:
        cx = _complex_coeffs(qx.eval({"x": x0 + dx}))
        cxx = _complex_coeffs(qxx.eval({"x": x0 + dx}))
        moved = _match_roots(base, _roots(qp, x0 + dx))
        for i, gm in enumerate(moved):
            w = cmath.sqrt(_horner(f, gm))
            if abs(w - w_base[i]) > abs(w + w_base[i]):
                w = -w
            for branch in (1, -1):
                v0[dx, i, branch] = ((-_horner(cxx, gm) / 2 + branch * w)
                                     / _horner(cx, gm))
    hf = float(h)
    out = []
    for i in range(len(base)):
        for branch in (1, -1):
            d_h = (v0[h, i, branch] - v0[-h, i, branch]) / (2 * hf)
            d_h2 = (v0[h / 2, i, branch] - v0[-h / 2, i, branch]) / hf
            out.append((4 * d_h2 - d_h) / 3)
    return out


# Measured agreement is 7e-12 at most (g = 2, 3; x0 = 1/2, 3/2, 5/2), the
# roundoff of the difference quotient at h = 1/4096.
V0_PRIME_FD_BOUND = 1e-9


@pytest.mark.parametrize("g", [2, 3])
def test_v0_prime_matches_finite_difference(g):
    qp = build_q(g, NUMERIC)
    curve = extract_curve(qp)
    for x0 in (Rat(1, 2), Rat(3, 2), Rat(5, 2)):
        poles = _poles(qp, curve, x0)
        want = fd_v0_prime(qp, curve, x0)
        assert len(poles) == len(want) == 2 * g
        for pd, fd in zip(poles, want):
            rel = abs(pd.v0_prime - fd) / max(1.0, abs(fd))
            assert rel < V0_PRIME_FD_BOUND


# The finite difference misses the g = 4 coupling here by 1.7e-4 (its
# truncation error); the exact check and the closed-form reference meet it.
def test_krichever_closed_form_genus4():
    params = {"a0": Rat(3, 4), "a1": Rat(3, 4), "a2": Rat(-5, 3),
              "a3": Rat(-1, 4)}
    qp = build_q(4, params)
    curve = extract_curve(qp)
    x0 = Rat(3, 2)
    rep = verify_krichever(qp, curve, None, x0)
    assert rep["pass"], rep
    for pd in _poles(qp, curve, x0):
        assert _coupling_residual(pd) < 1e-6


# Seen failing the float checks (Durand-Kerner root accuracy): recovery at
# g=6, x0=1/2 and at g=8, x0=1/2 and 3/2; the coupling at g=8, x0=1/2.
FALSE_FAIL_TUPLE = {"a0": Rat(2), "a1": Rat(3, 4), "a2": Rat(3), "a3": Rat(1)}


@pytest.mark.parametrize("g", [6, 8])
def test_known_float_false_fails_pass_exactly(g):
    qp = build_q(g, FALSE_FAIL_TUPLE)
    curve = extract_curve(qp)
    for x0 in (Rat(1, 2), Rat(3, 2)):
        assert verify_potential_recovery(qp, None, x0)["pass"]
        rep = verify_krichever(qp, curve, None, x0)
        assert rep["pass"] and rep["simple_poles"] == g


# The root layer once iterated in complex doubles, capped at 500 steps;
# on this tuple it failed root_distinctness from g = 15 on (root residual
# 2.2e+28 at g = 15, x0 = 1/2).  The discriminant certifies every slice.
@pytest.mark.parametrize("g, x0", [(15, "1/2"), (16, "1/2"), (20, "1/2"),
                                   (20, "3/2")])
def test_roots_z_certifies_high_genus(g, x0):
    qp = build_q(g, FALSE_FAIL_TUPLE)
    x0 = Rat(x0)
    q = roots_z(qp, None, x0)
    assert q == qp.q.eval({"x": x0})
    assert q.degree("z") == g


# At g <= 2, -4 Qx^2 + 8 Q Qxx is x-free, so (Q, V + 1) satisfies (*) with
# a shifted curve and V + 1 is recovered from it: no control there.
@pytest.mark.parametrize("g", [3, 6, 8])
def test_exact_checks_negative_controls(g):
    # both fail without raising: F with c0 + 1, and V + 1
    qp = build_q(g, FALSE_FAIL_TUPLE)
    curve = extract_curve(qp)
    coeffs = list(curve.coeffs)
    coeffs[0] = coeffs[0] + 1
    bad_curve = SpectralCurve(g=g, coeffs=tuple(coeffs))
    bad_v = QPolynomial(g=g, deltas=qp.deltas, q=qp.q, v=qp.v + 1, w=qp.w)
    for x0 in (Rat(1, 2), Rat(3, 2)):
        assert verify_krichever(qp, bad_curve, None, x0)["pass"] is False
        assert verify_potential_recovery(bad_v, None, x0)["pass"] is False
        assert verify_krichever(bad_v, curve, None, x0)["pass"] is False


def _extracts(qp) -> bool:
    try:
        extract_curve(qp)
    except (XDependenceError, DegreeError):
        return False
    return True


def _has_curve_shape(qp) -> bool:
    """The second oracle: (*) gives an x-free F, monic of degree 2g+1,
    exactly when deg_z Q = g, lc_z(Q)^2 = 1 and E = 0, since d/dx rhs(*)
    = 2Q E and only 4z Q^2 reaches z^(2 deg_z Q + 1), where rhs(*) has the
    coefficient 4 lc_z(Q)^2."""
    lead = qp.q.coeff_in("z", qp.g)
    return (qp.q.degree("z") == qp.g and lead * lead == 1
            and derived_ode_residual(qp).is_zero())


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_potential_recovery_decides_extract_curve(g):
    # recovery passes exactly when extract_curve succeeds, which in turn
    # is exactly deg_z Q = g, lc_z(Q)^2 = 1 and E = 0, on the built V and
    # W and these Q
    qp = build_q(g, FALSE_FAIL_TUPLE)
    x, z = Poly.var("x"), Poly.var("z")
    q = qp.q
    variants = (q, -q, 2 * q, q * Rat(1, 2), q + 1, q + x,
                q + x * z**(g - 1), q + z**(g - 1), z * q, Poly.zero())
    verdicts = []
    for v in variants:
        bent = qp._replace(q=v)
        rep = verify_potential_recovery(bent, None, Rat(1, 2))
        assert rep["pass"] == _extracts(bent) == _has_curve_shape(bent), v
        verdicts.append(rep["pass"])
    # -Q passes (lc^2 = 1); z*Q has E = 0 but [z^g](z*Q) = [z^(g-1)]Q
    assert verdicts[:2] == [True, True] and not any(verdicts[2:])
    # with V = W = 0 an x-free Q has E = 0, so only the degree decides
    flat = qp._replace(q=z**(g + 1) + z**g, v=Poly.zero(), w=Poly.zero())
    assert not _extracts(flat) and not _has_curve_shape(flat)
    assert not verify_potential_recovery(flat, None, Rat(1, 2))["pass"]


def krichever_by_p(qp, curve, x0) -> bool:
    """The coupling as decided before verify_krichever read (*) through
    qsolver.curve_rhs_jet, the oracle: Q(x0, .) divides P = Qxx^2 -
    2 Qx Qxxx - 4F - 4V Qx^2, after the same three genericity checks."""
    f = curve.as_poly()
    q = roots_z(qp, None, x0)  # MultipleRootError
    if shares_root(q, f, "z"):  # F is monic of degree 2g+1 here
        raise DegenerateDerivativeError("branch point")
    q, qx, qxx, qxxx = _x_slices(qp, x0, 3)  # DegenerateDerivativeError
    v = qp.v.eval({"x": x0})
    return divides(q, qxx * qxx - 2 * qx * qxxx - 4 * f - 4 * v * qx * qx,
                   "z")


def _coupling_outcome(check, *args):
    try:
        return check(*args)
    except (MultipleRootError, DegenerateDerivativeError) as exc:
        return type(exc)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_krichever_matches_p_divisibility(g):
    # Q(x0, .) divides C(x0, .) = 4F - rhs(*)(x0, .) exactly when it
    # divides P, since P = -C - Q G: the same verdict, or the same
    # exception, on the built pair and on F + z^k (k = 0 and g), V + 1 and
    # Q + x z^(g-1), at the parameters of a correct pair and of seed 503's
    # degenerate sample point
    x, z = Poly.var("x"), Poly.var("z")
    outcomes = []
    for params in (FALSE_FAIL_TUPLE, {"a0": 1, "a1": 1, "a2": -5, "a3": -2}):
        qp = build_q(g, params)
        curve = extract_curve(qp)
        cases = [(qp, curve), (qp._replace(v=qp.v + 1), curve),
                 (qp._replace(q=qp.q + x * z**(g - 1)), curve)]
        for k in (0, g):
            coeffs = list(curve.coeffs)
            coeffs[k] = coeffs[k] + 1
            cases.append((qp, SpectralCurve(g=g, coeffs=tuple(coeffs))))
        for x0 in (Rat(1, 2), Rat(3, 2)):
            for bent, bent_curve in cases:
                new = _coupling_outcome(
                    lambda *a: verify_krichever(*a)["pass"],
                    bent, bent_curve, None, x0)
                assert new == _coupling_outcome(krichever_by_p, bent,
                                                bent_curve, x0)
                outcomes.append(new)
    # both verdicts occur, and seed 503's tuple raises at x0 = 1/2 (g = 1)
    assert True in outcomes and False in outcomes
    assert (DegenerateDerivativeError in outcomes) == (g == 1)


def test_degenerate_sample_points_raise():
    x, z = Poly.var("x"), Poly.var("z")
    qp = build_q(2, NUMERIC)
    curve = extract_curve(qp)
    half = Rat(1, 2)
    # Q(0, z) = z^2: a double pole
    zero_a0 = build_q(2, {"a0": 0, "a1": 0, "a2": 0, "a3": 1})
    with pytest.raises(MultipleRootError):
        verify_krichever(zero_a0, extract_curve(zero_a0), None, 0)
    # Qx(1/2, z) = 0 while the roots +-1 of Q(1/2, z) are simple
    flat = QPolynomial(g=2, deltas=qp.deltas, q=z**2 - 1 + (x - half)**2,
                       v=qp.v, w=qp.w)
    with pytest.raises(DegenerateDerivativeError):
        verify_krichever(flat, curve, None, half)
    # a pole on a branch point: F vanishes at the root of Q(2, z) = z + 2
    qp1 = build_q(1, NUMERIC)
    root = -qp1.q.eval({"x": 2}).coeff_in("z", 0)
    f = (z - root) * (z**2 + 1)
    branch = SpectralCurve(g=1, coeffs=tuple(f.coeffs_in("z")[:3]))
    with pytest.raises(DegenerateDerivativeError):
        verify_krichever(qp1, branch, None, 2)


def test_verify_krichever_evaluates_each_slice_once(monkeypatch):
    # Q(x0, .) and its four x-derivatives, then V, V' and W: each is
    # evaluated at x0 once, with disc_z tested on the first slice
    qp = build_q(2, NUMERIC)
    curve = extract_curve(qp)
    evaluated = []
    evaluate = Poly.eval
    monkeypatch.setattr(Poly, "eval", lambda self, at: (
        evaluated.append(self) or evaluate(self, at)))
    assert verify_krichever(qp, curve, None, Rat(1, 2))["pass"]
    assert evaluated == [*_x_derivs(qp.q, 4), qp.v, qp.v.diff("x"), qp.w]
