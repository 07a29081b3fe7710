"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; the exact checks admit no
tolerance at all.

Criterion 1 note: the genus-2 closed form was first recorded without its
constant term -9.  That form commutes with L4 and is self-adjoint, but its
square misses F(L4), for the recorded F = z^5 + 27 a0 z^2 + 81, by
18M + 81; the form with the -9 squares to F(L4) exactly, and monic
solutions of the square identity are unique.  The record was corrected on
that evidence, which test_reference_forms_square_to_recorded_curve in
tests/test_pairs.py checks without the construction or the curve
extraction.  Criterion 1 asserts, as before, that the construction
reproduces the record and the curve literally.
"""

import math
import random
import time

from weylpair.curve import discriminant_curve, is_nonsingular
from weylpair.curvefun import (expand_at_infinity, expansion_report,
                               reduction_coefficients, reduction_residuals)
from weylpair.numeric import roots_z, verify_krichever, \
    verify_potential_recovery
from weylpair.pairs import (build_pair, commutant_solve, in_affine_span,
                            is_power_span, operator_diff,
                            reference_companion, verify_commutation,
                            verify_square_identity)
from weylpair.poly import Poly, Rat
from weylpair.qsolver import (build_q, curve_identity_residual,
                              derived_ode_residual, extract_curve,
                              q_ode_residual, trace_identity_residual)
from weylpair.series import series_from_poly
from weylpair.weyl import DiffOp, adjoint, apply_to, commutator, op_mul

from conftest import (derived_ode_reading, random_param_tuple, random_poly,
                      random_rat)

SLICE = {"a1": 0, "a2": 0, "a3": 1}
z = Poly.var("z")
a0 = Poly.var("a0")
x = Poly.var("x")


def report(n, ok, desc, detail=""):
    line = f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'} - {desc}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    return ok


def test_criterion_01_genus2_exact_reproduction():
    t0 = time.monotonic()
    pair = build_pair(2, SLICE)
    f_ok = pair.curve.as_poly() == z**5 + 27 * a0 * z**2 + 81
    diff = operator_diff(pair.m, reference_companion(2))
    m_ok = not diff
    elapsed = time.monotonic() - t0
    ok = f_ok and m_ok and elapsed < 10
    report(1, ok, "genus-2 closed forms reproduced exactly",
           detail=f"F match={f_ok}; companion diff={diff}; "
                  f"elapsed={elapsed:.1f}s (the recorded form squares to "
                  "its recorded F(L4) independently of the construction)")
    assert f_ok
    assert elapsed < 10
    assert m_ok, (
        "constructed companion differs from the recorded genus-2 closed "
        f"form by {diff}; the recorded form satisfies the square identity "
        "with the recorded spectral polynomial (test_pairs.py), so the "
        "difference points at the construction")


def test_criterion_02_genus3_reproduction():
    t0 = time.monotonic()
    pair = build_pair(3, SLICE)
    f_ok = pair.curve.as_poly() == (z**7 + 594 * a0 * z**4 - 2025 * z**2
                                    + 91125 * a0**2 * z)
    c_ok = verify_commutation(pair).is_zero()
    b_ok = verify_square_identity(pair).is_zero()
    diff = operator_diff(pair.m, reference_companion(3))
    elapsed = time.monotonic() - t0
    ok = f_ok and c_ok and b_ok and elapsed < 60
    report(2, ok, "genus-3 curve exact, certificates exact, closed-form "
                  f"comparison: {'exact match' if not diff else diff}")
    assert ok
    assert not diff  # the genus-3 recorded form matches coefficient-wise


def test_criterion_03_certificates_at_scale():
    rng = random.Random(20260810)
    t0 = time.monotonic()
    ok = True
    for g in range(1, 6):
        for _ in range(3):
            pair = build_pair(g, random_param_tuple(rng))
            ok = ok and verify_commutation(pair).is_zero()
            ok = ok and verify_square_identity(pair).is_zero()
            f = pair.curve.as_poly()
            ok = ok and f.degree("z") == 2 * g + 1
            ok = ok and f.degree("x") == 0
            ok = ok and f.coeff_in("z", 2 * g + 1) == Poly.one()
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300
    report(3, ok, "commutation and square identity exact for g=1..5, three "
                  f"random tuples each ({elapsed:.1f}s)")
    assert ok


def test_criterion_04_reduction_identity():
    rng = random.Random(4)
    ok = True
    for g in (1, 2, 3, 4):
        for params in (SLICE, random_param_tuple(rng)):
            qp = build_q(g, params)
            curve = extract_curve(qp)
            u0, u1 = reduction_coefficients(qp, curve)
            pair_l4 = build_pair(g, params).l4
            r0, r1 = reduction_residuals(u0, u1, pair_l4)
            ok = ok and r0.is_zero() and r1.is_zero()
    report(4, ok, "eigenfunction reduction: psi-coefficient = z and "
                  "psi'-coefficient = 0, g <= 4, symbolic and numeric")
    assert ok


def test_criterion_05_defining_identities_and_disambiguation():
    rng = random.Random(5)
    ok = True
    for g in (1, 2, 3, 4):
        for params in (SLICE, None, random_param_tuple(rng)):
            qp = build_q(g, params)
            curve = extract_curve(qp)
            ok = ok and q_ode_residual(qp).is_zero()
            ok = ok and curve_identity_residual(qp, curve).is_zero()
            ok = ok and derived_ode_residual(qp).is_zero()
    cube_fails = not derived_ode_reading(build_q(1),
                                         third_term="cube").is_zero()
    ok = ok and cube_fails
    report(5, ok, "Q-ODE, curve identity and companion identity exactly "
                  "zero; literal-cube reading demonstrably fails at g=1")
    assert ok


def test_criterion_06_series_identities():
    ok = True
    for g in (1, 2, 3, 4):
        for params in (SLICE, {"a0": 2, "a1": 0, "a2": 0, "a3": 1}):
            qp = build_q(g, params)
            curve = extract_curve(qp)
            u0, u1 = reduction_coefficients(qp, curve)
            order = 2 * g + 8  # covers the odd sweep through k^(2g+5)
            rep = expansion_report(expand_at_infinity(u0, order),
                                   expand_at_infinity(u1, order), qp, curve)
            ok = ok and rep["all"]
            ok = ok and trace_identity_residual(qp, curve).is_zero()
    report(6, ok, "series read-off of potentials, vanishing odd "
                  "coefficients through k^(2g+5), and trace identity, exact")
    assert ok


def test_criterion_07_discriminants():
    rng = random.Random(7)
    ok = True
    for g in (1, 2, 3, 4):
        curve = extract_curve(build_q(g))
        found = 0
        for _ in range(20):
            if found == 3:
                break
            params = random_param_tuple(rng)
            if is_nonsingular(curve, params):
                found += 1
        ok = ok and found == 3
    degenerate = extract_curve(build_q(1, SLICE))
    disc_at_zero = discriminant_curve(degenerate).eval({"a0": 0})
    ok = ok and disc_at_zero.is_zero()
    report(7, ok, "curve discriminant nonzero at sampled tuples g=1..4; "
                  "degenerate control (g=1, a0=0) vanishes")
    assert ok


def test_criterion_08_numeric_root_checks():
    ok = True
    detail = []
    for g in (2, 3):
        qp = build_q(g, {"a0": 1, "a1": 0, "a2": 0, "a3": 1})
        curve = extract_curve(qp)
        for i in range(5):
            x0 = Rat(2 * i + 1, 2)
            q = roots_z(qp, None, x0)  # raises on any collision
            ok = ok and q.degree("z") == g
        for x0 in (Rat(1, 2), Rat(3, 2)):
            rep = verify_potential_recovery(qp, None, x0, tol=1e-8)
            ok = ok and rep["pass"]
            if not rep["pass"]:
                detail.append(f"recovery g={g} x0={x0}: {rep}")
            repk = verify_krichever(qp, curve, None, x0, tol=1e-6)
            ok = ok and repk["pass"]
            ok = ok and repk["simple_poles"] == g
            if not repk["pass"]:
                detail.append(f"krichever g={g} x0={x0}: {repk}")
    report(8, ok, "root distinctness (5 points, g=2,3), potential recovery "
                  "within 1e-8, pole coupling within 1e-6 on both sheets",
           detail="; ".join(detail))
    assert ok


def test_criterion_09_independent_commutant_oracle():
    ok = True
    for g, params in ((1, {"a0": 1, "a1": 0, "a2": 0, "a3": 1}),
                      (2, {"a0": 2, "a1": 1, "a2": 0, "a3": 1})):
        pair = build_pair(g, params)
        particular, basis = commutant_solve(pair.l4, 4 * g + 2, known=pair.m)
        ok = ok and len(basis) == g + 1
        ok = ok and in_affine_span(pair.m, particular, basis)
        ok = ok and is_power_span(basis, pair.l4, g)
    report(9, ok, "linear commutant solver contains the closed-form "
                  "companion; affine dimension g+1 over the monic stratum")
    assert ok


def test_criterion_10_property_suites():
    rng = random.Random(10)
    ok = True
    # ring axioms, 200 random triples
    for _ in range(200):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        ok = ok and (p + q) + r == p + (q + r)
        ok = ok and (p * q) * r == p * (q * r)
        ok = ok and p * (q + r) == p * q + p * r
    # Leibniz, 200 random pairs
    for _ in range(200):
        p = random_poly(rng)
        q = random_poly(rng)
        ok = ok and (p * q).diff("x") == p.diff("x") * q + p * q.diff("x")

    def rand_op():
        return DiffOp([random_poly(rng, vars=("x",), max_exp=2, n_terms=2)
                       for _ in range(rng.randint(1, 3))])

    # adjoint involution/antihomomorphism and composition oracle, 200 pairs
    for _ in range(200):
        a, b = rand_op(), rand_op()
        ok = ok and adjoint(adjoint(a)) == a
        ok = ok and adjoint(op_mul(a, b)) == op_mul(adjoint(b), adjoint(a))
        f = random_poly(rng, vars=("x",), max_exp=3, n_terms=2)
        ok = ok and apply_to(op_mul(a, b), f) == apply_to(a, apply_to(b, f))
    # Jacobi, 200 triples
    for _ in range(200):
        a, b, c = rand_op(), rand_op(), rand_op()
        jac = (commutator(a, commutator(b, c))
               + commutator(b, commutator(c, a))
               + commutator(c, commutator(a, b)))
        ok = ok and jac.is_zero()
    # expansion homomorphism and the defining relation under truncation
    from weylpair.curvefun import expand_w

    qp = build_q(2, SLICE)
    curve = extract_curve(qp)
    u0, u1 = reduction_coefficients(qp, curve)
    lhs = expand_at_infinity(u0 * u1, 4)
    rhs = expand_at_infinity(u0, 9) * expand_at_infinity(u1, 9)
    ok = ok and lhs.same_up_to_trunc(rhs)
    ws = expand_w(curve, 8)
    fs = series_from_poly(curve.as_poly(), 8 - (2 * 2 + 1))
    ok = ok and (ws * ws).same_up_to_trunc(fs)
    report(10, ok, "ring/Leibniz/adjoint/Jacobi randomized suites (200 "
                   "cases each); expansion homomorphism and w^2 = F "
                   "survive truncation")
    assert ok
