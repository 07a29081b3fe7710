"""Numeric root-level checks, cross-validated against numpy's root finder
and, for the pole coupling's v0', against a finite difference."""

import cmath
import math
import random

import numpy as np
import pytest

from weylpair import numeric
from weylpair.cli import INTERNAL_ERRORS
from weylpair.numeric import (ConvergenceError, MultipleRootError, _horner,
                              _poles, _to_complex_coeffs, durand_kerner,
                              roots_z, verify_krichever,
                              verify_potential_recovery)
from weylpair.poly import Poly, Rat
from weylpair.qsolver import build_q, extract_curve

from conftest import random_param_tuple

NUMERIC = {"a0": 1, "a1": 0, "a2": 0, "a3": 1}


def test_linear_root_genus1():
    qp = build_q(1, NUMERIC)
    rd = roots_z(qp, None, 2)
    assert len(rd.gammas) == 1
    assert abs(rd.gammas[0] + 2) < 1e-12
    assert abs(rd.gamma_primes[0] + 1) < 1e-12


def test_quadratic_roots_genus2():
    # Q(1, z) = z^2 + 3z + 9, roots (-3 +- 3i sqrt(3)) / 2
    qp = build_q(2, NUMERIC)
    rd = roots_z(qp, None, 1)
    expect = sorted([complex(-1.5, 3 * math.sqrt(3) / 2),
                     complex(-1.5, -3 * math.sqrt(3) / 2)],
                    key=lambda c: c.imag)
    got = sorted(rd.gammas, key=lambda c: c.imag)
    assert all(abs(a - b) < 1e-10 for a, b in zip(got, expect))


def test_durand_kerner_against_numpy_oracle():
    rng = random.Random(99)
    for _ in range(40):
        deg = rng.randint(1, 6)
        coeffs = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                  for _ in range(deg)] + [complex(1.0)]
        got = sorted(durand_kerner(coeffs), key=lambda c: (c.real, c.imag))
        want = sorted(np.roots(list(reversed(coeffs))),
                      key=lambda c: (c.real, c.imag))
        scale = max(1.0, max(abs(w) for w in want))
        assert all(abs(a - b) / scale < 1e-7 for a, b in zip(got, want))


def test_roots_reconstruct_polynomial():
    for g in (2, 3):
        qp = build_q(g, NUMERIC)
        for x0 in (Rat(1, 2), 1, 2):
            rd = roots_z(qp, None, x0)
            coeffs = _to_complex_coeffs(qp.q.eval({"x": Rat(x0)}))
            recon = np.poly(rd.gammas)[::-1]  # monic expansion oracle
            scale = max(1.0, max(abs(c) for c in coeffs))
            assert all(abs(a - b) / scale < 1e-10
                       for a, b in zip(coeffs, recon))


def test_distinctness_at_sample_points():
    for g in (2, 3):
        qp = build_q(g, NUMERIC)
        for i in range(5):
            rd = roots_z(qp, None, Rat(2 * i + 1, 2))
            n = len(rd.gammas)
            assert n == g
            for a in range(n):
                for b in range(a + 1, n):
                    assert abs(rd.gammas[a] - rd.gammas[b]) > 1e-6


def test_multiple_root_detection():
    # force a collision: at x0 = 0 with a0 = 0 the slice Q(0, z) = z^g
    qp = build_q(2, {"a0": 0, "a1": 0, "a2": 0, "a3": 1})
    with pytest.raises(MultipleRootError):
        roots_z(qp, None, 0)


def test_gamma_prime_matches_finite_difference():
    qp = build_q(2, NUMERIC)
    h = Rat(1, 4096)
    rd = roots_z(qp, None, 1)
    rp = roots_z(qp, None, 1 + h)
    rm = roots_z(qp, None, 1 - h)
    hf = float(h.numerator) / float(h.denominator)
    for i, gm in enumerate(rd.gammas):
        plus = min(rp.gammas, key=lambda c: abs(c - gm))
        minus = min(rm.gammas, key=lambda c: abs(c - gm))
        fd = (plus - minus) / (2 * hf)
        assert abs(fd - rd.gamma_primes[i]) < 1e-5


def test_potential_recovery():
    # the common value equals V(x0); for g = 1 the pairwise part is vacuous
    rep1 = verify_potential_recovery(build_q(1, NUMERIC), None, 2)
    assert rep1["pass"]
    qp2 = build_q(2, NUMERIC)
    rep2 = verify_potential_recovery(qp2, None, 1)
    assert rep2["pass"] and rep2["max_residual"] < 1e-10
    qp3 = build_q(3, NUMERIC)
    for i in range(5):
        rep = verify_potential_recovery(qp3, None, Rat(2 * i + 1, 2))
        assert rep["pass"], rep


def test_potential_recovery_symbolic_binding():
    qp = build_q(2)
    rep = verify_potential_recovery(qp, NUMERIC, 1)
    assert rep["pass"]


def test_krichever_relation_genus1():
    qp = build_q(1, NUMERIC)
    curve = extract_curve(qp)
    for x0 in (Rat(1, 2), 1, 2):
        rep = verify_krichever(qp, curve, None, x0)
        assert rep["pass"], rep
        assert rep["max_residual"] <= 1e-6


def test_krichever_relation_genus2_both_branches():
    qp = build_q(2, NUMERIC)
    curve = extract_curve(qp)
    rep = verify_krichever(qp, curve, None, 1)
    assert rep["pass"]
    assert len(rep["poles"]) == 4  # 2 poles x 2 branches
    branches = {(p["pole"], p["branch"]) for p in rep["poles"]}
    assert branches == {(0, 1), (0, -1), (1, 1), (1, -1)}


def test_krichever_residue_structure():
    # the residue of u1 at each pole is -gamma'
    qp = build_q(2, NUMERIC)
    curve = extract_curve(qp)
    rep = verify_krichever(qp, curve, None, Rat(3, 2))
    assert rep["residue_structure_residual"] < 1e-10


def test_krichever_random_tuples(rng):
    for g in (2, 3):
        params = random_param_tuple(rng)
        qp = build_q(g, params)
        curve = extract_curve(qp)
        rep = verify_krichever(qp, curve, None, Rat(5, 4))
        assert rep["pass"], (g, params, rep)


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
    verify_krichever's v0' as it was before the closed form, kept here as
    the reference.
    """
    x0 = Rat(x0)
    f = _to_complex_coeffs(curve.as_poly())
    qx = qp.q.diff("x")
    qxx = qx.diff("x")
    base = roots_z(qp, None, x0).gammas
    w_base = [cmath.sqrt(_horner(f, gm)) for gm in base]
    offsets = [-h, -h / 2, h / 2, h]
    v0 = {}
    for dx in offsets:
        cx = _to_complex_coeffs(qx.eval({"x": x0 + dx}))
        cxx = _to_complex_coeffs(qxx.eval({"x": x0 + dx}))
        moved = _match_roots(base, roots_z(qp, None, x0 + dx).gammas)
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
        poles = _poles(qp, curve, roots_z(qp, None, x0))
        want = fd_v0_prime(qp, curve, x0)
        assert len(poles) == len(want) == 2 * g
        for pd, fd in zip(poles, want):
            rel = abs(pd.v0_prime - fd) / max(1.0, abs(fd))
            assert rel < V0_PRIME_FD_BOUND


# The finite difference misses the g = 4 coupling here by 1.7e-4 (its
# truncation error, above the 1e-6 tolerance); the closed form meets it.
def test_krichever_closed_form_genus4():
    params = {"a0": Rat(3, 4), "a1": Rat(3, 4), "a2": Rat(-5, 3),
              "a3": Rat(-1, 4)}
    qp = build_q(4, params)
    rep = verify_krichever(qp, extract_curve(qp), None, Rat(3, 2))
    assert rep["pass"], rep


# At g = 11 and 12 this tuple drives Durand-Kerner to NaN roots at x0 = 5/2;
# every NaN guard used to read false there, so both checks passed.
NAN_TUPLE = {"a0": Rat(3, 2), "a1": Rat(1, 3), "a2": 1, "a3": 2}


@pytest.mark.parametrize("g", [11, 12])
def test_nan_roots_fail_closed(g):
    qp = build_q(g, NAN_TUPLE)
    curve = extract_curve(qp)
    x0 = Rat(5, 2)
    with pytest.raises(ConvergenceError):
        roots_z(qp, None, x0)
    with pytest.raises(ConvergenceError):
        verify_potential_recovery(qp, None, x0)
    with pytest.raises(ConvergenceError):
        verify_krichever(qp, curve, None, x0)


def test_durand_kerner_rejects_non_finite_input():
    for bad in (math.nan, math.inf):
        with pytest.raises(ConvergenceError):
            durand_kerner([complex(bad), complex(1.0), complex(1.0)])


@pytest.mark.parametrize("check", ["recovery", "krichever"])
def test_nan_root_never_passes(check, monkeypatch):
    # a NaN root behind the root finder's back: the check must fail or
    # raise, whichever residual or pairing the NaN reaches first
    qp = build_q(2, NUMERIC)
    curve = extract_curve(qp)
    real_roots_z = numeric.roots_z

    def nan_roots(*args, **kw):
        rd = real_roots_z(*args, **kw)
        rd.gammas[0] = complex(math.nan, 0.0)
        return rd

    monkeypatch.setattr(numeric, "roots_z", nan_roots)
    try:
        if check == "recovery":
            rep = verify_potential_recovery(qp, None, 1)
        else:
            rep = verify_krichever(qp, curve, None, 1)
    except INTERNAL_ERRORS:
        return
    assert rep["pass"] is False
    assert math.isnan(rep["max_residual"])
