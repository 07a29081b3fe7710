"""Floating-point checks at the roots of Q, where exact algebra cannot go.

The z-roots of Q(x0, z) are algebraic functions of x0, so the statements
about them (distinctness, the potential-recovery invariant, and the
coupling between residues and regular parts of the reduction coefficients
at each pole) are verified numerically in complex double precision.  The
exact layer has already certified the deep identities; the tolerances
here only need to absorb floating-point noise.  Every check fails closed:
a NaN or infinity in a root or a residual raises ConvergenceError or makes
the check fail, never pass.

The local coordinate at each pole is z - gamma (the curve's affine
coordinate), not the global parameter 1/sqrt(z) used at infinity.  The
x-derivative v0' that the pole coupling needs is exact calculus, not a
finite difference: v0 is a rational function of derivatives of Q at
(x, gamma(x)), and gamma' = -Qx/Qz by implicit differentiation, so its
total derivative along the moving pole is a closed form at x0.  Each check
solves for the roots at x0 once; no nearby sample point, root matching or
sheet tracking is involved.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .curve import ParamError, SpectralCurve
from .poly import Poly, Rat
from .qsolver import QPolynomial


class ConvergenceError(RuntimeError):
    """Root iteration failed to converge within the iteration cap, or
    produced a root or residual that is not finite."""


class MultipleRootError(RuntimeError):
    """Two roots of Q collided; this would falsify root distinctness."""


class DegenerateDerivativeError(RuntimeError):
    """dQ/dx vanished at a root; the sample point must be re-drawn."""


def _to_complex_coeffs(p: Poly, var: str = "z") -> list[complex]:
    """Dense complex coefficient list of a univariate polynomial."""
    out = []
    for c in p.coeffs_in(var):
        if not c.is_constant():
            raise ValueError(f"polynomial is not univariate in {var}: {p}")
        v = c.const_value()
        out.append(complex(float(v.numerator) / float(v.denominator)))
    return out


def _worst(values) -> float:
    """The largest residual, or nan when any residual is not finite; a
    plain max() skips a NaN that does not come first."""
    values = list(values)
    if not all(math.isfinite(v) for v in values):
        return math.nan
    return max(values, default=0.0)


def _horner(coeffs: list[complex], t: complex) -> complex:
    acc = complex(0.0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def durand_kerner(coeffs: list[complex], tol: float = 1e-12,
                  max_iter: int = 500) -> list[complex]:
    """All roots of a monic polynomial by simultaneous iteration.

    Initial guesses sit on a slightly perturbed circle of the Cauchy
    radius; convergence is declared when every residual |p(z_i)| drops
    below tol * scale.  A step, root or residual that is not finite raises
    ConvergenceError.
    """
    n = len(coeffs) - 1
    if n == 0:
        return []
    if abs(coeffs[-1] - 1.0) > 1e-15:
        coeffs = [c / coeffs[-1] for c in coeffs]
    scale = max(1.0, max(abs(c) for c in coeffs))
    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    zs = [radius * cmath.exp(2j * cmath.pi * (i + 0.27) / n) * (1 + 1e-3 * i)
          for i in range(n)]
    for _ in range(max_iter):
        moved = 0.0
        for i in range(n):
            num = _horner(coeffs, zs[i])
            den = complex(1.0)
            for j in range(n):
                if j != i:
                    den *= zs[i] - zs[j]
            if den == 0:
                den = complex(1e-30)
            step = num / den
            if not cmath.isfinite(step):
                raise ConvergenceError(
                    f"root iteration diverged: step {step} at root {i}")
            zs[i] -= step
            moved = max(moved, abs(step))
        if moved < tol:
            break
    residual = _worst(abs(_horner(coeffs, z)) for z in zs)
    if not residual <= tol * scale * 100:
        raise ConvergenceError(
            f"root residual {residual:.3e} above tolerance after "
            f"{max_iter} iterations")
    return zs


@dataclass
class RootData:
    """Roots of Q(x0, z) and their x-derivatives.

    gammas[i] are the g roots; gamma_primes[i] is d(gamma_i)/dx from
    implicit differentiation -Qx/Qz.
    """

    x0: Rat
    gammas: list[complex]
    gamma_primes: list[complex]


def _bind(qp: QPolynomial, params: dict | None) -> QPolynomial:
    qp = qp.eval_params(params) if params else qp
    for name in ("a0", "a1", "a2", "a3"):
        if qp.q.degree(name) > 0 or qp.v.degree(name) > 0:
            raise ParamError(f"parameter {name} left unbound")
    return qp


def _x_slices(qp: QPolynomial, x0: Rat) -> list[Poly]:
    """Q, Qx, Qxx and Qxxx at x = x0, as polynomials in z."""
    out, p = [], qp.q
    for _ in range(4):
        out.append(p.eval({"x": x0}))
        p = p.diff("x")
    return out


def _v_at(qp: QPolynomial, x0: Rat) -> float:
    vq = qp.v.eval({"x": x0}).const_value()
    return float(vq.numerator) / float(vq.denominator)


def roots_z(qp: QPolynomial, params: dict | None, x0,
            tol_root: float = 1e-12,
            separation: float = 1e-8) -> RootData:
    """All g roots of Q(x0, z), with distinctness enforced.

    A separation failure would falsify the no-multiple-roots property of Q
    and is reported loudly as MultipleRootError rather than resampled.
    """
    qp = _bind(qp, params)
    x0 = Rat(x0) if not isinstance(x0, Rat) else x0
    qz = qp.q.eval({"x": x0})
    coeffs = _to_complex_coeffs(qz)
    gammas = durand_kerner(coeffs, tol=tol_root)
    for i in range(len(gammas)):
        for j in range(i + 1, len(gammas)):
            lim = separation * max(1.0, abs(gammas[i]), abs(gammas[j]))
            if abs(gammas[i] - gammas[j]) <= lim:
                raise MultipleRootError(
                    f"roots {i} and {j} of Q(x0={x0}, z) coincide within "
                    f"{lim:.3e}")
    qx = _to_complex_coeffs(qp.q.diff("x").eval({"x": x0}))
    qzd = _to_complex_coeffs(qz.diff("z"))
    gamma_primes = [-_horner(qx, gm) / _horner(qzd, gm) for gm in gammas]
    return RootData(x0=x0, gammas=gammas, gamma_primes=gamma_primes)


def verify_potential_recovery(qp: QPolynomial, params: dict | None, x0,
                              tol: float = 1e-8) -> dict:
    """At every root gamma_j of Q(x0, .) the ratio

        ((Qxx)^2 - 2 Qx Qxxx - 4 F(z)) / (4 (Qx)^2)  at  z = gamma_j

    takes one common value, and that value is V(x0).  For g = 1 the
    pairwise comparison is vacuous but the value-vs-V check still runs.

    This is not independent evidence: at Q = 0 the curve identity (*)
    reads 4F = Qxx^2 - 2 Qx Qxxx - 4 V Qx^2, so the exact curve_identity
    check already implies the statement at every root.  What this check
    measures is the accuracy of the computed roots.
    """
    qp = _bind(qp, params)
    rd = roots_z(qp, None, x0)
    x0 = rd.x0
    from .qsolver import extract_curve

    f = _to_complex_coeffs(extract_curve(qp).as_poly())
    cx, cxx, cxxx = (_to_complex_coeffs(p) for p in _x_slices(qp, x0)[1:])
    values = []
    for gm in rd.gammas:
        d1 = _horner(cx, gm)
        if abs(d1) < 1e-12 * max(1.0, abs(gm)):
            raise DegenerateDerivativeError(
                f"dQ/dx vanishes at root {gm}; resample x0")
        val = ((_horner(cxx, gm) ** 2 - 2 * d1 * _horner(cxxx, gm)
                - 4 * _horner(f, gm)) / (4 * d1 * d1))
        values.append(val)
    v_exact = complex(_v_at(qp, x0))
    scale = max(1.0, abs(v_exact), max(abs(v) for v in values))
    pair_res = _worst(abs(values[i] - values[j]) / scale
                      for i in range(len(values))
                      for j in range(i + 1, len(values)))
    value_res = _worst(abs(v - v_exact) / scale for v in values)
    max_res = _worst([pair_res, value_res])
    return {
        "name": "potential_recovery",
        "pairwise_residual": pair_res,
        "value_residual": value_res,
        "max_residual": max_res,
        "tolerance": tol,
        "pass": max_res <= tol,
    }


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


def _poles(qp: QPolynomial, curve: SpectralCurve,
           rd: RootData) -> list[PoleData]:
    """PoleData at every root in rd, branch +1 then -1 at each root.  Each
    derivative of Q and F is evaluated at x0 once, not once per pole."""
    q, qx, qxx, qxxx = _x_slices(qp, rd.x0)
    f = curve.as_poly()
    polys = {"qz": q.diff("z"), "qzz": q.diff("z").diff("z"),
             "qx": qx, "qxz": qx.diff("z"), "qxx": qxx,
             "qxxz": qxx.diff("z"), "qxxx": qxxx, "f": f, "fz": f.diff("z")}
    jet = {k: _to_complex_coeffs(p) for k, p in polys.items()}
    v_x0 = _v_at(qp, rd.x0)
    return [_pole_data(jet, v_x0, gamma, branch)
            for gamma in rd.gammas for branch in (1, -1)]


def verify_krichever(qp: QPolynomial, curve: SpectralCurve,
                     params: dict | None, x0, tol: float = 1e-6) -> dict:
    """The coupling d0 = v0^2 + v0*d1 - v0' at every pole on both sheets.

    Residues and regular parts come from exact partial fractions evaluated
    numerically at the roots of Q(x0, .); v0' is the closed-form total
    derivative along the pole (see _pole_data).  Also reports
    c1 = -gamma' as residue_structure_residual: c1 is Qx/Qz and gamma' is
    -Qx/Qz, so it holds by construction and only guards against
    non-finite values.
    """
    qp = _bind(qp, params)
    curve = curve.eval_params(params) if params else curve
    rd = roots_z(qp, None, x0)
    report_poles = []
    for k, pd in enumerate(_poles(qp, curve, rd)):
        i = k // 2
        res = pd.d0 - (pd.v0 ** 2 + pd.v0 * pd.d1 - pd.v0_prime)
        scale = max(1.0, abs(pd.d0), abs(pd.v0) ** 2,
                    abs(pd.v0 * pd.d1), abs(pd.v0_prime))
        c1_rel = abs(pd.c1 + rd.gamma_primes[i]) / max(1.0, abs(pd.c1))
        report_poles.append({
            "pole": i, "branch": pd.branch, "residual": abs(res) / scale,
            "c1_vs_gamma_prime": c1_rel,
        })
    max_res = _worst(p["residual"] for p in report_poles)
    max_c1_res = _worst(p["c1_vs_gamma_prime"] for p in report_poles)
    ok = max_res <= tol and max_c1_res <= 1e-8
    return {
        "name": "krichever_relation",
        "poles": report_poles,
        "max_residual": max_res,
        "residue_structure_residual": max_c1_res,
        "tolerance": tol,
        "pass": ok,
    }
