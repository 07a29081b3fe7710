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
coordinate), not the global parameter 1/sqrt(z) used at infinity.
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


class BranchTrackingError(RuntimeError):
    """Roots at nearby sample points could not be matched unambiguously."""


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
    """Roots of Q(x0, z) with derivatives and curve values.

    gammas[i] are the g roots; w_values[i] is the principal-branch value
    sqrt(F(gamma_i)) (the other branch is its negative); gamma_primes[i]
    is d(gamma_i)/dx from implicit differentiation -Qx/Qz.
    """

    x0: Rat
    gammas: list[complex]
    w_values: list[complex]
    gamma_primes: list[complex]


def _bind(qp: QPolynomial, params: dict | None) -> QPolynomial:
    qp = qp.eval_params(params) if params else qp
    for name in ("a0", "a1", "a2", "a3"):
        if qp.q.degree(name) > 0 or qp.v.degree(name) > 0:
            raise ParamError(f"parameter {name} left unbound")
    return qp


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
    from .qsolver import extract_curve

    f = _to_complex_coeffs(extract_curve(qp).as_poly())
    w_values = [cmath.sqrt(_horner(f, gm)) for gm in gammas]
    gamma_primes = [-_horner(qx, gm) / _horner(qzd, gm) for gm in gammas]
    return RootData(x0=x0, gammas=gammas, w_values=w_values,
                    gamma_primes=gamma_primes)


def verify_potential_recovery(qp: QPolynomial, params: dict | None, x0,
                              tol: float = 1e-8) -> dict:
    """At every root gamma_j of Q(x0, .) the ratio

        ((Qxx)^2 - 2 Qx Qxxx - 4 F(z)) / (4 (Qx)^2)  at  z = gamma_j

    takes one common value, and that value is V(x0).  For g = 1 the
    pairwise comparison is vacuous but the value-vs-V check still runs.
    """
    qp = _bind(qp, params)
    rd = roots_z(qp, None, x0)
    x0 = rd.x0
    from .qsolver import extract_curve

    f = _to_complex_coeffs(extract_curve(qp).as_poly())
    qx = qp.q.diff("x")
    qxx = qx.diff("x")
    qxxx = qxx.diff("x")
    cx = _to_complex_coeffs(qx.eval({"x": x0}))
    cxx = _to_complex_coeffs(qxx.eval({"x": x0}))
    cxxx = _to_complex_coeffs(qxxx.eval({"x": x0}))
    values = []
    for gm in rd.gammas:
        d1 = _horner(cx, gm)
        if abs(d1) < 1e-12 * max(1.0, abs(gm)):
            raise DegenerateDerivativeError(
                f"dQ/dx vanishes at root {gm}; resample x0")
        val = ((_horner(cxx, gm) ** 2 - 2 * d1 * _horner(cxxx, gm)
                - 4 * _horner(f, gm)) / (4 * d1 * d1))
        values.append(val)
    vq = qp.v.eval({"x": x0}).const_value()
    v_exact = complex(float(vq.numerator) / float(vq.denominator))
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


def _match_roots(base: list[complex], moved: list[complex]) -> list[complex]:
    """Nearest-neighbour pairing of the moved roots to the base roots."""
    used = [False] * len(moved)
    out = []
    for gm in base:
        best = None
        best_d = None
        for j, hm in enumerate(moved):
            if used[j]:
                continue
            d = abs(hm - gm)
            if best_d is None or d < best_d:
                best, best_d = j, d
        spacing = min((abs(gm - o) for o in base if o is not gm),
                      default=float("inf"))
        if not best_d <= 0.45 * spacing:
            raise BranchTrackingError(
                f"ambiguous root pairing: moved {best_d:.3e}, spacing "
                f"{spacing:.3e}")
        used[best] = True
        out.append(moved[best])
    return out


@dataclass
class PoleData:
    """Local data of the reduction coefficients at one pole and branch:
    residues c0, c1, regular parts d0, d1, the ratio v0 = c0/c1, and its
    x-derivative."""

    gamma: complex
    branch: int
    c0: complex
    c1: complex
    d0: complex
    d1: complex
    v0: complex
    v0_prime: complex | None = None


def _pole_data(qp: QPolynomial, f: list[complex], x0, gamma: complex,
               w_ref: complex, branch: int) -> PoleData:
    """Residue and regular part of u0 and u1 at z = gamma on one branch.

    u1 = Qx/Q and u0 = (-Qxx/2 + w)/Q - V have simple poles at the roots
    of Q; with Q = (z - gamma) * Qt the expansion of N/Q is

        N(gamma)/Qt(gamma) / (z - gamma)
        + [N'(gamma)/Qt(gamma) - N(gamma) Qt'(gamma)/Qt(gamma)^2] + ...

    where Qt(gamma) = Qz(gamma) and Qt'(gamma) = Qzz(gamma)/2, and
    w(z) = branch * sqrt(F(z)) is analytic there with
    w' = F'/(2w).  w_ref fixes the sheet by sign-continuity.
    """
    q = qp.q.eval({"x": x0})
    qz = _to_complex_coeffs(q.diff("z"))
    qzz = _to_complex_coeffs(q.diff("z").diff("z"))
    qx_p = qp.q.diff("x").eval({"x": x0})
    qx = _to_complex_coeffs(qx_p)
    qxz = _to_complex_coeffs(qx_p.diff("z"))
    qxx_p = qp.q.diff("x").diff("x").eval({"x": x0})
    qxx = _to_complex_coeffs(qxx_p)
    qxxz = _to_complex_coeffs(qxx_p.diff("z"))
    fp = [i * f[i] for i in range(1, len(f))]

    qt = _horner(qz, gamma)
    qtp = _horner(qzz, gamma) / 2.0
    w = cmath.sqrt(_horner(f, gamma))
    if abs(w - w_ref) > abs(w + w_ref):
        w = -w
    wprime = _horner(fp, gamma) / (2 * w)

    n1 = _horner(qx, gamma)
    n1p = _horner(qxz, gamma)
    c1 = n1 / qt
    d1 = n1p / qt - n1 * qtp / (qt * qt)

    n0 = -_horner(qxx, gamma) / 2.0 + w
    n0p = -_horner(qxxz, gamma) / 2.0 + wprime
    vq = qp.v.eval({"x": x0}).const_value()
    v_exact = float(vq.numerator) / float(vq.denominator)
    c0 = n0 / qt
    d0 = n0p / qt - n0 * qtp / (qt * qt) - v_exact
    return PoleData(gamma=gamma, branch=branch, c0=c0, c1=c1, d0=d0, d1=d1,
                    v0=c0 / c1)


def verify_krichever(qp: QPolynomial, curve: SpectralCurve,
                     params: dict | None, x0, h=Rat(1, 4096),
                     tol: float = 1e-6, max_refinements: int = 3) -> dict:
    """The coupling d0 = v0^2 + v0*d1 - v0' at every pole on both sheets.

    Residues and regular parts come from exact partial fractions evaluated
    numerically; v0' is a central difference with one Richardson step
    (h and h/2), with roots and sheet signs tracked by continuity across
    the sample points; the step is halved and the check re-run when the
    finite-difference truncation alone pushes the residual over tolerance.
    Also checks c1 = -gamma' (the structural form of the residue of u1).
    """
    report = None
    for _ in range(max_refinements + 1):
        report = _krichever_once(qp, curve, params, x0, h, tol)
        if report["pass"]:
            return report
        h = h / 2
    return report


def _krichever_once(qp: QPolynomial, curve: SpectralCurve,
                    params: dict | None, x0, h, tol: float) -> dict:
    qp = _bind(qp, params)
    curve = curve.eval_params(params) if params else curve
    x0 = Rat(x0) if not isinstance(x0, Rat) else x0
    h = Rat(h) if not isinstance(h, Rat) else h
    f = _to_complex_coeffs(curve.as_poly())
    base = roots_z(qp, None, x0)

    offsets = [-h, -h / 2, h / 2, h]
    shifted_roots = {}
    for dx in offsets:
        rd = roots_z(qp, None, x0 + dx)
        shifted_roots[dx] = _match_roots(base.gammas, rd.gammas)

    hf = float(h.numerator) / float(h.denominator)
    report_poles = []
    for i, gamma in enumerate(base.gammas):
        for branch in (1, -1):
            w_ref = branch * base.w_values[i]
            pd = _pole_data(qp, f, x0, gamma, w_ref, branch)
            vs = {}
            for dx in offsets:
                gm = shifted_roots[dx][i]
                pdx = _pole_data(qp, f, x0 + dx, gm, w_ref, branch)
                vs[dx] = pdx.v0
            d_h = (vs[h] - vs[-h]) / (2 * hf)
            d_h2 = (vs[h / 2] - vs[-h / 2]) / hf
            v0p = (4 * d_h2 - d_h) / 3
            pd.v0_prime = v0p
            res = pd.d0 - (pd.v0 ** 2 + pd.v0 * pd.d1 - v0p)
            scale = max(1.0, abs(pd.d0), abs(pd.v0) ** 2,
                        abs(pd.v0 * pd.d1), abs(v0p))
            rel = abs(res) / scale
            c1_rel = (abs(pd.c1 + base.gamma_primes[i])
                      / max(1.0, abs(pd.c1)))
            report_poles.append({
                "pole": i, "branch": branch, "residual": rel,
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
