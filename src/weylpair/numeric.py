"""Checks at the z-roots of Q(x0, z), at a rational sample point x0.

The roots are algebraic numbers, but each statement about them is one
about polynomials in z at the rational x0, so it is checked exactly.  With
P = Qxx^2 - 2 Qx Qxxx - 4F - 4V Qx^2 (primes in x, all at x0):

- root distinctness is disc_z Q(x0, .) != 0;
- potential recovery, V(x0) = (Qxx^2 - 2 Qx Qxxx - 4F) / (4 Qx^2) at every
  root, is res_z(Q, Qx) != 0 and Q(x0, .) dividing P(x0, .);
- the Krichever-Novikov pole coupling d0 = v0^2 + v0 d1 - v0' between the
  residues c0, c1 and regular parts d0, d1 of the reduction coefficients
  u0 = (-Qxx/2 + w)/Q - V and u1 = Qx/Q has the residual
  P(gamma) / (4 Qx(gamma)^2) at a pole gamma on either sheet (the w terms
  cancel), so it is the same divisibility, once disc_z Q != 0 and
  res_z(Q, F) != 0 make every pole simple and off the branch points.

Both are the curve identity (*) reduced mod Q, which curve_identity
proves for all x.  A vanishing discriminant raises MultipleRootError, a
vanishing res_z(Q, Qx) or res_z(Q, F) DegenerateDerivativeError: the
sample point must be re-drawn.  roots_z also returns the roots, by
Durand-Kerner iteration in complex doubles; no verdict rests on their
accuracy, and a NaN, an infinity or the iteration cap raises
ConvergenceError.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .curve import ParamError, SpectralCurve
from .poly import NotDivisibleError, Poly, Rat, discriminant, resultant
from .qsolver import DegreeError, QPolynomial, XDependenceError, extract_curve


class ConvergenceError(RuntimeError):
    """Root iteration failed to converge within the iteration cap, or
    produced a root or residual that is not finite."""


class MultipleRootError(RuntimeError):
    """Two roots of Q(x0, z) coincide: disc_z Q(x0, .) vanishes."""


class DegenerateDerivativeError(RuntimeError):
    """dQ/dx vanishes at a root of Q(x0, z), or a root is a branch point
    of the curve; the sample point must be re-drawn."""


def _to_complex_coeffs(p: Poly, var: str = "z") -> list[complex]:
    """Dense complex coefficient list of a univariate polynomial."""
    out = []
    for c in p.coeffs_in(var):
        if not c.is_constant():
            raise ValueError(f"polynomial is not univariate in {var}: {p}")
        v = c.const_value()
        out.append(complex(float(v.numerator) / float(v.denominator)))
    return out


def _horner(coeffs: list[complex], t: complex) -> complex:
    acc = complex(0.0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def durand_kerner(coeffs: list[complex], tol: float = 1e-12,
                  max_iter: int = 500) -> list[complex]:
    """All roots of a polynomial (made monic) by simultaneous iteration.

    Initial guesses sit on a slightly perturbed circle of the Fujiwara
    radius 2 * max_k |c_(n-k)|^(1/k), which bounds every root; convergence
    is declared when every residual |p(z_i)| drops below tol * scale.  A
    step or residual that is not finite raises ConvergenceError.
    """
    n = len(coeffs) - 1
    if n == 0:
        return []
    if abs(coeffs[-1] - 1.0) > 1e-15:
        coeffs = [c / coeffs[-1] for c in coeffs]
    scale = max(1.0, max(abs(c) for c in coeffs))
    radius = 2.0 * max(abs(coeffs[n - k]) ** (1.0 / k)
                       for k in range(1, n + 1))
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
    residuals = [abs(_horner(coeffs, z)) for z in zs]
    # a NaN residual compares false, so it fails here too
    if not all(r <= tol * scale * 100 for r in residuals):
        raise ConvergenceError(
            f"root residual {max(residuals):.3e} above tolerance after "
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


def _require_simple_roots(q: Poly, x0: Rat) -> None:
    """Raise MultipleRootError unless disc_z q != 0; a linear q has one
    simple root."""
    if q.degree("z") > 1 and discriminant(q, "z").is_zero():
        raise MultipleRootError(f"Q(x0={x0}, z) has a multiple root")


def _vanishes_at_a_root(q: Poly, p: Poly) -> bool:
    """Whether p has a zero at some root of q: res_z(q, p) == 0.  For p
    constant in z the resultant is p^deg q."""
    if p.degree("z") < 1:
        return p.is_zero()
    return resultant(q, p, "z").is_zero()


def _coupling_divides(qp: QPolynomial, x0: Rat, f: Poly) -> bool:
    """Whether Q(x0, .) divides P(x0, .); raises
    DegenerateDerivativeError when Qx vanishes at a root."""
    q, qx, qxx, qxxx = _x_slices(qp, x0)
    if _vanishes_at_a_root(q, qx):
        raise DegenerateDerivativeError(
            f"dQ/dx vanishes at a root of Q(x0={x0}, z); resample x0")
    v = qp.v.eval({"x": x0})
    p = qxx * qxx - 2 * qx * qxxx - 4 * f - 4 * v * qx * qx
    try:
        p.exact_div(q)
    except NotDivisibleError:
        return False
    return True


def roots_z(qp: QPolynomial, params: dict | None, x0,
            tol_root: float = 1e-12) -> RootData:
    """All g roots of Q(x0, z), with distinctness certified exactly.

    A vanishing disc_z Q(x0, .) would falsify the no-multiple-roots
    property of Q and raises MultipleRootError rather than resampling.
    """
    qp = _bind(qp, params)
    x0 = Rat(x0)
    qz = qp.q.eval({"x": x0})
    _require_simple_roots(qz, x0)
    gammas = durand_kerner(_to_complex_coeffs(qz), tol=tol_root)
    qx = _to_complex_coeffs(qp.q.diff("x").eval({"x": x0}))
    qzd = _to_complex_coeffs(qz.diff("z"))
    gamma_primes = [-_horner(qx, gm) / _horner(qzd, gm) for gm in gammas]
    return RootData(x0=x0, gammas=gammas, gamma_primes=gamma_primes)


def verify_potential_recovery(qp: QPolynomial, params: dict | None, x0,
                              tol: float = 1e-8) -> dict:
    """V(x0) = (Qxx^2 - 2 Qx Qxxx - 4F) / (4 Qx^2) at every root of
    Q(x0, .), with F the curve that (*) gives for qp; fails when (*) gives
    no x-free F for this Q and V.  tol is not read (the check is exact);
    it stays because bench/replay.py passes it.
    """
    qp = _bind(qp, params)
    x0 = Rat(x0)
    try:
        f = extract_curve(qp).as_poly()
    except (XDependenceError, DegreeError):
        ok = False
    else:
        ok = _coupling_divides(qp, x0, f)
    return {"name": "potential_recovery", "x0": str(x0), "pass": ok}


def verify_krichever(qp: QPolynomial, curve: SpectralCurve,
                     params: dict | None, x0, tol: float = 1e-6) -> dict:
    """The coupling d0 = v0^2 + v0*d1 - v0' at every pole of Q(x0, .), on
    both sheets of w^2 = F, with F from the given curve; simple_poles in
    the report is the number of poles, g.  tol is not read (the check is
    exact); it stays because bench/replay.py passes it.
    """
    qp = _bind(qp, params)
    curve = curve.eval_params(params) if params else curve
    x0 = Rat(x0)
    q = qp.q.eval({"x": x0})
    f = curve.as_poly()
    _require_simple_roots(q, x0)
    if _vanishes_at_a_root(q, f):
        raise DegenerateDerivativeError(
            f"a root of Q(x0={x0}, z) is a branch point of the curve; "
            f"resample x0")
    return {"name": "krichever_relation", "x0": str(x0),
            "simple_poles": q.degree("z"),
            "pass": _coupling_divides(qp, x0, f)}
