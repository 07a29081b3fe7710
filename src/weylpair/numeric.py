"""Checks at the z-roots of Q(x0, z), at a rational sample point x0.

The roots are algebraic numbers, but each statement about them is one
about polynomials in z at the rational x0, so it is checked exactly.  With
C = 4F - rhs(*) the curve residual and P = Qxx^2 - 2 Qx Qxxx - 4F - 4V Qx^2
(primes in x, all at x0), P = -C - Q (4(z-W)Q + 4V'Qx + 8V Qxx + 2Qxxxx):

- root distinctness is disc_z Q(x0, .) != 0;
- potential recovery, V(x0) = (Qxx^2 - 2 Qx Qxxx - 4F) / (4 Qx^2) at every
  root, is Q(x0, .) dividing P(x0, .) and res_z(Q, Qx) != 0; for the F of
  (*), C = 0, so it is that extract_curve succeeds and res_z(Q, Qx) != 0;
- the Krichever-Novikov pole coupling d0 = v0^2 + v0 d1 - v0' between the
  residues c0, c1 and regular parts d0, d1 of the reduction coefficients
  u0 = (-Qxx/2 + w)/Q - V and u1 = Qx/Q has the residual
  P(gamma) / (4 Qx(gamma)^2) at a pole gamma on either sheet (the w terms
  cancel), so it is Q(x0, .) dividing the curve residual C(x0, .), for
  the given F, once disc_z Q != 0 and res_z(Q, F) != 0 make every pole
  simple and off the branch points.

Both are the curve identity (*) reduced mod Q, which curve_identity
proves for all x.  A vanishing discriminant raises MultipleRootError, a
vanishing res_z(Q, Qx) or res_z(Q, F) DegenerateDerivativeError: the
sample point must be re-drawn.  poly.shares_root decides each "!= 0" and
poly.divides the divisibility, so no root is ever approximated.  A
parameter left in Q, V, W or F raises ParamError; no check reads params.
"""

from __future__ import annotations

from .curve import SpectralCurve, require_bound
from .errors import (DegenerateDerivativeError, DegreeError,
                     MultipleRootError, XDependenceError)
from .poly import Poly, Rat, divides, shares_root
from .qsolver import QPolynomial, _x_derivs, curve_rhs_jet, extract_curve


def _vanishes_at_a_root(q: Poly, p: Poly) -> bool:
    """Whether p has a zero at some root of q: res_z(q, p) == 0.  For p
    constant in z the resultant is p^deg q."""
    if p.degree("z") < 1:
        return p.is_zero()
    return shares_root(q, p, "z")


def _x_slices(qp: QPolynomial, x0: Rat, n: int,
              distinct: bool = False) -> list[Poly]:
    """Q and its first n x-derivatives at x = x0, as polynomials in z.
    With distinct, raises MultipleRootError when disc_z Q(x0, .) = 0 (a
    linear slice has one simple root); then, for n >= 1, raises
    DegenerateDerivativeError when Qx vanishes at a root of Q."""
    slices = [p.eval({"x": x0}) for p in _x_derivs(qp.q, n)]
    q = slices[0]
    if distinct and q.degree("z") > 1 and shares_root(q, q.diff("z"), "z"):
        raise MultipleRootError(f"Q(x0={x0}, z) has a multiple root")
    if n and _vanishes_at_a_root(q, slices[1]):
        raise DegenerateDerivativeError(
            f"dQ/dx vanishes at a root of Q(x0={x0}, z); resample x0")
    return slices


def roots_z(qp: QPolynomial, params: dict | None, x0,
            tol_root: float = 1e-12) -> Poly:
    """The slice Q(x0, z), certified to have g distinct roots.

    A vanishing disc_z Q(x0, .) would falsify the no-multiple-roots
    property of Q and raises MultipleRootError rather than resampling.
    params and tol_root are not read (no root is approximated);
    bench/replay.py passes them.
    """
    require_bound(qp.q, qp.v)
    return _x_slices(qp, Rat(x0), 0, distinct=True)[0]


def verify_potential_recovery(qp: QPolynomial, params: dict | None, x0,
                              tol: float = 1e-8) -> dict:
    """V(x0) = (Qxx^2 - 2 Qx Qxxx - 4F) / (4 Qx^2) at every root of
    Q(x0, .), with F the curve that (*) gives for qp: fails when
    extract_curve raises XDependenceError or DegreeError, and otherwise
    holds by the identity in the module docstring.  params and tol are not
    read (the check is exact).  An oracle of the tests and bench/replay.py,
    which passes them, until the replay calls pairs.verify_pair.
    """
    require_bound(qp.q, qp.v, qp.w)
    x0 = Rat(x0)
    try:
        extract_curve(qp)
    except (XDependenceError, DegreeError):
        ok = False
    else:
        _x_slices(qp, x0, 1)  # raises where Qx vanishes at a root
        ok = True
    return {"name": "potential_recovery", "x0": str(x0), "pass": ok}


def verify_krichever(qp: QPolynomial, curve: SpectralCurve,
                     params: dict | None, x0, tol: float = 1e-6) -> dict:
    """The coupling d0 = v0^2 + v0*d1 - v0' at every pole of Q(x0, .), on
    both sheets of w^2 = F, with F from the given curve: Q(x0, .) divides
    the curve residual C(x0, .) = 4F - rhs(*)(x0, .); simple_poles in the
    report is the number of poles, g.  params and tol are not read (the
    check is exact); bench/replay.py passes them.  It evaluates Q(x0, .)
    once and raises in the order of roots_z, verify_potential_recovery and
    the branch point.
    """
    f = curve.as_poly()
    require_bound(qp.q, qp.v, qp.w, f)
    x0 = Rat(x0)
    slices = _x_slices(qp, x0, 4, distinct=True)
    q = slices[0]
    at = {"x": x0}
    v, v1, w = (p.eval(at) for p in (qp.v, qp.v.diff("x"), qp.w))
    c = 4 * f - curve_rhs_jet(*slices, v, v1, w)
    if _vanishes_at_a_root(q, f):
        raise DegenerateDerivativeError(
            f"a root of Q(x0={x0}, z) is a branch point of the curve; "
            f"resample x0")
    return {"name": "krichever_relation", "x0": str(x0),
            "simple_poles": q.degree("z"), "pass": divides(q, c, "z")}
