"""Exact rational functions on the spectral curve, and their expansions.

A CurveFun is (A + B*w) / Q^m in the coordinate ring of w^2 = F(z): A and
B are polynomials in x, z and the parameters, Q is the fixed polynomial of
the active construction, and w^2 is always rewritten to F.  Since {1, w}
is a free module basis over the polynomial ring, a CurveFun is zero
exactly when A = B = 0, so no division by Q and no polynomial gcd is
required anywhere.

The module builds the coefficients u0, u1 of the second-order reduction

    psi'' = u1 * psi' + u0 * psi

satisfied by common eigenfunctions, verifies that the quartic operator
acts on such psi as multiplication by z, and expands curve functions at
the point at infinity in the local parameter k = 1/sqrt(z).  It is the
oracle of the entries `weylpair verify` reads off the curve identity.
"""

from __future__ import annotations

from collections import namedtuple

from .curve import SpectralCurve
from .poly import Poly, Rat
from .qsolver import QPolynomial, trace_identity_residual
from .series import LaurentSeries, TruncationError, series_from_poly
from .weyl import DiffOp


class ContextMismatchError(ValueError):
    """Arithmetic between curve functions over different (Q, F) contexts."""


class CurveContext(namedtuple("CurveContext", "q curve")):
    """The (QPolynomial, SpectralCurve) a curve function lives over."""

    __slots__ = ()

    def __new__(cls, q: QPolynomial, curve: SpectralCurve):
        if q.g != curve.g:
            raise ContextMismatchError("genus mismatch between Q and curve")
        return super().__new__(cls, q, curve)

    # _replace builds through _make; keep it behind the check above
    _make = classmethod(lambda cls, fields: cls(*fields))

    def matches(self, other: "CurveContext") -> bool:
        return (self.q.q == other.q.q
                and self.curve.coeffs == other.curve.coeffs)


class CurveFun:
    """(A + B*w) / Q^m, with no common factor of Q cancelled.

    No operation divides by Q: the representation is not unique, and m
    only grows.  The zero test needs no reduced form, because {1, w} is a
    free basis and Q^m is a nonzero polynomial: (A + B*w) / Q^m = 0
    exactly when A = B = 0, whatever m is.  Equality is the zero test of
    the difference.
    """

    __slots__ = ("ctx", "a", "b", "m")

    def __init__(self, ctx: CurveContext, a: Poly, b: Poly, m: int):
        if m < 0:
            raise ValueError("denominator exponent must be >= 0")
        self.ctx = ctx
        self.a = a
        self.b = b
        self.m = m

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(ctx: CurveContext, p: Poly) -> "CurveFun":
        return CurveFun(ctx, p, Poly.zero(), 0)

    @staticmethod
    def w(ctx: CurveContext) -> "CurveFun":
        return CurveFun(ctx, Poly.zero(), Poly.one(), 0)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def _require_ctx(self, other: "CurveFun") -> None:
        if not self.ctx.matches(other.ctx):
            raise ContextMismatchError(
                "curve functions live on different curves")

    def __eq__(self, other):
        if not isinstance(other, CurveFun):
            return NotImplemented
        self._require_ctx(other)
        return (self - other).is_zero()

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "CurveFun") -> "CurveFun":
        self._require_ctx(other)
        q = self.ctx.q.q
        m = max(self.m, other.m)
        fs = q ** (m - self.m)
        fo = q ** (m - other.m)
        return CurveFun(self.ctx, self.a * fs + other.a * fo,
                        self.b * fs + other.b * fo, m)

    def __neg__(self) -> "CurveFun":
        return CurveFun(self.ctx, -self.a, -self.b, self.m)

    def __sub__(self, other: "CurveFun") -> "CurveFun":
        return self + (-other)

    def __mul__(self, other: "CurveFun") -> "CurveFun":
        self._require_ctx(other)
        f = self.ctx.curve.as_poly()
        a = self.a * other.a + self.b * other.b * f
        b = self.a * other.b + self.b * other.a
        return CurveFun(self.ctx, a, b, self.m + other.m)

    def diff_x(self) -> "CurveFun":
        """x-derivative by the quotient rule; w and z are point
        coordinates, constant in x."""
        q = self.ctx.q.q
        mqx = self.m * q.diff("x")
        a = self.a.diff("x") * q - mqx * self.a
        b = self.b.diff("x") * q - mqx * self.b
        return CurveFun(self.ctx, a, b, self.m + 1)

    def __str__(self):
        num = f"({self.a})"
        if not self.b.is_zero():
            num += f" + ({self.b})*w"
        if self.m == 0:
            return num
        return f"[{num}] / Q^{self.m}"

    def __repr__(self):
        return f"CurveFun({self})"


def reduction_coefficients(qp: QPolynomial,
                           curve: SpectralCurve) -> tuple[CurveFun, CurveFun]:
    """The coefficients (u0, u1) of psi'' = u1 psi' + u0 psi:

        u0 = -(1/2) Q''/Q + w/Q - V,        u1 = Q'/Q

    with Q' = dQ/dx.  u1 is invariant under the sheet involution (it has
    no w part), which encodes self-adjointness of the quartic operator.
    """
    ctx = CurveContext(q=qp, curve=curve)
    q = qp.q
    u0 = CurveFun(ctx,
                  Rat(-1, 2) * q.diff("x").diff("x") - qp.v * q,
                  Poly.one(), 1)
    u1 = CurveFun(ctx, q.diff("x"), Poly.zero(), 1)
    return u0, u1


def reduction_residuals(u0: CurveFun, u1: CurveFun,
                        l4: DiffOp) -> tuple[CurveFun, CurveFun]:
    """Act with the quartic on solutions of the second-order reduction.

    Writing L4 psi = R0 psi + R1 psi' via repeated use of
    psi'' = u1 psi' + u0 psi, the pair must satisfy R0 = z and R1 = 0.
    Returns (R0 - z, R1) as curve functions; both must be exactly zero.
    """
    if l4.order() != 4 or l4.coeff(4) != Poly.one() or not l4.coeff(3).is_zero():
        raise ValueError("expected monic quartic with zero cubic term")
    ctx = u0.ctx
    f0 = CurveFun.from_poly(ctx, l4.coeff(0))
    f1 = CurveFun.from_poly(ctx, l4.coeff(1))
    f2 = CurveFun.from_poly(ctx, l4.coeff(2))
    two = CurveFun.from_poly(ctx, Poly.rat(2))
    three = CurveFun.from_poly(ctx, Poly.rat(3))
    u0x = u0.diff_x()
    u1x = u1.diff_x()
    r0 = (f0 + f2 * u0 + u0 * u0 + u1 * u0x
          + u0 * (u1 * u1 + two * u1x) + u0x.diff_x())
    r1 = (f1 + f2 * u1 + u1 * u1 * u1 + two * u0x
          + u1 * (two * u0 + three * u1x) + u1x.diff_x())
    zfun = CurveFun.from_poly(ctx, Poly.var("z"))
    return r0 - zfun, r1


def expand_w(curve: SpectralCurve, trunc: int) -> LaurentSeries:
    """Series of w = sqrt(F(z)) at infinity in k = 1/sqrt(z), on the branch
    with leading term k^-(2g+1), to O(k^trunc).

    w = k^-d sqrt(k^(2d) F) with d = 2g+1, so the unit k^(2d) F, and F
    itself, are needed only to O(k^(trunc+d)) and O(k^(trunc-d)).
    """
    d = 2 * curve.g + 1
    if trunc <= -d:
        return LaurentSeries.zero(trunc)
    unit = series_from_poly(curve.as_poly(), trunc - d).shift(2 * d)
    return unit.sqrt().shift(-d)


def expand_at_infinity(u: CurveFun, order: int) -> LaurentSeries:
    """Laurent expansion of a curve function at infinity, O(k^order).

    Substitutes z = k^(-2) and w = k^-(2g+1) sqrt(1 + c_{2g} k^2 + ...),
    expands 1/Q^m geometrically, and multiplies out.  Each factor is
    taken only as far as the result needs: Q is monic of z-degree g, so
    Q^-m = k^(2gm)(1 + O(k)), and the numerator N = A + B*w is needed to
    O(k^n) with n = order - 2gm, B*w = k^(val B - 2g - 1)(...) to the
    same order, and Q^-m to O(k^(order - val N)).  TruncationError if
    the result still falls short of O(k^order).
    """
    if order < 1:
        raise ValueError("expansion order must be >= 1")
    g = u.ctx.curve.g
    n = order - 2 * g * u.m
    # when B*w = O(k^n), B = 0 included, b_s is the zero series
    # O(k^(n+2g+1)) and w is asked for to O(k^-(2g+1)), which is zero
    b_s = series_from_poly(u.b, n + 2 * g + 1)
    num = (series_from_poly(u.a, n)
           + b_s * expand_w(u.ctx.curve, n - b_s.val))
    if num.is_zero():
        return LaurentSeries.zero(order)
    if u.m:
        q_s = series_from_poly(u.ctx.q.q,
                               order - num.val - 2 * g * (u.m + 1))
        num = num * q_s.inverse() ** u.m
    if num.trunc < order:
        raise TruncationError(
            f"expansion reached only O(k^{num.trunc}), "
            f"needed O(k^{order})")
    return num


def expansion_report(s0: LaurentSeries, s1: LaurentSeries,
                     qp: QPolynomial, curve: SpectralCurve) -> dict:
    """Check every identity readable from the expansions at infinity.

    s0, s1 are the expansions of u0 and u1.  Verifies that u0 starts as
    1/k, that its constant and k^1 coefficients recover the potentials
    (-V and -W/2), that the self-adjointness criterion holds (k^1
    coefficient of u1 vanishes, and in fact every odd coefficient), and
    the root-free trace relation W = 2*[z^(g-1)]Q - c_{2g}.
    """
    need = 2 * qp.g + 5
    if s1.trunc < need + 1 or s0.trunc < 2:
        raise TruncationError(
            f"expansions must reach O(k^{need+1}) for the odd-coefficient "
            "sweep")
    checks = {}
    checks["leading_term"] = (s0.val == -1
                              and s0.coeff(-1) == Poly.one())
    checks["potential_v"] = s0.coeff(0) == -qp.v
    checks["potential_w"] = s0.coeff(1) == qp.w.exact_div(Poly.rat(-2))
    checks["self_adjoint_b1"] = s1.coeff(1).is_zero()
    odd_ok = True
    for n in s1.known_range():
        if n % 2 and not s1.coeff(n).is_zero():
            odd_ok = False
            break
    checks["odd_coeffs_vanish"] = odd_ok
    checks["trace_identity"] = trace_identity_residual(qp, curve).is_zero()
    checks["all"] = all(checks.values())
    return checks
