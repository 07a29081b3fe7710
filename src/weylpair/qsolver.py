"""Construction of the polynomial Q(x, z) and the spectral polynomial.

For the quartic operator (D^2 + V)^2 + W with the cubic potential

    V = a3*x^3 + a2*x^2 + a1*x + a0,      W = g(g+1)*a3*x,   a3 != 0,

there is a polynomial Q(x, z), of degree g in each of x and z, such that

    4*F(z) = 4*(z - W)*Q^2 - 4*V*(Q')^2 + (Q'')^2 - 2*Q'*Q'''
             + 2*Q*(2*V'*Q' + 4*V*Q'' + Q'''')                     (*)

holds with F a monic polynomial of degree 2g+1 in z alone (primes are
x-derivatives).  This module builds Q coefficient-by-coefficient from the
fifth-order linear ODE obtained by differentiating (*), by a recursion
that divides by nothing, extracts F, and provides exact residual checks
for every identity involved.

(*) is written once, in curve_rhs_jet, on the jet of Q, V and W.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from itertools import accumulate

from .curve import SpectralCurve
from .errors import (PARAM_NAMES, DegenerateDerivativeError, DegreeError,
                     MultipleRootError, ParamError, XDependenceError,
                     check_a3)
from .poly import Poly, Rat


def resolve_alphas(params: dict | None) -> tuple[Poly, Poly, Poly, Poly]:
    """Turn a parameter binding into four coefficient polynomials.

    params maps a subset of {a0, a1, a2, a3} to rational values (int, Rat
    or "num/den" string); unbound parameters stay symbolic.  Binding a3 to
    zero is rejected (errors.check_a3).
    """
    params = params or {}
    unknown = set(params) - set(PARAM_NAMES)
    if unknown:
        raise ParamError(f"unknown parameters {sorted(unknown)}")
    out = []
    for name in PARAM_NAMES:
        if name in params and params[name] is not None:
            out.append(Poly.rat(params[name]))
        else:
            out.append(Poly.var(name))
    check_a3(out[3])
    return tuple(out)


def potentials(g: int, alphas) -> tuple[Poly, Poly]:
    """The potentials (V, W) for genus g and the given parameter polys."""
    a0, a1, a2, a3 = alphas
    x = Poly.var("x")
    v = a3 * x**3 + a2 * x**2 + a1 * x + a0
    w = Rat(g * (g + 1)) * a3 * x
    return v, w


class QPolynomial(namedtuple("QPolynomial", "g deltas q v w")):
    """Q(x, z) together with its coefficient ladder and potentials.

    deltas[s] is the raw coefficient of x^s produced by the recursion
    (deltas[g] = a3^g, deltas[s] = a3^s eps_s); q is their sum rescaled by
    a rational constant so that its z^g coefficient is exactly 1.  v and w
    are the potentials.
    """

    __slots__ = ()

    def q_z_coeffs(self) -> list[Poly]:
        """[z^j]Q for j = 0..g, as polynomials in x and parameters."""
        return self.q.coeffs_in("z")


def build_deltas(g: int, params: dict | None = None) -> list[Poly]:
    """Coefficient ladder of Q = sum_s delta_s(z) x^s, from top down.

    The x^s coefficient of the fifth-order ODE of Q (derived_ode_residual;
    arXiv:1107.3356) on sum_t delta_t x^t is 2(s+1) R_s + A_s delta_s, with
    A_s = -2 a3 (g-s)(s+g+1)(2s+1) and

        R_s = 2 (a2 (s+1)^2 + z) delta_{s+1} + a1 (s+2)(2s+3) delta_{s+2}
              + 2 a0 (s+2)(s+3) delta_{s+3}
              + 1/2 (s+2)(s+3)(s+4)(s+5) delta_{s+5},

    delta_t = 0 for t > g.  A_g = 0 frees delta_g = a3^g, and each s < g
    sets delta_s = (s+1) R_s / (a3 (g-s)(s+g+1)(2s+1)).  With delta_t =
    a3^t eps_t and eps_g = 1 the step divides by nothing: eps_s =
    (s+1) R'_s / ((g-s)(s+g+1)(2s+1)), R'_s being R_s with each delta_t
    read as eps_t and its a1, a0 and 1/2 terms times a3, a3^2 and a3^4.
    """
    if g < 1:
        raise ParamError(f"genus must be >= 1, got {g}")
    a0, a1, a2, a3 = resolve_alphas(params)
    z = Poly.var("z")
    a3sq = a3 * a3
    b1, b0, b5 = a1 * a3, a0 * a3sq, a3sq * a3sq
    eps = [Poly.zero()] * (g + 5)
    eps[g] = Poly.one()
    for s in range(g - 1, -1, -1):
        acc = (a2 * Rat(2 * (s + 1) ** 2) + 2 * z) * eps[s + 1]
        acc = acc + b1 * Rat((s + 2) * (2 * s + 3)) * eps[s + 2]
        acc = acc + b0 * Rat(2 * (s + 2) * (s + 3)) * eps[s + 3]
        acc = acc + (b5 * Rat((s + 2) * (s + 3) * (s + 4) * (s + 5), 2)
                     * eps[s + 5])
        eps[s] = acc * Rat(s + 1, (g - s) * (s + g + 1) * (2 * s + 1))
    powers = accumulate([a3] * g, operator.mul)  # a3^1, ..., a3^g
    return [eps[0]] + [p * e for p, e in zip(powers, eps[1:g + 1])]


def build_q(g: int, params: dict | None = None) -> QPolynomial:
    """Q = sum delta_s x^s, rescaled monic in z: (*) forces a monic Q once
    F is monic, and the sum fixes Q only up to a constant.  Only
    2z delta_{s+1} raises the z-degree, so the z^g coefficient is that of
    delta_0, the nonzero rational prod_{s<g} 2(s+1) / ((g-s)(s+g+1)(2s+1))."""
    deltas = build_deltas(g, params)
    raw = sum((d * Poly.var("x", s) for s, d in enumerate(deltas)),
              Poly.zero())
    q = raw * Poly.rat(1 / deltas[0].coeff_in("z", g).const_value())
    v, w = potentials(g, resolve_alphas(params))
    return QPolynomial(g=g, deltas=tuple(deltas), q=q, v=v, w=w)


def _x_derivs(q: Poly, n: int) -> list[Poly]:
    """[q, q', ..., q^(n)], derivatives in x."""
    out = [q]
    for _ in range(n):
        out.append(out[-1].diff("x"))
    return out


def curve_rhs_jet(q, q1, q2, q3, q4, v, v1, w) -> Poly:
    """Right-hand side of (*), which must equal 4*F(z), on the jet: Q, Q',
    ..., Q'''' and V, V', W as polynomials in x, or their values at one x.
    Regrouped as three products of Q-sized factors,

        Q*(4(z - W)Q + 4V'Q' + 8VQ'' + 2Q'''') - Q'*(4VQ' + 2Q''') + Q''^2.
    """
    z = Poly.var("z")
    return (q * (4 * (z - w) * q + 4 * v1 * q1 + 8 * v * q2 + 2 * q4)
            - q1 * (4 * v * q1 + 2 * q3) + q2 ** 2)


def curve_rhs(q: Poly, v: Poly, w: Poly) -> Poly:
    """rhs(*) for all x, curve_rhs_jet on the polynomials; an oracle."""
    return curve_rhs_jet(*_x_derivs(q, 4), v, v.diff("x"), w)


def curve_at_x0(qp: QPolynomial) -> Poly:
    """rhs(*)/4 at x = 0, read off the jet of Q, V and W there."""
    jet = (*_x_derivs(qp.q, 4), qp.v, qp.v.diff("x"), qp.w)
    return curve_rhs_jet(*(p.coeff_in("x", 0) for p in jet)) * Rat(1, 4)


def extract_curve(qp: QPolynomial) -> SpectralCurve:
    """F = rhs(*)/4.  d/dx rhs(*) = 2Q E for every Q, V and W, with E =
    derived_ode_residual(qp), so rhs(*) is x-free exactly when E = 0 (Q = 0
    gives E = 0 and F = 0), else XDependenceError.  An x-free rhs(*) is
    curve_at_x0; it must be monic of degree 2g+1 in z, else DegreeError."""
    g = qp.g
    if not derived_ode_residual(qp).is_zero():
        raise XDependenceError(
            "spectral polynomial retained x-dependence; Q does not satisfy "
            "the defining identity")
    f = curve_at_x0(qp)
    dz = f.degree("z")
    if dz != 2 * g + 1:
        raise DegreeError(f"expected degree {2*g+1} in z, got {dz}")
    *coeffs, lead = f.coeffs_in("z")
    if lead != 1:
        raise DegreeError(f"spectral polynomial not monic: lead = {lead}")
    return SpectralCurve(g=g, coeffs=tuple(coeffs))


def curve_identity_residual(qp: QPolynomial, curve: SpectralCurve) -> Poly:
    """4*F(z) minus the right-hand side of (*); must vanish exactly.  An
    oracle of the tests and bench/replay.py, kept until the replay calls
    pairs.verify_pair, which reads curve_identity off E and curve_at_x0."""
    return 4 * curve.as_poly() - curve_rhs(qp.q, qp.v, qp.w)


def derived_ode_residual(qp: QPolynomial) -> Poly:
    """Residual of the fifth-order linear ODE of Q, d/dx(*) / (2Q):

        Q^(5) + 4V Q^(3) + 2Q'(2z - 2W + V'') + 6V' Q'' - 2Q W'.

    Only qp.q, qp.v and qp.w are read.  With the potentials of
    potentials(), V'' = 6 a3 x + 2 a2 and W = g(g+1) a3 x, it reads

        Q^(5) + 4V Q^(3) + 4(a2 - (g^2+g-3) a3 x + z) Q'
        + 6V' Q'' - 2g(g+1) a3 Q.

    Zero exactly when Q solves the equation; any scalar multiple of a
    solution also gives zero.
    """
    z, v, w = Poly.var("z"), qp.v, qp.w
    d = _x_derivs(qp.q, 5)
    return (d[5] + 4 * v * d[3] + 6 * v.diff("x") * d[2]
            + 2 * d[1] * (2 * z - 2 * w + v.diff("x").diff("x"))
            - 2 * d[0] * w.diff("x"))


# the q_ode check and the derived_ode check are the same residual
q_ode_residual = derived_ode_residual


def trace_identity_residual(qp: QPolynomial, curve: SpectralCurve) -> Poly:
    """W - 2*[z^(g-1)]Q + c_{2g}: the sum of the z-roots of Q is
    -[z^(g-1)]Q, so this is the root-free form of the trace relation
    W = -2*(sum of roots) - c_{2g}."""
    sub = qp.q.coeff_in("z", qp.g - 1)
    return qp.w - 2 * sub + curve.coeffs[2 * qp.g]
