"""Construction of the polynomial Q(x, z) and the spectral polynomial.

For the quartic operator (D^2 + V)^2 + W with the cubic potential

    V = a3*x^3 + a2*x^2 + a1*x + a0,      W = g(g+1)*a3*x,   a3 != 0,

there is a polynomial Q(x, z), of degree g in each of x and z, such that

    4*F(z) = 4*(z - W)*Q^2 - 4*V*(Q')^2 + (Q'')^2 - 2*Q'*Q'''
             + 2*Q*(2*V'*Q' + 4*V*Q'' + Q'''')                     (*)

holds with F a monic polynomial of degree 2g+1 in z alone (primes are
x-derivatives).  This module builds Q coefficient-by-coefficient from the
fifth-order linear ODE obtained by differentiating (*), extracts F, and
provides exact residual checks for every identity involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Poly, Rat
from .curve import SpectralCurve, ParamError


class RecursionDivisionError(ArithmeticError):
    """A coefficient-recursion step failed to divide exactly by a3."""


class NormalizationError(ValueError):
    """The assembled Q has no constant nonzero z^g coefficient."""


class XDependenceError(ArithmeticError):
    """The extracted spectral polynomial retained x-dependence."""


class DegreeError(ValueError):
    """The extracted spectral polynomial has the wrong shape in z."""


_ALPHA_NAMES = ("a0", "a1", "a2", "a3")


def resolve_alphas(params: dict | None) -> tuple[Poly, Poly, Poly, Poly]:
    """Turn a parameter binding into four coefficient polynomials.

    params maps a subset of {a0, a1, a2, a3} to rational values (int, Rat
    or "num/den" string); unbound parameters stay symbolic.  Binding a3 to
    zero is rejected: the construction divides by a3.
    """
    params = params or {}
    unknown = set(params) - set(_ALPHA_NAMES)
    if unknown:
        raise ParamError(f"unknown parameters {sorted(unknown)}")
    out = []
    for name in _ALPHA_NAMES:
        if name in params and params[name] is not None:
            value = Poly.rat(params[name])
            if name == "a3" and value.is_zero():
                raise ParamError("a3 must be nonzero")
            out.append(value)
        else:
            out.append(Poly.var(name))
    return tuple(out)


def potentials(g: int, alphas) -> tuple[Poly, Poly]:
    """The potentials (V, W) for genus g and the given parameter polys."""
    a0, a1, a2, a3 = alphas
    x = Poly.var("x")
    v = a3 * x**3 + a2 * x**2 + a1 * x + a0
    w = Rat(g * (g + 1)) * a3 * x
    return v, w


@dataclass(frozen=True)
class QPolynomial:
    """Q(x, z) together with its coefficient ladder and potentials.

    deltas[s] is the raw coefficient of x^s produced by the recursion
    (seeded with deltas[g] = a3^g); q is the assembled sum rescaled by a
    rational constant so that its z^g coefficient is exactly 1.  v and w
    are the potentials, alphas the four parameter polynomials.
    """

    g: int
    deltas: tuple[Poly, ...]
    q: Poly
    v: Poly
    w: Poly
    alphas: tuple[Poly, Poly, Poly, Poly]

    def q_z_coeffs(self) -> list[Poly]:
        """[z^j]Q for j = 0..g, as polynomials in x and parameters."""
        return self.q.coeffs_in("z")

    def eval_params(self, params: dict) -> "QPolynomial":
        """Bind (more) parameters to rational values."""
        alphas = tuple(a.eval(params) for a in self.alphas)
        if alphas[3].is_zero():
            raise ParamError("a3 must be nonzero")
        return QPolynomial(
            g=self.g,
            deltas=tuple(d.eval(params) for d in self.deltas),
            q=self.q.eval(params),
            v=self.v.eval(params),
            w=self.w.eval(params),
            alphas=alphas,
        )


def build_deltas(g: int, params: dict | None = None) -> list[Poly]:
    """Coefficient ladder of Q = sum_s delta_s(z) x^s, from top down.

    delta_g = a3^g; for s < g,

        delta_s = (s+1) / (a3 (g-s)(s+g+1)(2s+1)) * (
                    2 (a2 (s+1)^2 + z) delta_{s+1}
                  + a1 (s+2)(2s+3) delta_{s+2}
                  + 2 a0 (s+2)(s+3) delta_{s+3}
                  + 1/2 (s+2)(s+3)(s+4)(s+5) delta_{s+5} )

    with delta_t = 0 for t > g.  The a3^g seed makes every division by a3
    an exact polynomial division; a failed division signals a defect in the
    recursion itself and aborts loudly.
    """
    if g < 1:
        raise ParamError(f"genus must be >= 1, got {g}")
    a0, a1, a2, a3 = resolve_alphas(params)
    z = Poly.var("z")
    deltas: list[Poly] = [Poly.zero()] * (g + 1)
    deltas[g] = a3**g

    def delta(t: int) -> Poly:
        return deltas[t] if t <= g else Poly.zero()

    for s in range(g - 1, -1, -1):
        acc = (a2 * Rat(2 * (s + 1) ** 2) + 2 * z) * delta(s + 1)
        acc = acc + a1 * Rat((s + 2) * (2 * s + 3)) * delta(s + 2)
        acc = acc + a0 * Rat(2 * (s + 2) * (s + 3)) * delta(s + 3)
        acc = acc + Rat((s + 2) * (s + 3) * (s + 4) * (s + 5), 2) * delta(s + 5)
        acc = acc * Rat(s + 1, (g - s) * (s + g + 1) * (2 * s + 1))
        try:
            deltas[s] = acc.exact_div(a3)
        except Exception as exc:
            raise RecursionDivisionError(
                f"delta_{s} is not divisible by a3") from exc
    return deltas


def assemble_q(deltas: list[Poly], params: dict | None = None) -> QPolynomial:
    """Assemble Q = sum delta_s x^s and rescale it monic in z.

    The identity (*) forces a monic Q once F is required monic; the raw sum
    determines Q only up to a constant.  The z^g coefficient of the raw sum
    must be a nonzero rational constant for the rescaling to stay inside
    the polynomial ring.
    """
    g = len(deltas) - 1
    x = Poly.var("x")
    raw = Poly.zero()
    for s, d in enumerate(deltas):
        raw = raw + d * x**s
    lead = raw.coeff_in("z", g)
    if not lead.is_constant() or lead.is_zero():
        raise NormalizationError(
            f"z^{g} coefficient of assembled Q is not a nonzero constant: "
            f"{lead}")
    q = raw * Poly.rat(1 / lead.const_value())
    alphas = resolve_alphas(params)
    v, w = potentials(g, alphas)
    return QPolynomial(g=g, deltas=tuple(deltas), q=q, v=v, w=w,
                       alphas=alphas)


def build_q(g: int, params: dict | None = None) -> QPolynomial:
    return assemble_q(build_deltas(g, params), params)


def _x_derivs(q: Poly, n: int) -> list[Poly]:
    out = [q]
    for _ in range(n):
        out.append(out[-1].diff("x"))
    return out


def q_ode_residual(qp: QPolynomial) -> Poly:
    """Residual of the fifth-order linear ODE that Q must satisfy:

        Q^(5) + 4V Q^(3) + 4(a2 - (g^2+g-3) a3 x + z) Q'
        + 6V' Q'' - 2g(g+1) a3 Q.

    Zero exactly when Q solves the equation; any scalar multiple of a
    solution also gives zero.
    """
    g = qp.g
    _, _, a2, a3 = qp.alphas
    x = Poly.var("x")
    z = Poly.var("z")
    d = _x_derivs(qp.q, 5)
    res = d[5] + 4 * qp.v * d[3]
    res = res + 4 * (a2 - Rat(g * g + g - 3) * a3 * x + z) * d[1]
    res = res + 6 * qp.v.diff("x") * d[2]
    res = res - Rat(2 * g * (g + 1)) * a3 * d[0]
    return res


def curve_rhs(q: Poly, v: Poly, w: Poly) -> Poly:
    """Right-hand side of (*): the expression that must equal 4*F(z)."""
    z = Poly.var("z")
    d = _x_derivs(q, 4)
    rhs = 4 * (z - w) * d[0] ** 2
    rhs = rhs - 4 * v * d[1] ** 2
    rhs = rhs + d[2] ** 2
    rhs = rhs - 2 * d[1] * d[3]
    rhs = rhs + 2 * d[0] * (2 * v.diff("x") * d[1] + 4 * v * d[2] + d[4])
    return rhs


def extract_curve(qp: QPolynomial) -> SpectralCurve:
    """Evaluate (*) on Q and read off the spectral polynomial F.

    The result must be x-free (a strong internal consistency check) and
    monic of degree 2g+1 in z; violations abort with XDependenceError or
    DegreeError.
    """
    g = qp.g
    f4 = curve_rhs(qp.q, qp.v, qp.w)
    f = f4 * Poly.rat(Rat(1, 4))
    if f.degree("x") > 0:
        raise XDependenceError(
            "spectral polynomial retained x-dependence; Q does not satisfy "
            "the defining identity")
    dz = f.degree("z")
    if dz != 2 * g + 1:
        raise DegreeError(f"expected degree {2*g+1} in z, got {dz}")
    lead = f.coeff_in("z", dz)
    if not (lead.is_constant() and lead.const_value() == 1):
        raise DegreeError(f"spectral polynomial not monic: lead = {lead}")
    coeffs = [f.coeff_in("z", i) for i in range(2 * g + 1)]
    return SpectralCurve(g=g, coeffs=tuple(coeffs))


def curve_identity_residual(qp: QPolynomial, curve: SpectralCurve) -> Poly:
    """4*F(z) minus the right-hand side of (*); must vanish exactly."""
    return 4 * curve.as_poly() - curve_rhs(qp.q, qp.v, qp.w)


def derived_ode_residual(qp: QPolynomial) -> Poly:
    """Residual of the companion identity d/dx(*) / (2Q):

        Q^(5) + 4V Q^(3) + 2Q'(2z - 2W + V'') + 6V' Q'' - 2Q W'.

    Only qp.q, qp.v and qp.w are read.  With the potentials of
    potentials(), V'' = 6 a3 x + 2 a2 and W = g(g+1) a3 x, this is the
    same linear operator on Q as q_ode_residual, term by term, so on any
    Q it returns the same residual: the check repeats q_ode.
    """
    z = Poly.var("z")
    q, v, w = qp.q, qp.v, qp.w
    d = _x_derivs(q, 5)
    return (d[5] + 4 * v * d[3]
            + 2 * d[1] * (2 * z - 2 * w + v.diff("x").diff("x"))
            + 6 * v.diff("x") * d[2]
            - 2 * q * w.diff("x"))


def trace_identity_residual(qp: QPolynomial, curve: SpectralCurve) -> Poly:
    """W - 2*[z^(g-1)]Q + c_{2g}: the sum of the z-roots of Q is
    -[z^(g-1)]Q, so this is the root-free form of the trace relation
    W = -2*(sum of roots) - c_{2g}."""
    sub = qp.q.coeff_in("z", qp.g - 1)
    return qp.w - 2 * sub + curve.coeffs[2 * qp.g]
