"""Commuting operator pairs (order 4, order 4g+2) and their certificates.

The quartic operator is L = (D^2 + V)^2 + W with the cubic potential V and
W = g(g+1)*a3*x.  Its companion M of order 4g+2 is assembled in closed
form from Q(x, z) = sum_j q_j(x) z^j:

    M = sum_j ( q_j*(D^2 + V) - q_j'*D + (1/2)*q_j'' ) ∘ L^j,

which realizes multiplication by the second curve coordinate w on common
eigenfunctions.  Every polynomial in L here is summed by Horner's rule,
R <- R∘L + B_j from the top block down, so no power of L is formed.  The
certificates below are independent of the derivation of the closed form.
[L, M] = 0 is verified by direct Weyl-algebra expansion.  M^2 = F(L) is
certified without forming M^2 or F(L), in two lines:

  (<=) if [L, M] = 0, then R = M^2 - F(L) commutes with L, as the
       coefficients of F are x-free.  The top coefficient of [L, R] is
       4*r_d' for R of order d (Burchnall-Chaundy 1923), so a nonzero R
       has an x-free leading coefficient: R = 0 exactly when the x^0 part
       of every coefficient of R vanishes;
  (=>) if M^2 = F(L), then L and M lie in the centralizer of M^2, which
       is commutative (Amitsur, Pacific J. Math. 1958): [L, M] = 0.

The x^0 lemma.  Write X(p) for the x^0 part of p, its value at x = 0,
which may still hold parameters.  X is a ring map, so the exchange rule
(a∘b)_o = sum C(i,k) a_i b_j^(k) gives X(a∘b)_o = sum C(i,k) X(a_i)
X(b_j^(k)), with X(b_j^(k)) = k! [x^k]b_j.  So X(a∘b) reads only X(a)
and the x^k coefficients of b for k <= ord(a), which is how
weyl.x0_of_product computes it, and X(a∘b) = X(X(a)∘b).  Hence X(M^2)
is x0_of_product(M, M), and X(F(L)) comes from Horner's rule over x^0
parts, R <- X(R∘L) + c_j from R = 1, with every R x-free.

A commutant solver provides a second, independent route to M: it solves
[L, M] = 0 from L alone and finds every monic commuting operator of a
given order n.  Each run(t), t = 0..n, solves for D^t + lower terms one
coefficient at a time from the top order down (the Burchnall-Chaundy
recursion) with every integration constant 0.  As [L, .] is linear, the
solutions are the run(n) + sum_k c_k run(k) whose leftover low-order
brackets cancel, and one echelon reduction finds those c_k.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .curve import PARAM_NAMES, ParamError
from .poly import Poly, Rat
from .qsolver import (QPolynomial, _x_derivs, build_q, extract_curve,
                      potentials, resolve_alphas)
from .weyl import (DiffOp, commutator, op_mul, poly_of_products,
                   x0_of_product)


class OperatorPair(namedtuple("OperatorPair", "g l4 m curve q")):
    """g: int, L = l4 and M = m: DiffOp, the SpectralCurve and the
    QPolynomial they were built from.  No __slots__: the instance
    __dict__ holds the cached bracket."""

    @cached_property
    def bracket(self) -> DiffOp:
        """[L, M], computed once and shared by both certificates."""
        return commutator(self.l4, self.m)


def build_quartic(g: int, params: dict | None = None) -> DiffOp:
    """The self-adjoint quartic D^4 + 2V D^2 + 2V' D + (V^2 + V'' + W)."""
    if g < 1:
        raise ParamError(f"genus must be >= 1, got {g}")
    alphas = resolve_alphas(params)
    v, w = potentials(g, alphas)
    return quartic_from_potentials(v, w)


def quartic_from_potentials(v: Poly, w: Poly) -> DiffOp:
    vx = v.diff("x")
    f0 = v * v + vx.diff("x") + w
    return DiffOp([f0, 2 * vx, 2 * v, Poly.zero(), Poly.one()])


def build_companion(qp: QPolynomial, l4: DiffOp) -> DiffOp:
    """Closed-form companion operator of order 4g+2.

    On a common eigenfunction (L psi = z psi, psi'' given by the
    second-order reduction) the operator acts as multiplication by w.  The
    blocks in q_j, q_j', q_j'' multiply on the LEFT of the powers of L;
    the opposite order breaks commutation.  Horner's rule sums them by
    g steps R <- R∘H∘H + R∘W + B_j, l4 = H∘H + W with H = D^2 + V.
    """
    qcs = qp.q_z_coeffs()
    if not (qcs and qcs[-1] == Poly.one()):
        raise ValueError("Q must be monic in z")
    v = qp.v
    half = Rat(1, 2)
    blocks = []
    for qj in qcs:
        qjx = qj.diff("x")
        blocks.append(DiffOp([qj * v + half * qjx.diff("x"), -qjx, qj]))
    h = DiffOp([v, Poly.zero(), Poly.one()])
    return poly_of_products(blocks, l4, [[h, h], [DiffOp([qp.w])]])


def build_pair(g: int, params: dict | None = None) -> OperatorPair:
    qp = build_q(g, params)
    curve = extract_curve(qp)
    l4 = quartic_from_potentials(qp.v, qp.w)
    m = build_companion(qp, l4)
    return OperatorPair(g=g, l4=l4, m=m, curve=curve, q=qp)


def verify_commutation(pair: OperatorPair) -> DiffOp:
    """[L, M]; the zero operator certifies commutation."""
    return pair.bracket


def verify_square_identity(pair: OperatorPair) -> DiffOp:
    """An operator that is zero exactly when M^2 = F(L), so that the zero
    operator certifies that the pair lies on the curve w^2 = F(z).

    It is [L, M] when that is nonzero, else the x^0 parts of the
    coefficients of R = M^2 - F(L); the module docstring has the proof.
    For L of order n the top coefficient of [L, R] is n*r_d' only when
    the leading coefficient of L is x-free, so L must be monic of order
    n >= 1.  Neither M^2, F(L) nor any power of L is formed: the x^0
    lemma of the module docstring gives both x^0 parts.
    """
    l4 = pair.l4
    if l4.order() < 1 or l4.coeffs[-1] != Poly.one():
        raise ValueError("the square certificate needs a monic L of "
                         "positive order")
    if not pair.bracket.is_zero():
        return pair.bracket
    x0_f_of_l = DiffOp.identity()
    for c in reversed(pair.curve.coeffs):
        x0_f_of_l = DiffOp(x0_of_product(x0_f_of_l, l4)) + DiffOp([c])
    return DiffOp(x0_of_product(pair.m, pair.m)) - x0_f_of_l


# -- independent commutant solver -------------------------------------------

def _lead(op: DiffOp):
    """The leading term of a nonzero operator, (len(coeffs), largest
    packed monomial key of the top coefficient), and its coefficient."""
    top = op.coeffs[-1]
    key = max(top.terms)
    return (len(op.coeffs), key), Rat(top.terms[key], top.den)


def _reduce(op: DiffOp, combo: dict, pivots: dict):
    """Subtract (lc_op / lc_pivot) * pivot while op's leading term is a
    pivot's; return the rest and combo, updated to match.  pivots maps a
    leading term to (pivot, its combination {index: Rat}); their leading
    terms differ, so a nonzero rest whose leading term is no pivot's lies
    outside their span."""
    while not op.is_zero():
        lead, lc = _lead(op)
        if lead not in pivots:
            break
        pivot, pivot_combo = pivots[lead]
        f = lc / _lead(pivot)[1]
        op = op - pivot.scale(f)
        for i, c in pivot_combo.items():
            combo[i] = combo.get(i, 0) - f * c
    return op, combo


def _echelon(ops: list[DiffOp]):
    """Reduce each op in turn by the pivots of those before it.  Returns
    (pivots, dependent): a nonzero rest becomes the pivot of its leading
    term, and an op that reduces to zero adds its combination, its own
    index at 1, to dependent."""
    pivots: dict = {}
    dependent = []
    for k, op in enumerate(ops):
        rest, combo = _reduce(op, {k: 1}, pivots)
        if rest.is_zero():
            dependent.append(combo)
        else:
            pivots[_lead(rest)[0]] = (rest, combo)
    return pivots, dependent


def _integrate_x(p: Poly) -> Poly:
    nums, den = p.x_nums()
    lcm = math.lcm(*(d + 1 for d in nums))
    return Poly.from_x_nums({d + 1: c * (lcm // (d + 1))
                             for d, c in nums.items()}, den * lcm)


def commutant_solve(l4: DiffOp, order: int, known: DiffOp | None = None):
    """All monic operators M of the given order with [L, M] = 0, for a
    monic L of order four with numeric coefficients.

    The recursion step (Burchnall-Chaundy 1923): [L, m*D^j] has no term
    above D^(j+3), and its D^(j+3) coefficient is 4*m'.  So run(t) finds
    M_t = D^t + sum_{k<t} m_k D^k from the top order down: m_k =
    -(1/4)*integral(R_k), R_k the D^(k+3) coefficient of [L, sum_{j>k}
    m_j D^j], with every integration constant 0.  R_k sums over every
    j > k, not only j <= k+3: in (m_j D^j)(l_i D^i) the term m_j*l_i^(s)
    reaches D^(i+j-s) for every s up to deg l_i.  An antiderivative of a
    polynomial is a polynomial, so no degree bound is guessed.  What is
    left of [L, M_t] is v(t), its D^0..D^2 part.

    [L, .] is linear, and a constant c_k added to m_k adds c_k*M_k to
    the result, so the monic solutions of order n are M_n + sum_k c_k M_k
    with v(n) + sum_k c_k v(k) = 0.  _echelon takes v(0), v(1), ... in
    turn: one spanned by those before gives the basis vector with c_k =
    1, any other becomes a pivot, and v(n) must reduce to zero.  These
    are the free-column basis and the particular solution of reduced row
    echelon form.

    Returns (particular, basis): the affine solution set is particular +
    span(basis).  Raises ValueError when the system is inconsistent.  If
    `known` is supplied it does not steer the solve; it must lie in the
    returned set, else ValueError (the set is complete, so a known
    commuting operator outside it means a defect).  The solver reads only
    L, never Q or the closed-form companion.
    """
    if any(c.degree(name) > 0 for c in l4.coeffs for name in PARAM_NAMES):
        raise ValueError("commutant_solve requires numeric parameters")
    if l4.order() != 4 or l4.coeff(4) != Poly.one():
        raise ValueError("commutant_solve requires a monic L of order 4")
    # [L, m*D^j] = sum_e D^(j+e) * sum_{i-s=e} (C(i,s)*l_i*m^(s) -
    # C(j,s)*l_i^(s)*m), s >= 1 as the s = 0 terms of L*M and M*L cancel.
    # left[e] lists (s, C(i,s)*l_i) for e <= 2; the one e = 3 term, 4*m',
    # cancels R_j by the choice of m_j and is never formed.  right[j][e]
    # is the sum of -C(j,s)*l_i^(s), s up to deg l_i, shared by all runs.
    left = [[] for _ in range(3)]
    right = [{} for _ in range(order + 1)]
    for i, li in enumerate(l4.coeffs):
        for s in range(max(1, i - 2), i + 1):
            left[i - s].append((s, math.comb(i, s) * li))
        ds = li
        for s in range(1, order + 1):
            ds = ds.diff("x")
            if ds.is_zero():
                break
            for j in range(s, order + 1):
                right[j][i - s] = (right[j].get(i - s, Poly.zero())
                                   - math.comb(j, s) * ds)

    def run(t: int):
        """(the coefficients of M_t, v(t)), every integration constant 0."""
        m = [Poly.zero()] * t + [Poly.one()]
        acc = [Poly.zero()] * (t + 3)  # acc[r]: D^r coefficient of [L, M_t]
        for j in range(t, -1, -1):
            if j < t:
                m[j] = Rat(-1, 4) * _integrate_x(acc[j + 3])
            derivs = _x_derivs(m[j], 4)
            for e, p in right[j].items():
                acc[j + e] += p * m[j]
            for e, terms in enumerate(left):
                for s, p in terms:
                    acc[j + e] += p * derivs[s]
        return m, DiffOp(acc[:3])

    runs = [run(t) for t in range(order + 1)]
    pivots, basis_combos = _echelon([v for _, v in runs[:order]])
    rest, particular_combo = _reduce(runs[order][1], {}, pivots)
    if not rest.is_zero():
        raise ValueError(
            f"no monic operator of order {order} commutes with L")

    def assemble(combo, coeffs):
        coeffs = list(coeffs)
        for t, u in combo.items():
            for k, mk in enumerate(runs[t][0]):
                coeffs[k] += u * mk
        return DiffOp(coeffs)

    particular = assemble(particular_combo, runs[order][0])
    basis = [assemble(c, [Poly.zero()] * order) for c in basis_combos]
    if known is not None and not in_affine_span(known, particular, basis):
        raise ValueError("known operator lies outside the commutant of L")
    return particular, basis


def in_affine_span(op: DiffOp, particular: DiffOp,
                   basis: list[DiffOp]) -> bool:
    """Whether op = particular + rational combination of basis: with the
    basis in echelon form, op - particular must reduce to zero."""
    pivots, _ = _echelon(basis)
    return _reduce(op - particular, {}, pivots)[0].is_zero()


def is_power_span(basis: list[DiffOp], l4: DiffOp, g: int) -> bool:
    """Whether every basis element lies in span{1, L, ..., L^g}."""
    powers = [DiffOp.identity()]
    while len(powers) <= g:
        powers.append(op_mul(powers[-1], l4))
    pivots, _ = _echelon(powers)
    return all(_reduce(b, {}, pivots)[0].is_zero() for b in basis)
