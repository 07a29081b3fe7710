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

commutant_solve is a second, independent route to M, from L alone; its
docstring has the recursion.

Why M is self-adjoint (arXiv:1107.3356; Burchnall-Chaundy 1923).  For
L* = L, [L, M*] = -[L, M]*, so [L, M* - M] = -([L, M] + [L, M]*): once
[L, M] = 0, M* - M commutes with L, and its order is below 4g+2, as M is
monic of even order.  The basis that commutant_solve(L, 4g+2) returns
spans every operator of order below 4g+2 that commutes with L, so where
is_power_span accepts it, that is span{1, L, ..., L^g}: the monic
commuting orders below 4g+2 are 0, 4, ..., 4g, which for a nonsingular
curve are twice the pole orders at its branch point at infinity, whose
gaps are 1, 3, ..., 2g-1.  Then M* - M = sum_k c_k L^k with constant c_k,
and taking adjoints gives sum_k c_k L^k = -sum_k c_k L^k, so every c_k is
0 and M* = M.  The tests check the span at g = 1..6 on seeded numeric
parameters.

verify_pair(pair, samples) is the one verification engine: it certifies
the pair it is given, for the CLI and the tests alike.  With E the
fifth-order residual of Q and C = 4F - rhs(*), C' = -2Q E in a domain,
so C = 0 exactly when E = 0 and C = 0 at x = 0.  Each check reads one
certificate, formed once:

    q_ode, derived_ode    E = 0
    curve_identity        E = 0 and 4F = rhs(*) at x = 0 (curve_at_x0)
    trace_identity        W - 2[z^(g-1)]Q + c_2g = 0
    reduction_*, series_* those two, Q's shape and L's normal form
    self_adjoint_l4, _m   L* = L; X(M*) = X(M), once [L, M] = 0
    commutation           [L, M] = 0, formed once as pair.bracket
    square_identity       [L, M] = 0 and X(M^2) = X(F(L))
    curve_nonsingular     disc_z F != 0, where no parameter occurs
    the root-level checks one numeric.verify_krichever call per sample
                          point; potential_recovery also needs E = 0 and
                          rhs(*)/4 at x = 0 monic of degree 2g+1
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .curve import is_nonsingular
from .errors import (INTERNAL_ERRORS, PARAM_NAMES, MultipleRootError,
                     ParamError)
from .poly import Poly, Rat
from .qsolver import (QPolynomial, _x_derivs, build_q, curve_at_x0,
                      derived_ode_residual, extract_curve, potentials,
                      resolve_alphas, trace_identity_residual)
from .weyl import (DiffOp, adjoint, commutator, is_self_adjoint, op_mul,
                   poly_of_products, x0_of_adjoint, x0_of_product)


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


def verify_self_adjoint(pair: OperatorPair) -> DiffOp:
    """An operator that is zero exactly when M* = M.

    When L is monic of positive order, L* = L and [L, M] = 0, then
    R = M* - M commutes with L (module docstring), so, as in
    verify_square_identity, R = 0 exactly when the x^0 parts of its
    coefficients vanish; it is those x^0 parts, read by x0_of_adjoint
    from Taylor coefficients of M.  Otherwise it is M* - M in full.
    """
    l4, m = pair.l4, pair.m
    if (l4.order() < 1 or l4.coeffs[-1] != Poly.one()
            or not pair.bracket.is_zero() or not is_self_adjoint(l4)):
        return adjoint(m) - m
    return (DiffOp(x0_of_adjoint(m))
            - DiffOp([c.coeff_in("x", 0) for c in m.coeffs]))


def verify_pair(pair: OperatorPair, samples: int = 3) -> list[dict]:
    """The checks of `weylpair verify` on the pair, in report order, at
    x0 = 1/2, 3/2, ...; "pass" is None where a check is skipped."""
    g, qp, curve = pair.g, pair.q, pair.curve
    checks = []

    def add(name, passed, detail=""):
        checks.append({"name": name, "pass": passed, "detail": detail})

    ode_ok = derived_ode_residual(qp).is_zero()
    f0 = curve_at_x0(qp)
    curve_ok = ode_ok and f0 == curve.as_poly()
    add("q_ode", ode_ok, "fifth-order linear ODE residual of Q")
    add("curve_identity", curve_ok,
        "4F equals the quadratic expression in Q, V, W")
    add("derived_ode", ode_ok, "x-derivative companion identity")
    trace_ok = trace_identity_residual(qp, curve).is_zero()
    add("trace_identity", trace_ok, "W = 2[z^(g-1)]Q - c_2g")
    # L = (D^2+V)^2+W reduces by psi'' = u1 psi' + u0 psi, u1 = Q'/Q and
    # u0 = (-Q''/2 + w)/Q - V, to R0 + R1 D.  For every Q (arXiv:1107.3356
    # §2; curvefun is the oracle):
    #     R0 - z = C / (4 Q^2),   R1 = 0,
    #     [k^1]u0 = -W/2  <=>  trace_identity,  for Q monic of z-degree g,
    # and such a Q makes u1 an even O(k^2) series in k = 1/sqrt(z) and u0 =
    # 1/k - V + O(k).  The series entries fail closed on any other Q.
    normal = pair.l4 == quartic_from_potentials(qp.v, qp.w)
    monic = qp.q.degree("z") == g and qp.q.coeff_in("z", g) == 1
    add("reduction_psi", normal and curve_ok, "psi-coefficient equals z")
    add("reduction_dpsi", normal, "psi'-coefficient vanishes")
    for key in ("leading_term", "potential_v", "potential_w",
                "self_adjoint_b1", "odd_coeffs_vanish"):
        add(f"series_{key}", monic and (trace_ok or key != "potential_w"))
    add("self_adjoint_l4", is_self_adjoint(pair.l4))
    add("self_adjoint_m", verify_self_adjoint(pair).is_zero())
    add("commutation", verify_commutation(pair).is_zero(), "[L4, M] = 0")
    add("square_identity", verify_square_identity(pair).is_zero(),
        "M^2 = F(L4)")
    if any(p.degree(name) > 0 for p in (qp.q, qp.v, qp.w, curve.as_poly())
           for name in PARAM_NAMES):
        for name in ("curve_nonsingular", "root_distinctness",
                     "potential_recovery", "krichever_relation"):
            add(name, None, "skipped: symbolic parameters")
        return checks
    from .numeric import verify_krichever
    add("curve_nonsingular", is_nonsingular(curve, {}),
        "disc_z F != 0 at the bound parameters")
    # a corrupted Q must surface as failed checks, not a crash
    couplings, root_errors, errors = [], [], []
    for x0 in (Rat(2 * i + 1, 2) for i in range(samples)):
        try:
            couplings.append(verify_krichever(qp, curve, None, x0)["pass"])
        except MultipleRootError as exc:
            root_errors.append(f"{type(exc).__name__}: {exc}")
            errors.append(f"not run at x0={x0}: {root_errors[-1]}")
        except INTERNAL_ERRORS as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
    add("root_distinctness", not root_errors,
        "; ".join(root_errors) or "disc_z Q(x0, z) != 0")
    extracts = (ode_ok and f0.degree("z") == 2 * g + 1
                and f0.coeff_in("z", 2 * g + 1) == 1)
    detail = "; ".join(errors)
    add("potential_recovery", extracts and not errors, detail
        or "Q(x0, z) divides Qxx^2 - 2QxQxxx - 4F - 4VQx^2; "
           "res_z(Q, Qx) != 0")
    add("krichever_relation", all(couplings) and not errors,
        detail or "the same divisibility; res_z(Q, F) != 0")
    return checks


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

    So the basis spans every operator A of order t < n that commutes with
    L: A has a constant leading coefficient c (the top coefficient of
    [L, A] is 4c'), and A/c is a monic solution of order t, run(t) +
    sum_{k<t} c_k run(k) with v(t) + sum_k c_k v(k) = 0, a dependency
    among v(0), ..., v(n-1) that _echelon records.  At n = 4g+2 this is
    the span hypothesis of M* = M in the module docstring.

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
