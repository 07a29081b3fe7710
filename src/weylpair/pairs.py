"""Commuting operator pairs (order 4, order 4g+2) and their certificates.

The quartic operator is L = (D^2 + V)^2 + W with the cubic potential V and
W = g(g+1)*a3*x.  Its companion M of order 4g+2 is assembled in closed
form from Q(x, z) = sum_j q_j(x) z^j:

    M = sum_j ( q_j*(D^2 + V) - q_j'*D + (1/2)*q_j'' ) ∘ L^j,

which realizes multiplication by the second curve coordinate w on common
eigenfunctions.  The certificates below are independent of the derivation
of the closed form.  [L, M] = 0 is verified by direct Weyl-algebra
expansion.  M^2 = F(L) is certified without forming M^2 or F(L), in two
lines:

  (<=) if [L, M] = 0, then R = M^2 - F(L) commutes with L, as the
       coefficients of F are x-free.  The top coefficient of [L, R] is
       4*r_d' for R of order d (Burchnall-Chaundy 1923), so a nonzero R
       has an x-free leading coefficient: R = 0 exactly when the x^0 part
       of every coefficient of R vanishes;
  (=>) if M^2 = F(L), then L and M lie in the centralizer of M^2, which
       is commutative (Amitsur, Pacific J. Math. 1958): [L, M] = 0.

A commutant solver provides a second, independent route to M: it solves
[L, M] = 0 from L alone, one coefficient of M at a time from the top order
down (the Burchnall-Chaundy recursion), and finds every monic commuting
operator of a given order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .curve import ParamError, SpectralCurve
from .poly import Poly, Rat
from .qsolver import QPolynomial, potentials, resolve_alphas
from .weyl import DiffOp, anticommutator, commutator, op_mul, x0_of_product


@dataclass(frozen=True)
class OperatorPair:
    g: int
    l4: DiffOp
    m: DiffOp
    curve: SpectralCurve
    q: QPolynomial

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
    coefficients q_j, q_j', q_j'' multiply on the LEFT of the powers of L;
    the opposite order breaks commutation.
    """
    qcs = qp.q_z_coeffs()
    if not (qcs and qcs[-1] == Poly.one()):
        raise ValueError("Q must be monic in z")
    v = qp.v
    half = Rat(1, 2)
    result = DiffOp.zero()
    power = DiffOp.identity()
    for j, qj in enumerate(qcs):
        if j > 0:
            power = op_mul(power, l4)
        qjx = qj.diff("x")
        block = DiffOp([qj * v + half * qjx.diff("x"), -qjx, qj])
        result = result + op_mul(block, power)
    return result


def build_pair(g: int, params: dict | None = None) -> OperatorPair:
    from .qsolver import build_q, extract_curve

    qp = build_q(g, params)
    curve = extract_curve(qp)
    l4 = build_quartic(g, params)
    m = build_companion(qp, l4)
    return OperatorPair(g=g, l4=l4, m=m, curve=curve, q=qp)


def _powers(l4: DiffOp, n: int) -> list[DiffOp]:
    """[1, L, ..., L^n]."""
    powers = [DiffOp.identity()]
    for _ in range(n):
        powers.append(op_mul(powers[-1], l4))
    return powers


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
    n >= 1.  Neither M^2 nor F(L) is formed: with F(L) = A + L^h∘B,
    A = sum_(j<h) c_j L^j and B = sum_(j>=h) c_j L^(j-h), only L..L^h are
    built, and x0_of_product reads the x^0 parts of M∘M and L^h∘B.
    """
    l4 = pair.l4
    if l4.order() < 1 or l4.coeffs[-1] != Poly.one():
        raise ValueError("the square certificate needs a monic L of "
                         "positive order")
    if not pair.bracket.is_zero():
        return pair.bracket
    coeffs = list(pair.curve.coeffs) + [Poly.one()]
    h = len(coeffs) // 2
    powers = _powers(l4, h)

    def combine(cs: list[Poly]) -> DiffOp:
        return sum((p.scale(c) for p, c in zip(powers, cs)), DiffOp.zero())

    low = combine(coeffs[:h])
    return (DiffOp(x0_of_product(pair.m, pair.m))
            - DiffOp(x0_of_product(powers[h], combine(coeffs[h:])))
            - DiffOp([c.coeff_in("x", 0) for c in low.coeffs]))


# -- reference closed forms -------------------------------------------------

def reference_companion(g: int) -> DiffOp:
    """Known closed forms of the companion operator for the slice
    a1 = a2 = 0, a3 = 1 with symbolic a0, written in terms of
    H = D^2 + x^3 + a0 and the symmetrized product <A, B> = AB + BA.

    The genus-2 form carries a constant term -9.  Without it the form
    still commutes with L and is self-adjoint, but its square misses
    reference_curve_constants(2) applied to L by 18M + 81 (M the form
    with the -9), a residual of order 10.  With it, M^2 = F(L) holds
    exactly, and no other monic operator does: the commutant of L at
    order 10 is M + span{1, L, L^2}, and (M + p(L))^2 - F(L) =
    2p(L)M + p(L)^2 is a polynomial in L only when p = 0.  PAPER.md
    holds only the abstract, so this repository cannot tell whether the
    -9 was missing in the source or lost in transcription.
    """
    x = Poly.var("x")
    a0 = Poly.var("a0")
    h = DiffOp([x**3 + a0, Poly.zero(), Poly.one()])
    xop = DiffOp.from_poly(x)
    x2op = DiffOp.from_poly(x**2)
    if g == 2:
        return (h**5
                + Rat(15, 2) * anticommutator(xop, h**3)
                + 45 * anticommutator(x2op, h)
                - 9 * DiffOp.identity())
    if g == 3:
        lin = DiffOp.from_poly(113 * a0 + 287 * x**3)
        return (h**7
                + 21 * anticommutator(xop, h**5)
                + Rat(945, 2) * anticommutator(x2op, h**3)
                - 5418 * h**2
                + Rat(45, 2) * anticommutator(lin, h)
                - 486 * DiffOp.from_poly(x))
    raise ValueError(f"no reference form recorded for genus {g}")


def reference_curve_constants(g: int) -> Poly:
    """Known spectral polynomials for the same slice."""
    z = Poly.var("z")
    a0 = Poly.var("a0")
    if g == 2:
        return z**5 + 27 * a0 * z**2 + 81
    if g == 3:
        return z**7 + 594 * a0 * z**4 - 2025 * z**2 + 91125 * a0**2 * z
    raise ValueError(f"no reference curve recorded for genus {g}")


def operator_diff(a: DiffOp, b: DiffOp) -> list[tuple[int, Poly]]:
    """Per-order coefficient differences a - b, only the nonzero ones."""
    d = a - b
    return [(i, c) for i, c in enumerate(d.coeffs) if not c.is_zero()]


def match_reference_examples() -> dict:
    """Compare the constructed g = 2, 3 pairs against the recorded closed
    forms, coefficient by coefficient.  Mismatches are reported, not
    raised: the machine-checked certificates (commutation and the square
    identity) are authoritative, the recorded forms are not.  Both
    recorded companions square to their recorded F(L) exactly, a check
    that needs neither the construction nor the curve extraction; the
    genus-2 record gained its -9 term that way (see
    reference_companion), so both genera now match."""
    report = {}
    for g in (2, 3):
        pair = build_pair(g, {"a1": 0, "a2": 0, "a3": 1})
        ref_m = reference_companion(g)
        ref_f = reference_curve_constants(g)
        m_diff = operator_diff(pair.m, ref_m)
        f_diff = pair.curve.as_poly() - ref_f
        report[g] = {
            "curve_match": f_diff.is_zero(),
            "curve_diff": str(f_diff),
            "companion_match": not m_diff,
            "companion_diff": [(i, str(c)) for i, c in m_diff],
            "commutation_zero": verify_commutation(pair).is_zero(),
            "square_identity_zero": verify_square_identity(pair).is_zero(),
        }
    return report


# -- independent commutant solver -------------------------------------------

def _nullspace_affine(rows: list[list[Rat]], rhs: list[Rat]):
    """Exact solution set of rows*u = rhs over the rationals.

    Returns (particular, basis) where basis spans the homogeneous
    solutions, or None when the system is inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n]:
            return None
    particular = [Rat(0)] * n
    for i, col in enumerate(pivots):
        particular[col] = aug[i][n]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Rat(0)] * n
        vec[fc] = Rat(1)
        for i, col in enumerate(pivots):
            vec[col] = -aug[i][fc]
        basis.append(vec)
    return particular, basis


def _affine_map(form: dict, fn) -> dict:
    """Apply a linear map to every component of an affine form."""
    out = {}
    for key, c in form.items():
        c = fn(c)
        if not c.is_zero():
            out[key] = c
    return out


def _affine_add(acc: dict, form: dict) -> None:
    for key, c in form.items():
        total = acc.get(key, Poly.zero()) + c
        if total.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = total


def _integrate_x(p: Poly) -> Poly:
    nums, den = p.x_nums()
    lcm = math.lcm(*(d + 1 for d in nums))
    return Poly.from_x_nums({d + 1: c * (lcm // (d + 1))
                             for d, c in nums.items()}, den * lcm)


def commutant_solve(l4: DiffOp, order: int, known: DiffOp | None = None):
    """All monic operators M of the given order with [L, M] = 0, for a
    monic L of order four with numeric coefficients.

    Write M = D^n + sum_k m_k D^k.  By the Burchnall-Chaundy recursion
    the D^(k+3) coefficient of [L, M] is 4*m_k' + R_k, where R_k involves
    only the m_j with j > k (the j = k-1 terms cancel).  R_k must sum
    over every j > k, not only j <= k+3: in (m_j D^j)(l_i D^i) the term
    m_j*l_i^(s) reaches D^(i+j-s) for every s up to deg l_i.  Going from
    k = n-1 down to 0, m_k = -(1/4)*integral(R_k) + c_k with one fresh
    constant c_k per order, so each m_k is an affine form in the
    constants: a dict from None (the constant part) and each k' to the
    polynomial multiplying 1 and c_k'.  The antiderivative of a
    polynomial is a polynomial, so no degree bound is guessed and the set
    found is the whole solution set.  What remains, the D^0..D^2
    coefficients of [L, M], is a linear system in the n constants.

    Returns (particular, basis): the affine solution set is particular +
    span(basis).  Raises ValueError when the system is inconsistent.  If
    `known` is supplied it does not steer the solve; it must lie in the
    returned set, else ValueError (the set is complete, so a known
    commuting operator outside it means a defect).  The solver reads only
    L, never Q or the closed-form companion.
    """
    for c in l4.coeffs:
        for name in ("a0", "a1", "a2", "a3"):
            if c.degree(name) > 0:
                raise ValueError(
                    "commutant_solve requires numeric parameters")
    if l4.order() != 4 or l4.coeff(4) != Poly.one():
        raise ValueError("commutant_solve requires a monic L of order 4")
    # l_derivs[i][s] = l_i^(s), for s up to deg l_i
    l_derivs = []
    for li in l4.coeffs:
        ds = [li]
        while not ds[-1].is_zero():
            ds.append(ds[-1].diff("x"))
        l_derivs.append(ds[:-1])
    # acc[r]: D^r coefficient of [L, sum of the m_j D^j solved so far]
    acc: list[dict] = [{} for _ in range(order + 4)]

    def add_commutator(j: int, mj: dict) -> None:
        m_derivs = [mj]
        for _ in range(4):
            m_derivs.append(_affine_map(m_derivs[-1],
                                        lambda c: c.diff("x")))
        # the s = 0 terms of L*M and M*L cancel, so s starts at 1
        for i, ds in enumerate(l_derivs):
            if not ds:
                continue
            for s in range(1, i + 1):  # (l_i D^i)(m_j D^j)
                p = math.comb(i, s) * ds[0]
                _affine_add(acc[i + j - s],
                            _affine_map(m_derivs[s], lambda c: c * p))
            for s in range(1, min(j, len(ds) - 1) + 1):  # (m_j D^j)(l_i D^i)
                p = -math.comb(j, s) * ds[s]
                _affine_add(acc[i + j - s], _affine_map(mj, lambda c: c * p))

    m = [None] * order + [{None: Poly.one()}]
    add_commutator(order, m[order])
    for k in range(order - 1, -1, -1):
        mk = _affine_map(acc[k + 3], lambda c: Rat(-1, 4) * _integrate_x(c))
        mk[k] = Poly.one()
        m[k] = mk
        add_commutator(k, mk)
    # D^0..D^2: one equation per (order, power of x); a single zero row
    # when none is left, so that every constant is free
    rows, rhs = [[Rat(0)] * order], [Rat(0)]
    for form in acc[:3]:
        cols = {}
        for key, c in form.items():
            nums, den = c.x_nums()
            cols[key] = {d: Rat(n, den) for d, n in nums.items()}
        for d in sorted(set().union(*cols.values())):
            rows.append([cols[c].get(d, Rat(0)) if c in cols else Rat(0)
                         for c in range(order)])
            rhs.append(-cols.get(None, {}).get(d, Rat(0)))
    solved = _nullspace_affine(rows, rhs)
    if solved is None:
        raise ValueError(
            f"no monic operator of order {order} commutes with L")
    particular_vec, basis_vecs = solved

    def assemble(vec, const):
        coeffs = []
        for mk in m:
            p = mk.get(None, Poly.zero()) if const else Poly.zero()
            for c, u in enumerate(vec):
                if u and c in mk:
                    p = p + u * mk[c]
            coeffs.append(p)
        return DiffOp(coeffs)

    particular = assemble(particular_vec, True)
    basis = [assemble(v, False) for v in basis_vecs]
    if known is not None and not in_affine_span(known, particular, basis):
        raise ValueError("known operator lies outside the commutant of L")
    return particular, basis


def in_affine_span(op: DiffOp, particular: DiffOp,
                   basis: list[DiffOp]) -> bool:
    """Whether op = particular + rational combination of basis, decided by
    exact linear solve on the coefficient vectors."""
    delta = op - particular
    monos: dict = {}
    vecs = []
    for b in basis:
        entries = {}
        for i, c in enumerate(b.coeffs):
            for exps, coeff in c.sorted_terms():
                monos.setdefault((i, exps), len(monos))
                entries[(i, exps)] = coeff
        vecs.append(entries)
    target = {}
    for i, c in enumerate(delta.coeffs):
        for exps, coeff in c.sorted_terms():
            monos.setdefault((i, exps), len(monos))
            target[(i, exps)] = coeff
    rows = []
    rhs = []
    for key in monos:
        rows.append([v.get(key, Rat(0)) for v in vecs])
        rhs.append(target.get(key, Rat(0)))
    solved = _nullspace_affine(rows, rhs)
    return solved is not None


def is_power_span(basis: list[DiffOp], l4: DiffOp, g: int) -> bool:
    """Whether every basis element lies in span{1, L, ..., L^g}."""
    powers = _powers(l4, g)
    zero = DiffOp.zero()
    for b in basis:
        if not in_affine_span(b, zero, powers):
            return False
    return True
