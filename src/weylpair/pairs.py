"""Commuting operator pairs (order 4, order 4g+2) and their certificates.

The quartic operator is L = (D^2 + V)^2 + W with the cubic potential V and
W = g(g+1)*a3*x.  Its companion M of order 4g+2 is assembled in closed
form from Q(x, z) = sum_j q_j(x) z^j:

    M = sum_j ( q_j*(D^2 + V) - q_j'*D + (1/2)*q_j'' ) ∘ L^j,

which realizes multiplication by the second curve coordinate w on common
eigenfunctions.  The certificates below ([L, M] = 0 and M^2 = F(L)) are
verified by direct Weyl-algebra expansion, so they are independent of the
derivation of the closed form.  A linear-algebra commutant solver provides
a second, independent route to M.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import ParamError, SpectralCurve
from .poly import Poly, Rat
from .qsolver import QPolynomial, potentials, resolve_alphas
from .weyl import DiffOp, anticommutator, commutator, op_mul, poly_of_op


class DegreeBoundTooSmallError(RuntimeError):
    """The commutant solver's coefficient degree bound excluded a known
    solution even after escalation."""


@dataclass(frozen=True)
class OperatorPair:
    g: int
    l4: DiffOp
    m: DiffOp
    curve: SpectralCurve
    q: QPolynomial


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


def verify_commutation(pair: OperatorPair) -> DiffOp:
    """[L, M]; the zero operator certifies commutation."""
    return commutator(pair.l4, pair.m)


def verify_square_identity(pair: OperatorPair) -> DiffOp:
    """M*M - F(L); the zero operator certifies that the pair lies on the
    curve w^2 = F(z)."""
    coeffs = list(pair.curve.coeffs) + [Poly.one()]
    return op_mul(pair.m, pair.m) - poly_of_op(coeffs, pair.l4)


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

def _coefficient_bound(order: int, i: int, slack: int) -> int:
    # weight heuristic: wt(x) = 2, wt(D) = 3 makes D^2 + x^3 homogeneous
    return (3 * order - 3 * i + 1) // 2 + slack


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


def _op_from_coeffs(order: int, bounds: list[int], u: list[Rat]) -> DiffOp:
    coeffs = []
    idx = 0
    for i in range(order):
        p = Poly.zero()
        for d in range(bounds[i] + 1):
            if u[idx]:
                p = p + Poly.monomial(u[idx], {"x": d})
            idx += 1
        coeffs.append(p)
    coeffs.append(Poly.one())
    return DiffOp(coeffs)


def commutant_solve(l4: DiffOp, order: int, slack: int = 0,
                    max_escalations: int = 3,
                    known: DiffOp | None = None):
    """All monic operators M of the given order with [L, M] = 0, found by
    exact linear algebra over the rationals.

    Coefficients are sought with deg_x(u_i) <= ceil((3*order - 3i)/2) +
    slack, the quasi-homogeneous bound for the cubic-potential family.
    Returns (particular, basis): the affine solution set is particular +
    span(basis).  If `known` is supplied and falls outside the solution
    set, the bound is escalated; exhausting the escalations raises
    DegreeBoundTooSmallError.
    """
    for c in l4.coeffs:
        for name in ("a0", "a1", "a2", "a3"):
            if c.degree(name) > 0:
                raise ValueError(
                    "commutant_solve requires numeric parameters")
    while True:
        bounds = [_coefficient_bound(order, i, slack) for i in range(order)]
        unknowns = sum(b + 1 for b in bounds)
        # residual of the fixed monic part
        base = commutator(l4, DiffOp.d(order))
        columns = []
        for i in range(order):
            for d in range(bounds[i] + 1):
                e = DiffOp([Poly.zero()] * i + [Poly.var("x", d) if d else Poly.one()])
                columns.append(commutator(l4, e))
        max_order = max([base.order()] + [c.order() for c in columns if not c.is_zero()])
        max_xdeg = 0
        for opv in columns + [base]:
            for c in opv.coeffs:
                max_xdeg = max(max_xdeg, c.degree("x"))
        rows = []
        rhs = []
        for oi in range(max_order + 1):
            for xd in range(max_xdeg + 1):
                row = []
                for cv in columns:
                    cf = cv.coeff(oi).coeff_in("x", xd)
                    row.append(cf.const_value())
                b = base.coeff(oi).coeff_in("x", xd)
                if any(row) or not b.is_zero():
                    rows.append(row)
                    rhs.append(-b.const_value())
        solved = _nullspace_affine(rows, rhs) if rows else ([Rat(0)] * unknowns, [])
        if solved is None:
            raise DegreeBoundTooSmallError(
                f"no monic commutant of order {order} within degree bounds")
        particular_vec, basis_vecs = solved
        particular = _op_from_coeffs(order, bounds, particular_vec)
        basis = [_op_from_coeffs(order, bounds, v) - DiffOp.d(order)
                 for v in basis_vecs]
        if known is not None and not in_affine_span(known, particular, basis):
            if slack >= 2 * max_escalations:
                raise DegreeBoundTooSmallError(
                    "known companion outside solution space at slack "
                    f"{slack}")
            slack += 2
            continue
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
    powers = [DiffOp.identity()]
    for _ in range(g):
        powers.append(op_mul(powers[-1], l4))
    zero = DiffOp.zero()
    for b in basis:
        if not in_affine_span(b, zero, powers):
            return False
    return True
