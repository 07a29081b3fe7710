"""The commuting pair: construction, certificates, reference forms, and
the independent commutant solver."""

import hashlib
import json
import math
import random

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from weylpair import pairs, weyl
from weylpair.curve import ParamError, SpectralCurve
from weylpair.pairs import (OperatorPair, build_companion, build_pair,
                            build_quartic, commutant_solve, in_affine_span,
                            is_power_span, quartic_from_potentials,
                            read_back_q, verify_commutation, verify_pair,
                            verify_self_adjoint, verify_square_identity)
from weylpair.poly import Poly, Rat
from weylpair.qsolver import (build_q, curve_at_x0, derived_ode_residual,
                              potentials, resolve_alphas)
from weylpair.reference import (match_reference_examples, operator_diff,
                                reference_companion,
                                reference_curve_constants)
from weylpair.weyl import DiffOp, adjoint, commutator, is_self_adjoint, \
    op_mul, poly_of_op

from conftest import (deriv, monomial, packed_mul, random_param_tuple,
                      random_poly)

x = Poly.var("x")
a0 = Poly.var("a0")

SLICE = {"a1": 0, "a2": 0, "a3": 1}
NUMERIC = {"a0": 1, "a1": 0, "a2": 0, "a3": 1}


def _coefficient_bound(order: int, i: int, slack: int) -> int:
    # weight heuristic: wt(x) = 2, wt(D) = 3 makes D^2 + x^3 homogeneous
    return (3 * order - 3 * i + 1) // 2 + slack


def _op_from_coeffs(order: int, bounds: list[int], u: list[Rat]) -> DiffOp:
    coeffs = []
    idx = 0
    for i in range(order):
        p = Poly.zero()
        for d in range(bounds[i] + 1):
            if u[idx]:
                p = p + monomial(u[idx], {"x": d})
            idx += 1
        coeffs.append(p)
    coeffs.append(Poly.one())
    return DiffOp(coeffs)


def _nullspace_affine(rows: list[list[Rat]], rhs: list[Rat]):
    """Exact solution set of rows*u = rhs over the rationals, from the
    reduced row echelon form of [rows | rhs] over sympy's QQ.

    Returns (particular, basis) where basis spans the homogeneous
    solutions, or None when the system is inconsistent.
    """
    n = len(rows[0]) if rows else 0
    aug = DomainMatrix([[QQ(v.numerator, v.denominator) for v in (*row, b)]
                        for row, b in zip(rows, rhs)], (len(rows), n + 1), QQ)
    # Gauss-Jordan over QQ: the default fraction-free route took 30 times
    # as long on the g = 2 system
    red, pivots = aug.rref(method="GJ")
    if n in pivots:
        return None
    red = [[Rat(v.numerator, v.denominator) for v in row]
           for row in red.to_list()]
    particular = [Rat(0)] * n
    for i, col in enumerate(pivots):
        particular[col] = red[i][n]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Rat(0)] * n
        vec[fc] = Rat(1)
        for i, col in enumerate(pivots):
            vec[col] = -red[i][fc]
        basis.append(vec)
    return particular, basis


def dense_commutant_solve(l4: DiffOp, order: int, slack: int = 0,
                          max_escalations: int = 3,
                          known: DiffOp | None = None):
    """Reference oracle for commutant_solve: all monic M of the given order
    with [L, M] = 0 whose coefficients obey deg_x(u_i) <=
    ceil((3*order - 3i)/2) + slack, found by one dense exact elimination
    over every coefficient.  If `known` falls outside the solution set
    the bound is escalated; exhausting the escalations raises."""
    while True:
        bounds = [_coefficient_bound(order, i, slack) for i in range(order)]
        unknowns = sum(b + 1 for b in bounds)
        # residual of the fixed monic part
        base = commutator(l4, deriv(order))
        columns = []
        for i in range(order):
            for d in range(bounds[i] + 1):
                e = DiffOp([Poly.zero()] * i
                           + [Poly.var("x", d) if d else Poly.one()])
                columns.append(commutator(l4, e))
        max_order = max([base.order()]
                        + [c.order() for c in columns if not c.is_zero()])
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
        solved = (_nullspace_affine(rows, rhs) if rows
                  else ([Rat(0)] * unknowns, []))
        if solved is None:
            raise RuntimeError(
                f"no monic commutant of order {order} within degree bounds")
        particular_vec, basis_vecs = solved
        particular = _op_from_coeffs(order, bounds, particular_vec)
        basis = [_op_from_coeffs(order, bounds, v) - deriv(order)
                 for v in basis_vecs]
        if known is not None and not in_affine_span(known, particular, basis):
            if slack >= 2 * max_escalations:
                raise RuntimeError("known companion outside solution space "
                                   f"at slack {slack}")
            slack += 2
            continue
        return particular, basis


def perturbed_quartic(g: int, params: dict, shift: int) -> DiffOp:
    """L with W's coefficient g(g+1) moved to g(g+1) + shift."""
    v, w = potentials(g, resolve_alphas(params))
    return quartic_from_potentials(v, w * Rat(g * (g + 1) + shift,
                                              g * (g + 1)))


def test_quartic_canonical_form():
    l4 = build_quartic(2, SLICE)
    v = x**3 + a0
    assert l4.coeff(4) == Poly.one()
    assert l4.coeff(3).is_zero()
    assert l4.coeff(2) == 2 * v
    assert l4.coeff(1) == 2 * v.diff("x")
    assert l4.coeff(0) == v * v + v.diff("x").diff("x") + 6 * x


def test_quartic_is_self_adjoint():
    for g in (1, 2, 3):
        l4 = build_quartic(g)
        assert is_self_adjoint(l4)
        assert l4.coeff(1) == l4.coeff(2).diff("x")


def test_quartic_rejects_zero_a3():
    with pytest.raises(ParamError):
        build_quartic(1, {"a3": 0})


def test_companion_genus1_structure():
    pair = build_pair(1, SLICE)
    v = x**3 + a0
    h = DiffOp([v, Poly.zero(), Poly.one()])
    expect = op_mul(h, pair.l4) + op_mul(DiffOp.from_poly(x), h) - deriv()
    assert pair.m == expect
    assert pair.m.order() == 6


def test_companion_order_and_monicity():
    for g in range(1, 5):
        pair = build_pair(g, SLICE)
        assert pair.m.order() == 4 * g + 2
        assert pair.m.coeff(4 * g + 2) == Poly.one()
        assert math.gcd(pair.l4.order(), pair.m.order()) == 2


def test_left_multiplication_pinned():
    # the coefficient blocks must act on the LEFT of powers of L4;
    # assembling them on the right breaks commutation already at g = 1
    qp = build_q(1, SLICE)
    l4 = build_quartic(1, SLICE)
    qcs = qp.q.coeffs_in("z")
    wrong = DiffOp.zero()
    power = DiffOp.identity()
    for j, qj in enumerate(qcs):
        if j > 0:
            power = op_mul(power, l4)
        qjx = qj.diff("x")
        block = DiffOp([qj * qp.v + Rat(1, 2) * qjx.diff("x"), -qjx, qj])
        wrong = wrong + op_mul(power, block)  # reversed order
    assert not commutator(l4, wrong).is_zero()
    assert commutator(l4, build_companion(qp, l4)).is_zero()


def power_sum_companion(qp, l4: DiffOp) -> DiffOp:
    """sum_j B_j ∘ L^j with every power of L formed: the reference for
    build_companion, which sums the same blocks by Horner's rule."""
    result, power = DiffOp.zero(), DiffOp.identity()
    for j, qj in enumerate(qp.q_z_coeffs()):
        if j:
            power = op_mul(power, l4)
        qjx = qj.diff("x")
        block = DiffOp([qj * qp.v + Rat(1, 2) * qjx.diff("x"), -qjx, qj])
        result = result + op_mul(block, power)
    return result


@pytest.mark.parametrize("g,params", (
    [pytest.param(g, random_param_tuple(random.Random(1107 + g)),
                  id=f"numeric-g{g}") for g in range(1, 7)]
    + [pytest.param(g, SLICE, id=f"slice-g{g}") for g in range(1, 5)]
    + [pytest.param(g, {}, id=f"symbolic-g{g}") for g in (1, 2, 3)]))
def test_companion_matches_power_sum(g, params):
    qp = build_q(g, params)
    l4 = build_quartic(g, params)
    assert build_companion(qp, l4) == power_sum_companion(qp, l4)


def test_certificates_symbolic_slice():
    for g in (1, 2, 3):
        pair = build_pair(g, SLICE)
        assert verify_commutation(pair).is_zero()
        assert verify_square_identity(pair).is_zero()


def test_certificates_random_tuples(rng):
    for g in range(1, 6):
        for _ in range(3):
            pair = build_pair(g, random_param_tuple(rng))
            assert verify_commutation(pair).is_zero()
            assert verify_square_identity(pair).is_zero()
            f = pair.curve.as_poly()
            assert f.degree("z") == 2 * g + 1
            assert f.degree("x") == 0
            assert f.coeff_in("z", 2 * g + 1) == Poly.one()


def test_powers_of_l4_commute():
    pair = build_pair(1, NUMERIC)
    assert commutator(pair.l4, op_mul(pair.l4, pair.l4)).is_zero()


def test_commutation_negative_control():
    pair = build_pair(1, SLICE)
    bad = pair.m + DiffOp.from_poly(x)
    assert not commutator(pair.l4, bad).is_zero()


def test_square_identity_negative_control():
    pair = build_pair(2, SLICE)
    coeffs = list(pair.curve.coeffs) + [Poly.one()]
    coeffs[0] = coeffs[0] + Poly.one()
    res = op_mul(pair.m, pair.m) - poly_of_op(coeffs, pair.l4)
    assert not res.is_zero()
    assert res.order() == 0  # constant perturbation leaves constant residual


# -- the operator lemmas behind the L-adic read-back -------------------------

class Jets:
    """Differential polynomials in x: a sympy ring on the jet symbols of V,
    W and q_0..q_g, with the derivation d fixed by image[i], the image of
    generator i (None where a jet ends).  Free: q_j^(k) is the symbol
    q{j}_{k}.  Reduced: q_g = 1, and each other q_j is one symbol whose
    image the caller sets.  An operator is its coefficient list, D^i at
    index i."""

    def __init__(self, g: int, n: int, reduced: bool):
        qn = [f"q{j}" for j in range(g)] if reduced else [
            f"q{j}_{k}" for j in range(g + 1) for k in range(n + 1)]
        self.r, *gens = sympy.polys.rings.ring(
            [f"{f}{k}" for f in "VW" for k in range(n + 1)] + qn + ["z"],
            sympy.QQ)
        jets = [gens[i:i + n + 1] for i in range(0, len(gens) - 1, n + 1)]
        self.image = [None] * len(gens)
        for jet in jets if not reduced else jets[:2]:
            for k in range(n):
                self.image[gens.index(jet[k])] = jet[k + 1]
        self.image[-1] = self.r.zero
        (self.v, *_), (self.w, *_) = jets[:2]
        self.q = (gens[2 * n + 2:-1] + [self.r.one] if reduced
                  else [jet[0] for jet in jets[2:]])
        self.z = gens[-1]

    def d(self, p, times=1):
        for _ in range(times):
            out = self.r.zero
            for mon, c in p.items():
                for i, e in enumerate(mon):
                    if e:
                        assert self.image[i] is not None, self.r.gens[i]
                        out += self.r({mon[:i] + (e - 1,) + mon[i + 1:]:
                                       c * e}) * self.image[i]
            p = out
        return p

    def mul(self, a, b):
        out = [self.r.zero] * (len(a) + len(b) - 1)
        for k in range(len(a)):
            for i in range(k, len(a)):
                for j, bj in enumerate(b):
                    out[i + j - k] += math.comb(i, k) * a[i] * bj
            b = [self.d(bj) for bj in b] if k + 1 < len(a) else b
        return out

    def add(self, *ops):
        return [sum((op[i] for op in ops if i < len(op)), self.r.zero)
                for i in range(max(map(len, ops)))]

    def equal(self, a, b) -> bool:
        return not any(self.add(a, [-c for c in b]))

    def ode(self, p):
        """E(p) without its 4 z p' term, term by term as in qsolver."""
        d, v, w = self.d, self.v, self.w
        return (d(p, 5) + 4 * v * d(p, 3) + 6 * d(v) * d(p, 2)
                + 2 * (d(v, 2) - 2 * w) * d(p) - 2 * d(w) * p)

    def z_coeffs(self, p):
        zi = self.r.gens.index(self.z)
        out = []
        for mon, c in p.items():
            out += [self.r.zero] * (mon[zi] + 1 - len(out))
            out[mon[zi]] += self.r({mon[:zi] + (0,) + mon[zi + 1:]: c})
        return out

    def pair(self):
        """(L, M, Q, sum_k digits[k]∘L^k as a function of the digits)."""
        h = [self.v, self.r.zero, self.r.one]
        l4 = self.add(self.mul(h, h), [self.w])

        def horner(digits):
            out = []
            for dig in reversed(digits):
                out = self.add(self.mul(out, l4) if out else [], dig)
            return out
        m = horner([[qj * self.v + self.d(qj, 2) / 2, -self.d(qj), qj]
                    for qj in self.q])
        big_q = sum((qj * self.z**j for j, qj in enumerate(self.q)),
                    self.r.zero)
        return l4, m, big_q, horner


@pytest.mark.parametrize("g", [1, 2])
def test_operator_lemmas(g):
    """The two operator lemmas of the L-adic read-back (pairs.read_back_q),
    for undetermined q_0..q_g, V and W of x.

    With L = (D^2+V)^2 + W, B(q) = q(D^2+V) - q'D + q''/2, M =
    sum_j B(q_j)∘L^j, E the fifth-order residual of Q = sum_j q_j z^j, E_k
    = [z^k]E, and C = 4F - rhs(*) for an x-free F:

    (1) [L, M] = sum_k (1/2)(E_k∘D + D∘E_k)∘L^k, k = 0..g+1, the z^(g+1)
        digit being 4 q_g', for every q_j;
    (2) where E = 0, M^2 - F(L) = -(1/4) sum_k C_k∘L^k, that is M^2 =
        (1/4) sum_k rhs_k∘L^k.  Proved for q_g = 1 in the ring that E = 0
        leaves: E_{j+1} = 0 gives q_j' (j < g), and E_0 = 0, linear in
        W^(4g+1) over Q, gives W^(4g+1).  rhs(*) is quadratic in Q and M
        linear in it, so every constant q_g != 0 follows.

    The chain (arXiv:1107.3356; Burchnall-Chaundy 1923): the recursion
    solves E = 0 (qsolver.build_deltas), so C' = -2QE makes C x-free and
    F = rhs(*)/4 (test_curve_residual_lemmas); then (1) gives [L, M] = 0
    and (2) M^2 = F(L).  A sum_k R_k∘L^k with every R_k of order below 4
    is zero only if every R_k is, as L is monic of order 4, so on the
    digits B(q_j) of M commutation is E = 0 and the square identity is
    E = 0 and C = 0.
    """
    ring = Jets(g, 4 * g + 8, reduced=False)
    d = ring.d
    l4, m, big_q, horner = ring.pair()
    e = ring.z_coeffs(ring.ode(big_q) + 4 * ring.z * d(big_q))
    assert len(e) == g + 2 and e[g + 1] == 4 * d(ring.q[g])
    assert ring.equal(ring.add(ring.mul(l4, m), [-c for c in ring.mul(m, l4)]),
                      horner([[d(ek) / 2, ek] for ek in e]))

    ring = Jets(g, 10 * g + 8, reduced=True)
    d, gens, q = ring.d, ring.r.gens, ring.q
    for j in range(g - 1, -1, -1):
        ring.image[gens.index(q[j])] = -ring.ode(q[j + 1]) / 4
    e0, top = ring.ode(q[0]), gens[gens.index(ring.w) + 4 * g + 1]
    lead = e0.coeff_wrt(top, 1)
    assert e0.degree(top) == 1 and lead.is_ground and lead
    assert all(ring.image[gens.index(qj)].degree(top) < 1 for qj in q[:g])
    ring.image[gens.index(top) - 1] = top - e0 / lead
    l4, m, big_q, horner = ring.pair()
    assert ring.ode(big_q) + 4 * ring.z * d(big_q) == 0  # here E = 0
    d1, d2, d3, d4 = (d(big_q, k) for k in range(1, 5))
    rhs = (big_q * (4 * (ring.z - ring.w) * big_q + 4 * d(ring.v) * d1
                    + 8 * ring.v * d2 + 2 * d4)
           - d1 * (4 * ring.v * d1 + 2 * d3) + d2**2)
    assert ring.equal(ring.mul(m, m),
                      horner([[c / 4] for c in ring.z_coeffs(rhs)]))


def square_oracle(pair: OperatorPair) -> DiffOp:
    """M*M - F(L) by full expansion: the reference for the certificate,
    which forms neither operator.  M*M is packed_mul, so for numeric
    pairs it shares no kernel with the x^0 certificate on _exchange."""
    coeffs = list(pair.curve.coeffs) + [Poly.one()]
    return packed_mul(pair.m, pair.m) - poly_of_op(coeffs, pair.l4)


def perturbations(pair: OperatorPair):
    """(label, pair) for the pair itself and for perturbed copies: some
    still satisfy M^2 = F(L) (-M), some commute and miss it (M + 1,
    M + L^j/3, c_k + 1), some do not commute (M + x, M + x^(4g+3)).  The
    c_k + 1 copies keep M."""
    g, l4 = pair.g, pair.l4

    def with_m(m):
        return OperatorPair(g=g, l4=l4, m=m, curve=pair.curve, q=pair.q)

    yield "M", pair
    yield "M+1", with_m(pair.m + DiffOp.identity())
    for j in (1, g + 1):
        yield f"M+L^{j}/3", with_m(pair.m + (l4 ** j).scale(Rat(1, 3)))
    yield "-M", with_m(-pair.m)
    yield "M+x", with_m(pair.m + DiffOp.from_poly(x))
    yield "M+x^(4g+3)", with_m(pair.m + DiffOp.from_poly(x ** (4 * g + 3)))
    for k in range(2 * g + 1):
        coeffs = list(pair.curve.coeffs)
        coeffs[k] = coeffs[k] + Poly.one()
        yield f"c{k}+1", OperatorPair(
            g=g, l4=l4, m=pair.m, curve=SpectralCurve(g, tuple(coeffs)),
            q=pair.q)


SQUARE_POINTS = (
    [pytest.param(g, SLICE, id=f"slice-g{g}") for g in (1, 2, 3)]
    + [pytest.param(g, {"a0": g - 3, "a1": Rat(1, 2), "a2": -1, "a3": 2},
                    id=f"numeric-g{g}") for g in (1, 2, 3, 4, 5)]
    + [pytest.param(g, {}, id=f"symbolic-g{g}") for g in (1, 2)])


@pytest.mark.parametrize("g,params", SQUARE_POINTS)
def test_square_certificate_matches_full_expansion(g, params):
    # square_oracle, with M*M of the unperturbed M and the powers of L
    # expanded once for all the perturbations
    base = build_pair(g, params)
    base_mm = packed_mul(base.m, base.m)
    powers = [DiffOp.identity()]
    for _ in range(2 * g + 1):
        powers.append(packed_mul(powers[-1], base.l4))
    seen = set()
    for label, pair in perturbations(base):
        cert = verify_square_identity(pair)
        mm = base_mm if pair.m is base.m else packed_mul(pair.m, pair.m)
        coeffs = list(pair.curve.coeffs) + [Poly.one()]
        oracle = mm - sum((p.scale(c) for p, c in zip(powers, coeffs)),
                          DiffOp.zero())
        assert cert.is_zero() == oracle.is_zero(), label
        seen.add((label, cert.is_zero()))
        if pair.bracket.is_zero():
            # the certificate holds the x^0 parts of the expansion
            assert cert == DiffOp([c.coeff_in("x", 0)
                                   for c in oracle.coeffs]), label
        else:
            assert cert == pair.bracket, label
    assert {("M", True), ("-M", True), ("M+1", False), ("c0+1", False),
            ("M+x", False), ("M+x^(4g+3)", False)} <= seen


def test_square_certificate_guards():
    g = 2
    base = build_pair(g, SLICE)
    m = base.m + DiffOp.from_poly(x ** (4 * g + 3))
    pair = OperatorPair(g=g, l4=base.l4, m=m, curve=base.curve, q=base.q)
    # every x^0 part of M^2 - F(L) vanishes: only [L, M] catches this M
    oracle = square_oracle(pair)
    assert not oracle.is_zero()
    assert all(c.coeff_in("x", 0).is_zero() for c in oracle.coeffs)
    assert verify_square_identity(pair) == commutator(base.l4, m)
    # c_0 + 1 leaves the residual -1, caught by the order-0 entry alone
    coeffs = list(base.curve.coeffs)
    coeffs[0] = coeffs[0] + Poly.one()
    pair = OperatorPair(g=g, l4=base.l4, m=base.m,
                        curve=SpectralCurve(g, tuple(coeffs)), q=base.q)
    assert verify_square_identity(pair) == DiffOp([Poly.rat(-1)])


@pytest.mark.parametrize("l4", [
    pytest.param(DiffOp([Poly.one(), Poly.zero(), 2 * Poly.one()]),
                 id="non-monic"),
    pytest.param(DiffOp([x, Poly.zero(), x]), id="x-leading"),
    pytest.param(DiffOp.identity(), id="order-0"),
    pytest.param(DiffOp.zero(), id="zero")])
def test_square_certificate_needs_monic_l(l4):
    # without a monic L of positive order the leading coefficient of a
    # residual that commutes with L need not be x-free
    base = build_pair(1, NUMERIC)
    pair = OperatorPair(g=1, l4=l4, m=base.m, curve=base.curve, q=base.q)
    with pytest.raises(ValueError):
        verify_square_identity(pair)


def test_companion_is_self_adjoint():
    for g in (1, 2, 3):
        pair = build_pair(g, SLICE)
        assert adjoint(pair.m) == pair.m
    pair = build_pair(2, NUMERIC)
    assert adjoint(pair.m) == pair.m


# -- self-adjointness of M through the commutant ----------------------------
# For a self-adjoint L and any M, [L, M*] = -[L, M]*, so [L, M* - M] =
# -(C + C*) with C = [L, M]: once [L, M] = 0, M* - M commutes with L.

@pytest.mark.parametrize("names", [("x",), ("x", "a0")],
                         ids=["numeric", "a0"])
def test_bracket_with_adjoint_difference(names):
    rng = random.Random(0xAD70)
    for _ in range(40):
        v = random_poly(rng, vars=names, max_exp=3, n_terms=3)
        w = random_poly(rng, vars=names, max_exp=2, n_terms=2)
        l4 = quartic_from_potentials(v, w)
        m = DiffOp([random_poly(rng, vars=names, max_exp=3, n_terms=3)
                    for _ in range(rng.randint(1, 6))])
        c = commutator(l4, m)
        assert is_self_adjoint(l4)
        assert commutator(l4, adjoint(m) - m) == -(c + adjoint(c))


@pytest.mark.parametrize("params", [{"a0": 2, "a1": Rat(3, 4), "a2": 3,
                                     "a3": 1}, None],
                         ids=["numeric", "symbolic"])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_self_adjoint_controls(g, params):
    # commuting with L is not implied by self-adjointness (M + x), and
    # these odd-order terms break both; M + L keeps both
    pair = build_pair(g, params)
    for extra, commutes, self_adjoint in (
            (DiffOp([Poly.zero(), x]), False, False),
            (deriv(4 * g + 1), False, False),
            (DiffOp([x]), False, True),
            (pair.l4, True, True)):
        m = pair.m + extra
        assert commutator(pair.l4, m).is_zero() is commutes
        assert is_self_adjoint(m) is self_adjoint


# -- the L-adic read-back against the certificates --------------------------

def read_back_verdicts(pair: OperatorPair):
    """(commutation, square_identity) as the read-back decides them, or
    None where M's digits are not all blocks B(q)."""
    q = read_back_q(pair.m, pair.q)
    if q is None:
        return None
    read = pair.q._replace(q=q)
    commutes = derived_ode_residual(read).is_zero()
    return commutes, commutes and curve_at_x0(read) == pair.curve.as_poly()


def read_back_cases(pair: OperatorPair):
    """(label, pair, whether M's digits stay blocks): M, -M, M + x^k,
    M + L^j/3, M + x*D, the companion of Q + x*z^(g-1) (blocks, E != 0)
    and c_0 + 1 (M kept)."""
    g, l4, qp = pair.g, pair.l4, pair.q

    def with_m(m):
        return pair._replace(m=m)
    yield "M", pair, True
    yield "-M", with_m(-pair.m), True
    for k in (0, 1, 4 * g + 3):
        yield f"M+x^{k}", with_m(pair.m + DiffOp([x ** k])), False
    for j in (1, g):
        yield f"M+L^{j}/3", with_m(pair.m + (l4 ** j).scale(Rat(1, 3))), False
    yield "M+xD", with_m(pair.m + DiffOp([Poly.zero(), x])), False
    bent = qp._replace(q=qp.q + x * Poly.var("z", g - 1))
    yield "B(Q+xz^(g-1))", with_m(build_companion(bent, l4)), True
    c = pair.curve.coeffs
    yield "c0+1", pair._replace(curve=pair.curve._replace(
        coeffs=(c[0] + 1, *c[1:]))), True


READ_BACK_POINTS = (
    [pytest.param(g, {}, id=f"symbolic-g{g}") for g in (1, 2, 3)]
    + [pytest.param(g, SLICE, id=f"slice-g{g}") for g in (2, 3)]
    + [pytest.param(g, {"a0": 2, "a1": Rat(3, 4), "a2": 3, "a3": 1},
                    id=f"numeric-g{g}") for g in (1, 2, 3, 4)])


@pytest.mark.parametrize("g,params", READ_BACK_POINTS)
def test_read_back_agrees_with_certificates(g, params):
    # where M's digits are blocks, E and the x = 0 jet of the read Q give
    # the verdicts of [L, M] and of the x^0 square certificate; elsewhere
    # verify_pair falls back to those certificates.  Numeric pairs take
    # the certificates in verify_pair, so only the read-back runs here
    symbolic = not params or len(params) < 4
    seen = set()
    for label, pair, blocks in read_back_cases(build_pair(g, params)):
        certs = (verify_commutation(pair).is_zero(),
                 verify_square_identity(pair).is_zero())
        read = read_back_verdicts(pair)
        assert (read is not None) is blocks, label
        assert read in (None, certs), label
        seen.add((label, certs))
        if symbolic:
            checks = {c["name"]: c["pass"] for c in verify_pair(pair, 1)}
            assert (checks["commutation"], checks["square_identity"]) \
                == certs, label
    assert {("M", (True, True)), ("-M", (True, True)),
            ("B(Q+xz^(g-1))", (False, False)), ("c0+1", (True, False)),
            ("M+L^1/3", (True, False)), ("M+x^1", (False, False))} <= seen


def refuse(*args):
    raise AssertionError("formed on the read-back path")


# every name through which an operator product is formed
PRODUCTS = ((weyl, "op_mul"), (pairs, "op_mul"), (weyl, "_exchange"),
            (pairs, "leibniz_mul"))


@pytest.mark.parametrize("g,params", READ_BACK_POINTS)
def test_read_back_forms_no_operator_product(g, params, monkeypatch):
    # read_back_q divides by D^k∘L from Leibniz steps, so it never runs
    # the kernel that built M
    pair = build_pair(g, params)
    for module, name in PRODUCTS:
        monkeypatch.setattr(module, name, refuse)
    assert read_back_q(pair.m, pair.q) == pair.q.q


def _drop_rows(kernel):
    """kernel with the rows k >= 1, those of b^(k), dropped."""
    return lambda a, rows, *rest: kernel(a, rows[:1], *rest)


def _double_row_one(kernel):
    """_exchange with the row of b' taken twice."""
    def broken(a, rows, den, *rest):
        rows = list(rows)
        if len(rows) > 1:
            rows[1] = [{key: 2 * c for key, c in t.items()} for t in rows[1]]
        return kernel(a, rows, den, *rest)
    return broken


BROKEN_KERNELS = (
    [pytest.param("_exchange", brk, g, params,
                  id=f"exchange-{brk.__name__[1:]}-{label}")
     for brk in (_drop_rows, _double_row_one)
     for g, params, label in ((1, {}, "symbolic-g1"), (2, {}, "symbolic-g2"),
                              (3, SLICE, "slice-g3"))]
    + [pytest.param("_compose", _drop_rows, g,
                    {"a0": 2, "a1": Rat(3, 4), "a2": 3, "a3": 1},
                    id=f"compose-drop_rows-numeric-g{g}") for g in (2, 4)])


@pytest.mark.parametrize("kernel,brk,g,params", BROKEN_KERNELS)
def test_broken_product_kernel_fails_verify(kernel, brk, g, params,
                                            monkeypatch):
    # a product kernel broken for build_pair and verify_pair together must
    # not be divided back out.  The read-back and M* are formed by Leibniz
    # steps.  Where L holds a parameter, M was built on _exchange and
    # [L, M] runs on leibniz_mul.  A numeric M was built on the packed
    # _compose, and [L, M] and the x^0 square certificate run on _exchange
    monkeypatch.setattr(weyl, kernel, brk(getattr(weyl, kernel)))
    checks = verify_pair(build_pair(g, params), 1)
    assert {c["name"] for c in checks if c["pass"] is False} \
        == {"commutation", "square_identity", "self_adjoint_m"}


@pytest.mark.parametrize("g,params", [(2, {}), (3, SLICE)])
def test_symbolic_verify_forms_no_bracket_and_no_square(g, params,
                                                        monkeypatch):
    # with a parameter, [L, M] = 0 and M^2 = F(L) are read off M's
    # digits: no bracket, no x^0 square, no operator product, and
    # adjoint(L) once per run; M* in full only where the premise
    # M^2 = F(L) fails (E != 0 or c_0 + 1)
    pair = build_pair(g, params)
    qp, f = pair.q, pair.curve.coeffs
    bent = qp._replace(q=qp.q + x * Poly.var("z", g - 1))
    cases = [(pair, (True, True)),
             (pair._replace(curve=pair.curve._replace(
                 coeffs=(f[0] + 1, *f[1:]))), (True, False)),
             (pair._replace(m=build_companion(bent, pair.l4)),
              (False, False))]
    adjoints = []
    adjoint = weyl.adjoint
    monkeypatch.setattr(weyl, "commutator", refuse)
    monkeypatch.setattr(pairs, "commutator", refuse)
    monkeypatch.setattr(pairs, "x0_of_product", refuse)
    for module, name in PRODUCTS:
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(weyl, "adjoint",
                        lambda a: adjoints.append(a) or adjoint(a))
    for case, verdicts in cases:
        monkeypatch.setattr(pairs, "adjoint",
                            adjoint if verdicts[1] is False else refuse)
        checks = {c["name"]: c["pass"] for c in verify_pair(case)}
        assert (checks["commutation"], checks["square_identity"]) \
            == verdicts
        assert checks["self_adjoint_m"] is verdicts[0]
    assert adjoints == [pair.l4] * 3


def test_numeric_verify_forms_adjoint_l_once(monkeypatch):
    # verify_self_adjoint takes L* = L from verify_pair, which forms
    # adjoint(L) once
    pair = build_pair(2, NUMERIC)
    adjoints = []
    adjoint_l = weyl.adjoint
    monkeypatch.setattr(weyl, "adjoint",
                        lambda a: adjoints.append(a) or adjoint_l(a))
    monkeypatch.setattr(pairs, "adjoint", None)
    checks = verify_pair(pair, 1)
    assert all(c["pass"] for c in checks)
    assert adjoints == [pair.l4]


def self_adjoint_cert(pair: OperatorPair) -> DiffOp:
    """verify_self_adjoint with the premises L* = L and M^2 = F(L) decided
    here, as verify_pair hands them in."""
    return verify_self_adjoint(pair, is_self_adjoint(pair.l4),
                               verify_square_identity(pair).is_zero())


def assert_verify_adjoints_l_only(pair: OperatorPair, monkeypatch):
    """verify_pair forms adjoint once, on L, and its self_adjoint_m is the
    oracle's verdict is_self_adjoint(M), which holds."""
    adjoints = []
    with monkeypatch.context() as mp:
        for module in (weyl, pairs):
            mp.setattr(module, "adjoint",
                       lambda a: adjoints.append(a) or adjoint(a))
        checks = {c["name"]: c["pass"] for c in verify_pair(pair, 1)}
    assert adjoints == [pair.l4]
    assert checks["self_adjoint_m"] is is_self_adjoint(pair.m) is True


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_verify_self_adjoint_matches_adjoint(g, monkeypatch):
    # on built pairs (numeric and the symbolic-a0 slice) L* = L and
    # M^2 = F(L) decide, forming no M*, and agree with the full adjoint;
    # with M + x, M + x*D, M + x^2*D and M + D^(4g+1), [L, M] = 0 fails,
    # and with M + L/3 M^2 = F(L) fails alone, so the full adjoint decides
    rng = random.Random(5000 + g)
    for params in (random_param_tuple(rng), SLICE):
        pair = build_pair(g, params)
        with monkeypatch.context() as mp:
            mp.setattr(pairs, "adjoint", None)
            assert self_adjoint_cert(pair).is_zero()
        assert_verify_adjoints_l_only(pair, monkeypatch)
        for extra in (DiffOp([x]), DiffOp([Poly.zero(), x]),
                      DiffOp([Poly.zero(), x**2]), deriv(4 * g + 1),
                      pair.l4.scale(Rat(1, 3))):
            m = pair.m + extra
            assert (self_adjoint_cert(pair._replace(m=m)).is_zero()
                    is is_self_adjoint(m))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_symbolic_verify_forms_adjoint_of_l_only(g, monkeypatch):
    assert_verify_adjoints_l_only(build_pair(g, {}), monkeypatch)


def test_verify_self_adjoint_negative_control():
    # one control per premise of M* = M, each with a nonzero decision:
    # odd order (L = D^2 with M = D, and L = A∘A with the skew A = x^2*D
    # + x = M, not monic: M^2 = L, M* = -M), no square (L = D^2 with
    # M = D^2 + D, and L = D^4 with M = D^5), and L* != L (L = D^4 +
    # x^2*D = M with M^2 = L^2, and conjugated_pair).  Where a premise
    # fails the full adjoint decides, and accepts M = a0*D^4 + D^2
    d2, l4 = deriv(2), deriv(4)
    drift = l4 + DiffOp([Poly.zero(), x**2])
    skew = DiffOp([x, x**2])
    built = build_pair(1, NUMERIC)
    conj = conjugated_pair(built)
    z2 = [Poly.zero(), Poly.zero(), Poly.one()]
    cases = [(d2, deriv(1), z2[1:], False),
             (op_mul(skew, skew), skew, z2[1:], False),
             (d2, d2 + deriv(1), None, False), (l4, deriv(5), None, False),
             (drift, drift, z2, False),
             (conj.l4, conj.m, built.curve.as_poly().coeffs_in("z"), False),
             (l4, l4.scale(a0) + d2, None, True)]
    for l, m, f, self_adjoint in cases:
        pair = OperatorPair(g=1, l4=l, m=m, curve=None, q=None)
        assert pair.bracket.is_zero()
        if f is not None:
            assert op_mul(m, m) == poly_of_op(f, l)
        cert = verify_self_adjoint(pair, is_self_adjoint(l), f is not None)
        assert cert.is_zero() is self_adjoint
        assert is_self_adjoint(m) is self_adjoint
    assert is_self_adjoint(op_mul(skew, skew))
    assert not (is_self_adjoint(drift) or is_self_adjoint(conj.l4))


def conjugated_pair(pair: OperatorPair, p: Poly = x) -> OperatorPair:
    """The pair under the Weyl-algebra automorphism D -> D + p(x), x -> x
    (conjugation by exp of an antiderivative of p): [L, M] = 0 and
    M^2 = F(L) survive, L* = L does not."""
    shift = DiffOp([p, Poly.one()])
    return pair._replace(l4=poly_of_op(pair.l4.coeffs, shift),
                         m=poly_of_op(pair.m.coeffs, shift))


@pytest.mark.parametrize("g,params", [(1, NUMERIC), (2, NUMERIC), (2, {})],
                         ids=["numeric-g1", "numeric-g2", "symbolic-g2"])
def test_conjugated_pair_fails_self_adjointness(g, params):
    # the premise L* = L fails, so the full adjoint decides self_adjoint_m
    pair = conjugated_pair(build_pair(g, params))
    checks = {c["name"]: c["pass"] for c in verify_pair(pair, 1)}
    for name in ("commutation", "square_identity"):
        assert checks[name] is True, name
    for name in ("self_adjoint_l4", "self_adjoint_m", "reduction_dpsi"):
        assert checks[name] is False, name


@pytest.mark.parametrize("samples", [0, -1])
def test_verify_pair_rejects_no_samples(samples, monkeypatch):
    # with no sample point the root-level checks would pass unread: on Q + x
    # one sample point fails krichever_relation, and samples < 1 raises
    # before any check is formed
    pair = build_pair(2, NUMERIC)
    bent = pair._replace(q=pair.q._replace(q=pair.q.q + x))
    checks = {c["name"]: c["pass"] for c in verify_pair(bent, 1)}
    assert checks["krichever_relation"] is False

    def refuse(*args):
        raise AssertionError("a check ran")
    monkeypatch.setattr(pairs, "derived_ode_residual", refuse)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        verify_pair(bent, samples)


def test_reference_genus3_matches_exactly():
    pair = build_pair(3, SLICE)
    assert operator_diff(pair.m, reference_companion(3)) == []


@pytest.mark.parametrize("g", [2, 3])
def test_reference_forms_square_to_recorded_curve(g):
    # the recorded companion and the recorded curve certify each other,
    # without build_companion or extract_curve: M commutes with L, is
    # self-adjoint, and M^2 = F(L) with the recorded F
    l4 = build_quartic(g, SLICE)
    m = reference_companion(g)
    fl = poly_of_op(reference_curve_constants(g).coeffs_in("z"), l4)
    assert commutator(l4, m).is_zero()
    assert adjoint(m) == m
    assert (op_mul(m, m) - fl).is_zero()


def test_reference_genus2_differs_by_recorded_constant():
    # the genus-2 form as first recorded lacked the "-9": it commutes,
    # but misses the square identity with the (confirmed) spectral
    # polynomial z^5 + 27 a0 z^2 + 81 by 18M + 81
    pair = build_pair(2, SLICE)
    assert operator_diff(pair.m, reference_companion(2)) == []
    old = reference_companion(2) + 9 * DiffOp.identity()
    assert operator_diff(old, pair.m) == [(0, Poly.rat(9))]
    assert commutator(pair.l4, old).is_zero()
    coeffs = list(pair.curve.coeffs) + [Poly.one()]
    old_sq_res = op_mul(old, old) - poly_of_op(coeffs, pair.l4)
    assert old_sq_res == 18 * pair.m + DiffOp([Poly.rat(81)])
    assert verify_square_identity(pair).is_zero()


def test_match_report():
    report = match_reference_examples()
    assert report[3]["companion_match"]
    assert report[3]["curve_match"]
    assert report[2]["curve_match"]
    assert report[2]["companion_match"]
    assert report[2]["companion_diff"] == []
    for g in (2, 3):
        assert report[g]["commutation_zero"]
        assert report[g]["square_identity_zero"]


def test_differ_flags_single_perturbed_coefficient():
    # perturbing one printed coefficient must yield a one-term diff
    h = DiffOp([x**3 + a0, Poly.zero(), Poly.one()])
    xop = DiffOp.from_poly(x)
    x2op = DiffOp.from_poly(x**2)
    good = (h**5 + Rat(15, 2) * (op_mul(xop, h**3) + op_mul(h**3, xop))
            + 45 * (op_mul(x2op, h) + op_mul(h, x2op)))
    bad = (h**5 + Rat(15, 2) * (op_mul(xop, h**3) + op_mul(h**3, xop))
           + 44 * (op_mul(x2op, h) + op_mul(h, x2op)))
    d = operator_diff(good, bad)
    bracket = op_mul(x2op, h) + op_mul(h, x2op)
    expected = [(i, c) for i, c in enumerate(bracket.coeffs)
                if not c.is_zero()]
    assert d == expected  # exactly one unit of <x^2, H>, nothing else


def test_commutant_solver_genus1():
    pair = build_pair(1, NUMERIC)
    particular, basis = commutant_solve(pair.l4, 6, known=pair.m)
    assert len(basis) == 2  # affine dimension g + 1
    assert in_affine_span(pair.m, particular, basis)
    assert is_power_span(basis, pair.l4, 1)


def test_commutant_solver_genus2(rng):
    params = random_param_tuple(rng)
    pair = build_pair(2, params)
    particular, basis = commutant_solve(pair.l4, 10, known=pair.m)
    assert len(basis) == 3
    assert in_affine_span(pair.m, particular, basis)
    assert is_power_span(basis, pair.l4, 2)


def test_commutant_solver_order4():
    # below order 6 the only monic order-4 commutants are L4 + const
    pair = build_pair(1, NUMERIC)
    particular, basis = commutant_solve(pair.l4, 4)
    assert len(basis) == 1
    assert basis[0].order() == 0
    assert in_affine_span(pair.l4, particular, basis)


def dense_in_affine_span(op: DiffOp, particular: DiffOp,
                         basis: list[DiffOp]) -> bool:
    """Reference for in_affine_span: one dense elimination over the
    coefficient vectors, indexed by (order, packed monomial key)."""
    def vec(v: DiffOp) -> dict:
        return {(i, key): Rat(num, c.den) for i, c in enumerate(v.coeffs)
                for key, num in c.terms.items()}
    vecs = [vec(b) for b in basis]
    target = vec(op - particular)
    keys = list(set(target).union(*vecs))
    rows = [[v.get(key, Rat(0)) for v in vecs] for key in keys]
    rhs = [target.get(key, Rat(0)) for key in keys]
    return _nullspace_affine(rows, rhs) is not None


def test_in_affine_span_edge_cases():
    d1, d2, d3 = deriv(1), deriv(2), deriv(3)
    xop, x2op = DiffOp.from_poly(x), DiffOp.from_poly(x**2)
    xd = op_mul(xop, d1)
    p = DiffOp([x**3, a0 * x, Poly.one()])
    cases = [
        # empty basis
        (p, p, [], True), (p + xop, p, [], False),
        (DiffOp.zero(), DiffOp.zero(), [], True),
        # op == particular, and a basis of zero operators
        (p, p, [d2, xd], True), (p + xop, p, [DiffOp.zero()], False),
        # duplicate and dependent basis elements
        (p + 2 * d2 - xop, p, [d2, d2, xop], True),
        (p + x2op, p, [d2, d2, xop], False),
        (p + d2 + 7 * xop, p, [d2, xop, d2 + 3 * xop], True),
        (p + xd, p, [d2, xop, d2 + 3 * xop], False),
        # equal leading terms, different lower terms: span{D + x, D + x^2}
        # holds x - x^2 but neither x nor x^2
        (xop - x2op, DiffOp.zero(), [d1 + xop, d1 + x2op], True),
        (xop, DiffOp.zero(), [d1 + xop, d1 + x2op], False),
        # the leading term is no pivot's while every lower term is spanned,
        # at once and after one reduction step
        (p + d3 + d2 + xop, p, [d2, xop], False),
        (p + d2 + xd + xop, p, [d2, xop], False),
        # parameter-bearing operators
        (p + a0 * d2 - Rat(2, 3) * op_mul(DiffOp.from_poly(a0 * x), d1), p,
         [d2, op_mul(DiffOp.from_poly(x), d1)], False),
        (p + a0 * d2 - Rat(2, 3) * op_mul(DiffOp.from_poly(a0 * x), d1), p,
         [a0 * d2, op_mul(DiffOp.from_poly(a0 * x), d1)], True),
    ]
    for op, particular, basis, expected in cases:
        assert dense_in_affine_span(op, particular, basis) is expected
        assert in_affine_span(op, particular, basis) is expected


def test_in_affine_span_matches_dense_reference():
    rng = random.Random(1107)
    names = ("x", "a0")
    for trial in range(40):
        basis = [DiffOp([random_poly(rng, vars=names, max_exp=2, n_terms=2)
                         for _ in range(rng.randint(1, 3))])
                 for _ in range(rng.randint(0, 4))]
        if basis and trial % 3 == 0:
            basis.append(basis[0] - Rat(rng.randint(1, 5)) * basis[-1])
        particular = DiffOp([random_poly(rng, vars=names, n_terms=3)])
        op = particular
        for b in basis:
            op = op + Rat(rng.randint(-3, 3), rng.randint(1, 3)) * b
        extra = DiffOp([random_poly(rng, vars=names, max_exp=2, n_terms=1)
                        for _ in range(rng.randint(1, 3))])
        for target in (op, op + extra):
            assert (in_affine_span(target, particular, basis)
                    is dense_in_affine_span(target, particular, basis))
        assert in_affine_span(op, particular, basis)


def _same_affine_set(a, b) -> bool:
    (pa, ba), (pb, bb) = a, b
    zero = DiffOp.zero()
    return (len(ba) == len(bb)
            and in_affine_span(pa, pb, bb) and in_affine_span(pb, pa, ba)
            and all(in_affine_span(v, zero, bb) for v in ba)
            and all(in_affine_span(v, zero, ba) for v in bb))


def test_commutant_solver_matches_dense_oracle(rng):
    genus1 = build_pair(1, NUMERIC)
    cases = [(genus1, 6), (genus1, 4),
             (build_pair(2, random_param_tuple(rng)), 10)]
    for pair, order in cases:
        known = pair.m if order == pair.m.order() else None
        assert _same_affine_set(commutant_solve(pair.l4, order, known=known),
                                dense_commutant_solve(pair.l4, order,
                                                      known=known))


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_commutant_solver_high_genus(g, rng):
    pair = build_pair(g, random_param_tuple(rng))
    particular, basis = commutant_solve(pair.l4, 4 * g + 2, known=pair.m)
    assert len(basis) == g + 1
    assert in_affine_span(pair.m, particular, basis)
    assert is_power_span(basis, pair.l4, g)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_commutant_orders_below_companion(g, rng):
    # the monic orders below 4g+2 that commute with L are 4, 8, ..., 4g:
    # the span hypothesis of M* = M in the pairs docstring
    l4 = build_quartic(g, random_param_tuple(rng))
    for t in range(1, 4 * g + 2):
        if t % 4 == 0:
            commutant_solve(l4, t)
        else:
            with pytest.raises(ValueError, match="no monic operator"):
                commutant_solve(l4, t)


@pytest.mark.parametrize("g,shift", [(1, 1), (2, 1), (3, 1), (2, -2),
                                     (3, -2)])
def test_commutant_solver_perturbed_w_has_no_companion(g, shift, rng):
    # at shift -2 and g = 1, W = 0 and (D^2 + V)^3 does commute with L
    l4 = perturbed_quartic(g, random_param_tuple(rng), shift)
    with pytest.raises(ValueError, match="no monic operator"):
        commutant_solve(l4, 4 * g + 2)


# sha256 of json.dumps([particular, basis] as to_json, sort_keys=True):
# the solver's exact output, not only its affine solution set
ORACLE_PINS = [
    (1, NUMERIC, 4,
     "5cdfa373f42d36c132fe194ed9acdfe027b7533ca8542ac39ccd6480da8ff527"),
    (1, NUMERIC, 6,
     "f7980a6c81405dddfad7eb505f3a534c1fa971bf6187a363923d35c323d89e58"),
    (2, {"a0": 2, "a1": 1, "a2": 0, "a3": 1}, 10,
     "a976cc64965e6e40836c28a3591679954c7ad4531987c594d991f31dbc4363bf"),
    (2, {"a0": Rat(-5, 2), "a1": Rat(1, 3), "a2": Rat(7, 4), "a3": -2}, 10,
     "0b97326efcfa030c15bc3c821e8401a4f5217db24df548bf8567f8a948e2caae"),
    (3, NUMERIC, 14,
     "0fa4875d4bc159ce8aa0e564b7bc561db9422dfc9618b643e7c3de5cad3fec77"),
]


@pytest.mark.parametrize("g,params,order,digest", ORACLE_PINS,
                         ids=["g1-order4", "g1-order6", "g2-int", "g2-rat",
                              "g3-order14"])
def test_commutant_solver_output_pinned(g, params, order, digest):
    pair = build_pair(g, params)
    known = pair.m if order == pair.m.order() else None
    particular, basis = commutant_solve(pair.l4, order, known=known)
    text = json.dumps([particular.to_json(), [b.to_json() for b in basis]],
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_recursion_step_lemma():
    # [D^4 + l2 D^2 + l1 D + l0, m D^j] stops at D^(j+3), where its
    # coefficient is 4m': the step of every run in commutant_solve
    sx = sympy.Symbol("x")
    f, m, l0, l1, l2 = (sympy.Function(name)(sx)
                        for name in ("f", "m", "l0", "l1", "l2"))

    def quartic(u):
        return (u.diff(sx, 4) + l2 * u.diff(sx, 2) + l1 * u.diff(sx)
                + l0 * u)

    for j in range(7):
        bracket = sympy.expand(quartic(m * f.diff(sx, j))
                               - m * quartic(f).diff(sx, j))
        ys = sympy.symbols(f"y0:{j + 5}")
        for k in range(j + 4, -1, -1):  # D^k f -> y_k, highest first
            bracket = bracket.subs(f.diff(sx, k), ys[k])
        assert not bracket.has(f)
        assert bracket.coeff(ys[j + 4]) == 0
        assert sympy.expand(bracket.coeff(ys[j + 3]) - 4 * m.diff(sx)) == 0


def test_commutant_solver_rejects_known_outside_set():
    pair = build_pair(1, NUMERIC)
    with pytest.raises(ValueError, match="outside"):
        commutant_solve(pair.l4, 6, known=pair.m + DiffOp.from_poly(x))


def test_commutant_solver_rejects_symbolic():
    l4 = build_quartic(1, SLICE)
    with pytest.raises(ValueError):
        commutant_solve(l4, 6)


def test_uniqueness_of_square_root_in_commutant(rng):
    # exhaust the affine solution space: M + p(L4) squares to F(L4) only
    # at p = 0
    for g in (1, 2):
        pair = build_pair(g, NUMERIC)
        coeffs = list(pair.curve.coeffs) + [Poly.one()]
        fl = poly_of_op(coeffs, pair.l4)
        assert (op_mul(pair.m, pair.m) - fl).is_zero()
        powers = [DiffOp.identity()]
        for _ in range(g):
            powers.append(op_mul(powers[-1], pair.l4))
        for trial in range(6):
            cs = [Rat(rng.randint(-4, 4)) for _ in range(g + 1)]
            if all(c == 0 for c in cs):
                cs[trial % (g + 1)] = Rat(1)
            p = DiffOp.zero()
            for c, pw in zip(cs, powers):
                p = p + c * pw
            cand = pair.m + p
            assert not (op_mul(cand, cand) - fl).is_zero()
