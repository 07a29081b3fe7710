"""Weyl algebra operators: examples, the composition oracle, and axioms."""

import math
import random

import pytest
import sympy

from weylpair import weyl
from weylpair.poly import Poly, Rat
from weylpair.weyl import (DiffOp, TermBudgetError, adjoint, anticommutator,
                           apply_to, commutator, is_self_adjoint, op_mul,
                           poly_of_op)

from conftest import random_poly, x_poly

x = Poly.var("x")
a0 = Poly.var("a0")
D = DiffOp.d()
X = DiffOp.from_poly(x)
H = DiffOp([x**3 + a0, Poly.zero(), Poly.one()])  # D^2 + x^3 + a0


def random_op(rng, max_order=3, max_deg=3) -> DiffOp:
    n = rng.randint(0, max_order)
    return DiffOp([random_poly(rng, vars=("x",), max_exp=max_deg, n_terms=3)
                   for _ in range(n + 1)])


def test_canonical_commutation_relation():
    assert commutator(D, X) == DiffOp.identity()


def test_leibniz_exchange_example():
    # (x^3 psi)'' = x^3 psi'' + 6x^2 psi' + 6x psi
    assert op_mul(DiffOp.d(2), DiffOp.from_poly(x**3)) == \
        DiffOp([6 * x, 6 * x**2, x**3])


def test_schroedinger_anticommutator_with_x():
    assert anticommutator(H, X) == DiffOp([2 * x**4 + 2 * a0 * x,
                                           Poly.rat(2), 2 * x])


def test_self_commutator_vanishes(rng):
    for _ in range(20):
        op = random_op(rng)
        assert commutator(op, op).is_zero()


def test_anticommutator_x_d():
    assert anticommutator(X, D) == DiffOp([Poly.one(), 2 * x])


def test_adjoint_first_order_skew():
    assert adjoint(D) == -D


def test_adjoint_x_dsquared():
    assert adjoint(DiffOp([Poly.zero(), Poly.zero(), x])) == \
        DiffOp([Poly.zero(), Poly.rat(2), x])


def test_schroedinger_self_adjoint():
    assert adjoint(H) == H
    assert is_self_adjoint(H)
    assert not is_self_adjoint(D)


def test_self_adjoint_quartic_forms():
    f2 = x**2 + 3 * x
    f0 = x**5 - 1
    op = DiffOp([f0, f2.diff("x"), f2, Poly.zero(), Poly.one()])
    assert is_self_adjoint(op)
    # (D^2 + V)^2 + W is self-adjoint for any polynomial V, W
    v, w = x**3 + a0, 7 * x
    sq = op_mul(DiffOp([v, Poly.zero(), Poly.one()]),
                DiffOp([v, Poly.zero(), Poly.one()])) + DiffOp([w])
    assert is_self_adjoint(sq)


def test_composition_matches_application_oracle(rng):
    # a∘b is DEFINED by (a∘b)(f) = a(b(f)); check against direct application
    for _ in range(200):
        a = random_op(rng)
        b = random_op(rng)
        f = random_poly(rng, vars=("x",), max_exp=4, n_terms=3)
        assert apply_to(op_mul(a, b), f) == apply_to(a, apply_to(b, f))


def test_adjoint_involution_and_antihomomorphism(rng):
    for _ in range(200):
        a = random_op(rng)
        b = random_op(rng)
        assert adjoint(adjoint(a)) == a
        assert adjoint(op_mul(a, b)) == op_mul(adjoint(b), adjoint(a))


def test_jacobi_identity(rng):
    for _ in range(200):
        a = random_op(rng, max_order=2, max_deg=2)
        b = random_op(rng, max_order=2, max_deg=2)
        c = random_op(rng, max_order=2, max_deg=2)
        lhs = (commutator(a, commutator(b, c))
               + commutator(b, commutator(c, a))
               + commutator(c, commutator(a, b)))
        assert lhs.is_zero()


def test_order_additivity(rng):
    for _ in range(200):
        a = random_op(rng)
        b = random_op(rng)
        if a.is_zero() or b.is_zero():
            assert op_mul(a, b).is_zero()
        else:
            assert op_mul(a, b).order() == a.order() + b.order()


def test_associativity_bounded(rng):
    for _ in range(50):
        a = random_op(rng, max_order=3, max_deg=3)
        b = random_op(rng, max_order=3, max_deg=3)
        c = random_op(rng, max_order=3, max_deg=3)
        assert op_mul(op_mul(a, b), c) == op_mul(a, op_mul(b, c))


def test_poly_of_op_degenerate_cases():
    c0 = x**2 + 1
    assert poly_of_op([c0], H) == DiffOp.from_poly(c0)
    assert poly_of_op([Poly.zero(), Poly.one()], H) == H
    assert poly_of_op([a0, Poly.one()], H) == H + DiffOp([a0])


def test_poly_of_op_coefficients_act_left():
    # x∘D differs from D∘x; poly_of_op must use the left product
    got = poly_of_op([Poly.zero(), x], D)
    assert got == DiffOp([Poly.zero(), x])
    assert got != op_mul(D, X)


def left_product_poly_of_op(c: list[Poly], op: DiffOp) -> DiffOp:
    """sum_j c_j ∘ op^j with each c_j multiplied on as an operator: the
    reference for poly_of_op, which scales op^j by c_j instead."""
    result, power = DiffOp.zero(), DiffOp.identity()
    for j, cj in enumerate(c):
        if j:
            power = op_mul(power, op)
        result = result + op_mul(DiffOp.from_poly(cj), power)
    return result


@pytest.mark.parametrize("variables", [("x",), ("x", "a0", "a1")],
                         ids=["numeric", "symbolic"])
def test_poly_of_op_matches_left_product(variables):
    rng = random.Random(31)
    for _ in range(6):
        op = DiffOp([random_poly(rng, vars=variables, max_exp=2, n_terms=3)
                     for _ in range(3)] + [Poly.one()])
        c = [random_poly(rng, vars=variables, max_exp=2, n_terms=3)
             for _ in range(4)]
        assert poly_of_op(c, op) == left_product_poly_of_op(c, op)


def test_poly_of_op_rejects_z():
    with pytest.raises(ValueError):
        poly_of_op([Poly.var("z")], H)


def test_coefficients_must_be_z_free():
    with pytest.raises(ValueError):
        DiffOp([Poly.var("z")])


def test_zero_handling():
    assert DiffOp.zero().is_zero()
    assert DiffOp.zero().order() == -1
    assert op_mul(DiffOp.zero(), H).is_zero()
    assert (H - H).is_zero()


def test_json_roundtrip(rng):
    for _ in range(20):
        op = random_op(rng)
        assert DiffOp.from_json(op.to_json()) == op


def test_term_budget_circuit_breaker(monkeypatch):
    monkeypatch.setenv("WEYL_COMMUTE_MAX_TERMS", "3")
    big = DiffOp([x**3 + x**2 + x + 1, x**2 + 1])
    with pytest.raises(TermBudgetError):
        op_mul(big, big)
    monkeypatch.setenv("WEYL_COMMUTE_MAX_TERMS", "100000")
    assert not op_mul(big, big).is_zero()


# -- the integer Kronecker kernel against independent oracles ---------------

def schoolbook_op_mul(a: DiffOp, b: DiffOp) -> DiffOp:
    """The exchange rule applied term by term in Poly arithmetic: op_mul as
    it was before the integer kernel, kept here as the reference."""
    if a.is_zero() or b.is_zero():
        return DiffOp.zero()
    na, nb = a.order(), b.order()
    derivs = []
    for bj in b.coeffs:
        chain = [bj]
        for _ in range(na):
            chain.append(chain[-1].diff("x"))
        derivs.append(chain)
    out = [Poly.zero()] * (na + nb + 1)
    for i, ai in enumerate(a.coeffs):
        if ai.is_zero():
            continue
        for k in range(i + 1):
            cik = math.comb(i, k)
            for j in range(nb + 1):
                bjk = derivs[j][k]
                if bjk.is_zero():
                    continue
                term = ai * bjk
                if cik != 1:
                    term = term * Rat(cik)
                out[i + j - k] = out[i + j - k] + term
    return DiffOp(out)


def random_x_op(rng, order, bits, max_deg=6, zero_frac=0.25) -> DiffOp:
    """A random x-only operator of exactly the given order, with signed
    numerators and denominators of up to `bits` bits and some zero
    coefficients below the leading one."""
    coeffs = []
    for i in range(order + 1):
        if i < order and rng.random() < zero_frac:
            coeffs.append(Poly.zero())
            continue
        terms = {}
        for d in rng.sample(range(max_deg + 1), rng.randint(1, max_deg + 1)):
            num = rng.randint(-(1 << bits), 1 << bits)
            if num:
                terms[d] = Rat(num, rng.randint(1, 1 << bits))
        coeffs.append(x_poly(terms))
    if coeffs[-1].is_zero():
        coeffs[-1] = Poly.one()
    return DiffOp(coeffs)


@pytest.mark.parametrize("bits", [3, 70, 130])
def test_kronecker_matches_schoolbook_random(bits):
    rng = random.Random(1000 + bits)
    for n in range(9):
        for na, nb in ((n, rng.randint(0, 8)), (rng.randint(0, 8), n)):
            a = random_x_op(rng, na, bits)
            b = random_x_op(rng, nb, bits)
            assert op_mul(a, b) == schoolbook_op_mul(a, b), (na, nb)


def test_kronecker_slot_boundaries():
    # numerators at and across byte and 64-bit boundaries, both signs,
    # with every product term of one sign so that the slot sums reach
    # the bound the slot width is taken from
    rng = random.Random(7)
    for mag in (1, 127, 128, 255, 256, (1 << 63) - 1, 1 << 63, 1 << 64,
                (1 << 64) - 1, (1 << 127) + 1):
        for sign_a in (1, -1):
            for sign_b in (1, -1):
                a = DiffOp([x_poly(
                    {d: Rat(sign_a * mag) for d in range(4)})] * 4)
                b = DiffOp([x_poly(
                    {d: Rat(sign_b * mag, 3) for d in range(6)})] * 5)
                assert op_mul(a, b) == schoolbook_op_mul(a, b)
                assert op_mul(b, a) == schoolbook_op_mul(b, a)
        c = random_x_op(rng, 8, 8, zero_frac=0.5)
        big = DiffOp([x_poly({0: Rat(-mag, mag + 2)})])
        assert op_mul(big, c) == schoolbook_op_mul(big, c)
        assert op_mul(c, big) == schoolbook_op_mul(c, big)


def test_kronecker_slot_width_at_its_bound():
    # a = c*D^n and b_j = sum_d (m!/d!) x^d for j <= n: every b^(k) peaks
    # at m! on x^0, so slot (n, 0) of the product is c*m!*2^n, exactly the
    # bound sum_k |A_k|_1 * |b^(k)|_inf the slot width is taken from.
    # Scaling c through 2^0..2^7 moves that bound across every byte
    # alignment, so a width one bit short, or a bound that drops any k,
    # misreads the slot.
    n = m = 8
    bj = x_poly({d: Rat(math.factorial(m) // math.factorial(d))
                 for d in range(m + 1)})
    b = DiffOp([bj] * (n + 1))
    for sign in (1, -1):
        for e in range(8):
            c = sign << e
            a = DiffOp([Poly.zero()] * n + [Poly.rat(c)])
            prod = op_mul(a, b)
            assert prod == schoolbook_op_mul(a, b), c
            assert (prod.coeff(n).coeff_in("x", 0).const_value()
                    == c * math.factorial(m) * 2**n)


def test_kronecker_zero_and_identity_operands():
    rng = random.Random(11)
    one = DiffOp.identity()
    for order in (0, 3, 8):
        a = random_x_op(rng, order, 70)
        assert op_mul(a, DiffOp.zero()).is_zero()
        assert op_mul(DiffOp.zero(), a).is_zero()
        assert op_mul(a, one) == a
        assert op_mul(one, a) == a
        assert op_mul(-a, a) == -schoolbook_op_mul(a, a)
    assert op_mul(one, one) == one
    # pure derivatives: constant coefficients, x-degree zero throughout
    assert op_mul(DiffOp.d(3), DiffOp.d(5)) == DiffOp.d(8)


def test_kronecker_matches_sympy_application():
    # (a∘b)(f) = a(b(f)) for an undetermined function f, computed in sympy
    xs = sympy.Symbol("x")
    f = sympy.Function("f")(xs)

    def to_sympy(p: Poly):
        return sum(sympy.Rational(c.numerator, c.denominator) * xs**e[0]
                   for e, c in p.sorted_terms())

    def apply(op: DiffOp, expr):
        return sum(to_sympy(c) * sympy.diff(expr, xs, i)
                   for i, c in enumerate(op.coeffs))

    rng = random.Random(5)
    for na, nb in ((1, 1), (3, 2), (2, 4), (4, 3)):
        a = random_x_op(rng, na, 40, max_deg=3)
        b = random_x_op(rng, nb, 40, max_deg=3)
        lhs = apply(op_mul(a, b), f)
        rhs = apply(a, apply(b, f))
        assert sympy.expand(lhs - rhs) == 0


def forbid(monkeypatch, name):
    """Make the product path weyl.<name> fail the test if it runs."""
    def ran(*args):
        raise AssertionError(f"weyl.{name} ran")

    monkeypatch.setattr(weyl, name, ran)


def test_parameter_operands_take_term_loop(monkeypatch):
    forbid(monkeypatch, "_op_mul_kronecker")
    rng = random.Random(3)
    for order in (0, 2, 5):
        a = random_x_op(rng, order, 70)
        for b in (H, DiffOp([a0, x, a0 * x**2, Poly.one()])):
            assert op_mul(a, b) == schoolbook_op_mul(a, b)
            assert op_mul(b, a) == schoolbook_op_mul(b, a)


def test_x_only_operands_take_kernel(monkeypatch):
    forbid(monkeypatch, "_op_mul_terms")
    a = random_x_op(random.Random(4), 5, 70)
    assert op_mul(a, a) == schoolbook_op_mul(a, a)


def test_term_budget_on_kernel_path(monkeypatch):
    forbid(monkeypatch, "_op_mul_terms")
    monkeypatch.setenv("WEYL_COMMUTE_MAX_TERMS", "3")
    big = DiffOp([x**3 + x**2 + x + 1, x**2 + 1])
    with pytest.raises(TermBudgetError):
        op_mul(big, big)


@pytest.mark.parametrize("path,other", [("kernel", Poly.one()), ("terms", a0)])
def test_product_denominators_cancel_completely(monkeypatch, path, other):
    # (3/2)(x + D) ∘ (2/3)(x + c) = (x + D)(x + c): Da*Db = 6 cancels in
    # every coefficient, so each one comes back over den 1
    forbid(monkeypatch, "_op_mul_terms" if path == "kernel"
           else "_op_mul_kronecker")
    a = DiffOp([Rat(3, 2) * x, Poly.rat(Rat(3, 2))])
    b = DiffOp([Rat(2, 3) * (x + other)])
    assert a.coeff(0).den == 2 and b.coeff(0).den == 3
    prod = op_mul(a, b)
    assert prod == DiffOp([x**2 + other * x + 1, x + other])
    assert all(c.den == 1 for c in prod.coeffs)


def random_param_op(rng, order, bits) -> DiffOp:
    """A random operator whose coefficients involve x, a0 and a1, with
    signed numerators and denominators of up to `bits` bits."""
    coeffs = []
    for _ in range(order + 1):
        p = Poly.zero()
        for _ in range(rng.randint(0, 4)):
            c = Rat(rng.randint(-(1 << bits), 1 << bits),
                    rng.randint(1, 1 << bits))
            p = p + Poly.monomial(c, {v: rng.randint(0, 3)
                                      for v in ("x", "a0", "a1")})
        coeffs.append(p)
    coeffs[-1] = coeffs[-1] + a0  # a parameter occurs, and the order holds
    return DiffOp(coeffs)


def test_term_loop_matches_schoolbook_random(monkeypatch):
    forbid(monkeypatch, "_op_mul_kronecker")
    rng = random.Random(21)
    for na, nb in ((0, 3), (2, 2), (3, 1), (4, 4)):
        a = random_param_op(rng, na, 64)
        b = random_param_op(rng, nb, 64)
        assert op_mul(a, b) == schoolbook_op_mul(a, b)
        assert op_mul(a, -a) == -schoolbook_op_mul(a, a)
