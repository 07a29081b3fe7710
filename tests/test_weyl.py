"""Weyl algebra operators: examples, the composition oracle, and axioms."""

import math
import random

import pytest
import sympy

from weylpair import pairs, weyl
from weylpair.pairs import build_pair
from weylpair.poly import Poly, Rat
from weylpair.reference import anticommutator
from weylpair.weyl import (DiffOp, adjoint, commutator, is_self_adjoint,
                           op_mul, poly_of_op, poly_of_products)

from conftest import (apply_to, deriv, monomial, op_from_json, random_poly,
                      x_poly)

x = Poly.var("x")
a0 = Poly.var("a0")
D = deriv()
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
    assert op_mul(deriv(2), DiffOp.from_poly(x**3)) == \
        DiffOp([6 * x, 6 * x**2, x**3])


def test_product_with_poly_composes(rng):
    # A * p is A∘p and p * A is p∘A, a Poly read as multiplication by it;
    # a number only scales
    assert D * x == DiffOp([Poly.one(), x])
    assert x * D == DiffOp([Poly.zero(), x])
    for _ in range(50):
        a = random_op(rng)
        p = random_poly(rng, vars=("x", "a0"), max_exp=3, n_terms=3)
        assert a * p == op_mul(a, DiffOp([p]))
        assert p * a == op_mul(DiffOp([p]), a)
        assert a * Rat(3, 2) == Rat(3, 2) * a == a.scale(Rat(3, 2))


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


def left_product_poly_of_op(c: list, op: DiffOp) -> DiffOp:
    """sum_j c_j ∘ op^j with the powers of op formed one by one and each
    c_j (a DiffOp, or a Poly read as multiplication by it) multiplied on
    the left: the reference for poly_of_op, which runs Horner's rule."""
    result, power = DiffOp.zero(), DiffOp.identity()
    for j, cj in enumerate(c):
        if j:
            power = op_mul(power, op)
        if not isinstance(cj, DiffOp):
            cj = DiffOp.from_poly(cj)
        result = result + op_mul(cj, power)
    return result


@pytest.mark.parametrize("variables", [("x",), ("x", "a0", "a1")],
                         ids=["numeric", "symbolic"])
def test_poly_of_op_matches_left_product(variables):
    rng = random.Random(31)

    def rand():
        return random_poly(rng, vars=variables, max_exp=2, n_terms=3)

    for _ in range(6):
        op = DiffOp([rand() for _ in range(3)] + [Poly.one()])
        c = [rand() for _ in range(4)]
        assert poly_of_op(c, op) == left_product_poly_of_op(c, op)
        # x-dependent operator blocks, a zero block in the middle and at
        # the top, and a Poly among them: a block multiplied on the right
        # of op^j, or a Horner step skipped at a zero block, changes the sum
        blocks = [DiffOp([rand(), rand(), x + rand()]),
                  DiffOp.zero(),
                  rand(),
                  DiffOp([rand(), x * rand() + x]),
                  DiffOp.zero()]
        got = poly_of_op(blocks, op)
        assert got == left_product_poly_of_op(blocks, op)
        assert got.order() == 3 * op.order() + 1


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
        assert op_from_json(op.to_json()) == op


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
    # at m! on x^0, so the x^0 coefficient of D^n in the product is
    # c*m!*2^n, exactly the bound sum_k (sum_i C(i,k) |a_i|_1) *
    # max_j |b_j^(k)|_inf the slot width is taken from.
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


def x_op(rng, degrees, bits) -> DiffOp:
    """An x-only operator whose coefficient of D^i is a dense random
    polynomial of x-degree degrees[i] with signed numerators of `bits`
    bits over small denominators, or zero where degrees[i] is None."""
    def coeff(deg):
        if deg is None:
            return Poly.zero()
        return x_poly({d: Rat(rng.choice((-1, 1))
                              * (rng.getrandbits(bits) | 1 << (bits - 1)),
                              rng.choice((1, 2, 3, 8, 15)))
                       for d in range(deg + 1)})
    return DiffOp([coeff(deg) for deg in degrees])


def test_kronecker_matches_schoolbook_construct_shapes(monkeypatch):
    # the operand shapes of construct: Horner steps R∘L with R of high
    # order, x-degree and numerator size and L as build_quartic gives it
    # (x-degrees 6/2/3/-/0 by order), the reverse L∘R of the commutator,
    # right operands whose b_j^(k) vanish at a different k in each order,
    # zero coefficients at order 0 and in the middle, and a left operand
    # of x-degree 0
    forbid(monkeypatch, "_op_mul_terms")
    rng = random.Random(16)
    ell = x_op(rng, [6, 2, 3, None, 0], 40)
    r = x_op(rng, [30 + i % 3 for i in range(21)], 210)
    mixed = x_op(rng, [None, 9, 0, 4, None, 0, 12, 1, 0], 64)
    flat = x_op(rng, [0, None, 0, 0, None, 0], 90)
    for a, b in ((r, ell), (ell, r), (ell, mixed), (mixed, ell),
                 (r, mixed), (flat, r), (flat, mixed), (mixed, flat)):
        assert op_mul(a, b) == schoolbook_op_mul(a, b)


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
    assert op_mul(deriv(3), deriv(5)) == deriv(8)


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


def test_numeric_pair_products_take_kernel(monkeypatch):
    # construct and the commutation certificate on numeric parameters
    # must run every product through the kernel, not the term loop
    forbid(monkeypatch, "_op_mul_terms")
    pair = build_pair(6, {"a0": Rat(2), "a1": Rat(3, 4), "a2": Rat(3),
                          "a3": Rat(1)})
    assert pair.m.order() == 26
    assert pair.bracket.is_zero()


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
            p = p + monomial(c, {v: rng.randint(0, 3)
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


def x0_parts(a: DiffOp, b: DiffOp) -> list[Poly]:
    """The x^0 parts of the coefficients of the full product a∘b,
    zero-padded to ord a + ord b + 1 entries."""
    if a.is_zero() or b.is_zero():
        return []
    coeffs = [c.coeff_in("x", 0) for c in op_mul(a, b).coeffs]
    return coeffs + [Poly.zero()] * (a.order() + b.order() + 1 - len(coeffs))


def test_x0_of_product_matches_full_product():
    # operands: an order-0 a, an x-free a with parameters and a zero
    # middle coefficient, a b of x-degree below ord a, zero operands, and
    # random numeric and parameter-bearing operators
    rng = random.Random(17)
    xfree = DiffOp([Poly.rat(3), a0, Poly.zero(), Poly.rat(Rat(-1, 2))])
    low = DiffOp([x + a0, Poly.zero(), x**2])
    cases = [(DiffOp([x**2 + 1]), random_x_op(rng, 3, 8)),
             (xfree, random_param_op(rng, 3, 8)),
             (random_x_op(rng, 5, 8), low), (xfree, low),
             (DiffOp.zero(), low), (low, DiffOp.zero())]
    for _ in range(6):
        cases.append((random_x_op(rng, rng.randint(0, 6), 40, zero_frac=0.4),
                      random_x_op(rng, rng.randint(0, 6), 40, zero_frac=0.4)))
        cases.append((random_param_op(rng, rng.randint(0, 4), 16),
                      random_param_op(rng, rng.randint(0, 4), 16)))
    for a, b in cases:
        assert weyl.x0_of_product(a, b) == x0_parts(a, b)


def test_x0_of_adjoint_matches_full_adjoint():
    # the x^0 parts of a* from Taylor coefficients of a, against those of
    # adjoint(a): high x-degrees (so that only x^k with k <= i is read),
    # zero coefficients, x-free and parameter-bearing operators
    rng = random.Random(31)
    cases = [DiffOp.zero(), DiffOp([x**2 + 1]), D, X * D * D,
             DiffOp([Poly.rat(3), a0, Poly.zero(), Poly.rat(Rat(-1, 2))])]
    for _ in range(12):
        cases.append(random_x_op(rng, rng.randint(0, 9), 40, max_deg=12,
                                 zero_frac=0.4))
        cases.append(random_param_op(rng, rng.randint(0, 6), 16))
    for a in cases:
        full = [c.coeff_in("x", 0) for c in adjoint(a).coeffs]
        assert weyl.x0_of_adjoint(a) == full, a


# -- poly_of_op's packed Horner against the per-step product -----------------

def stepwise_poly_of_op(c: list, op: DiffOp) -> DiffOp:
    """Horner's rule R <- R∘op + c_j with every step an op_mul unpacked
    into Polys: poly_of_op as it was before the packed Horner, kept here
    as the reference."""
    result = DiffOp.zero()
    for cj in reversed(c):
        result = op_mul(result, op) + (cj if isinstance(cj, DiffOp)
                                       else DiffOp.from_poly(cj))
    return result


def spy_kernel(monkeypatch) -> list:
    """Record the blocks of every call to the Kronecker kernel."""
    calls = []
    kernel = weyl._op_mul_kronecker

    def spy(blocks, *rest):
        calls.append(blocks)
        return kernel(blocks, *rest)

    monkeypatch.setattr(weyl, "_op_mul_kronecker", spy)
    return calls


def test_packed_horner_matches_stepwise_random(monkeypatch):
    # x-only operands with rational coefficients of up to 90 bits: DiffOp
    # and Poly blocks, zero blocks at the top and in the middle, an op of
    # the shape of L (x-degrees 6/2/3/-/0 by order) and ops with zero
    # coefficients; each sum must take the packed path, in one call
    calls = spy_kernel(monkeypatch)
    rng = random.Random(20)
    zero = DiffOp.zero()
    ell = x_op(rng, [6, 2, 3, None, 0], 40)
    for trial in range(12):
        bits = (3, 40, 90)[trial % 3]
        op = ell if trial % 4 == 0 else random_x_op(
            rng, rng.randint(1, 5), bits, zero_frac=0.4)
        blocks = []
        for _ in range(rng.randint(2, 6)):
            kind = rng.random()
            if kind < 0.2:
                blocks.append(zero if rng.random() < 0.5 else Poly.zero())
            elif kind < 0.5:
                blocks.append(random_x_op(rng, 0, bits).coeff(0))
            else:
                blocks.append(random_x_op(rng, rng.randint(0, 3), bits,
                                          zero_frac=0.4))
        blocks[1] = zero  # a zero block in the middle
        if trial % 2:
            blocks.append(zero)  # and one at the top
        calls.clear()
        got = poly_of_op(blocks, op)
        assert [len(b) for b in calls] == [len(blocks)], trial
        assert got == stepwise_poly_of_op(blocks, op), trial


def test_packed_horner_slot_width_at_its_bound():
    # op = D and blocks c_j = A_j x^3 D^(2-j) + [j = 0] P put sum A_j x^3
    # at D^2 and P at D^0, so the L1 norms carried through Horner's rule
    # are exact: at D^2 one term equal to T = sum A_j, at D^0 a P of
    # norm T, its two coefficients of opposite signs.  T = 2^(w-1) - 1 is
    # the largest digit a w-bit slot holds and T = 2^(w-1) needs the next
    # width, so a width one byte short, or a bound that drops a step or
    # a block, misreads the sum.
    for t, blocks, p in slot_bound_cases():
        got = poly_of_op(blocks, D)
        assert got == stepwise_poly_of_op(blocks, D), t
        assert got.coeff(2) == Rat(t) * x**3
        assert got.coeff(0) == p.coeff(0)


def slot_bound_cases():
    """(T, blocks, P) for test_packed_horner_slot_width_at_its_bound."""
    x3 = x**3
    for nbytes in range(1, 6):
        for top in ((1 << (8 * nbytes - 1)) - 1, 1 << (8 * nbytes - 1)):
            for sign in (1, -1):
                t = sign * top
                parts = (t // 3, t // 5, t - t // 3 - t // 5)
                p = DiffOp([Rat(t // 2) - Rat(t - t // 2) * x**2])
                yield t, [DiffOp([Poly.zero(), Poly.zero(),
                                  Rat(parts[0]) * x3]) + p,
                          DiffOp([Poly.zero(), Rat(parts[1]) * x3]),
                          Rat(parts[2]) * x3], p


def test_parameter_operands_skip_packed_horner(monkeypatch):
    # an op with a parameter, or a top block with one, makes every Horner
    # step a product with a parameter, so no kernel call at all; with a
    # parameter in a lower block only, the kernel runs op_mul's single
    # products (blocks [0, a]), never the whole sum
    rng = random.Random(22)
    a = random_x_op(rng, 2, 20)
    h = random_x_op(rng, 3, 20)
    calls = spy_kernel(monkeypatch)
    for blocks, op in (([a, x, a], H), ([a, a0 * x, DiffOp([a0, x])], h)):
        assert poly_of_op(blocks, op) == stepwise_poly_of_op(blocks, op)
        assert calls == []
    blocks = [a, DiffOp([a0 * x, Poly.one()]), a, a]
    assert poly_of_op(blocks, h) == stepwise_poly_of_op(blocks, h)
    assert calls and all(len(b) == 2 and not b[0] for b in calls)


def test_build_companion_decodes_m_once(monkeypatch):
    # the packed Horner unpacks only the sum: at numeric g = 8 building M
    # makes exactly one Poly per coefficient of M from packed digits
    pair = build_pair(8, {"a0": Rat(2), "a1": Rat(3, 4), "a2": Rat(3),
                          "a3": Rat(1)})
    made = []
    from_x_nums = Poly.from_x_nums

    def counting(terms, den):
        made.append(den)
        return from_x_nums(terms, den)

    monkeypatch.setattr(Poly, "from_x_nums", staticmethod(counting))
    m = pairs.build_companion(pair.q, pair.l4)
    assert m == pair.m
    assert len(made) == m.order() + 1 == 35


# -- Horner steps by a sum of operator products ------------------------------

def factored_quartic(v: Poly, w: Poly) -> tuple[DiffOp, list]:
    """L = H∘H + W with H = D^2 + v, formed by op_mul, and the products
    build_companion steps by."""
    h = DiffOp([v, Poly.zero(), Poly.one()])
    return op_mul(h, h) + DiffOp([w]), [[h, h], [DiffOp([w])]]


def spy_chains(monkeypatch) -> list:
    """Record the products every kernel call steps by (None: op itself)."""
    calls = []
    kernel = weyl._op_mul_kronecker

    def spy(blocks, ox, kn, chains=None):
        calls.append(chains)
        return kernel(blocks, ox, kn, chains)

    monkeypatch.setattr(weyl, "_op_mul_kronecker", spy)
    return calls


def test_factored_step_matches_stepwise_random(monkeypatch):
    # random V and W: dense, with den(W) not dividing den(V)^2, with zero
    # coefficients in V, V = 0, and denominators that cancel in L (its
    # lcm 1 against lcm(den(V)^2, den(W)) = 4); each sum takes one kernel
    # call stepping by both products
    calls = spy_chains(monkeypatch)
    rng = random.Random(24)

    def rand(dens=(1, 2, 3, 8, 15)):
        return Rat(rng.randint(-(1 << 30), 1 << 30), rng.choice(dens))

    cases = [(x_poly({d: rand() for d in range(4)}),
              x_poly({d: rand() for d in range(2)})),
             (x_poly({d: rand((2, 4)) for d in range(4)}),
              x_poly({1: rand((3, 9)), 0: rand((5,))})),
             (x_poly({3: rand(), 0: rand()}), x_poly({1: rand()})),
             (x_poly({5: rand(), 2: rand()}),
              x_poly({d: rand() for d in range(3)})),
             (Poly.zero(), x_poly({1: rand(), 0: rand()})),
             (Rat(1, 2) * x, 1 - Rat(1, 4) * x**2)]
    for trial, (v, w) in enumerate(cases):
        l4, products = factored_quartic(v, w)
        blocks = [random_x_op(rng, 2, (3, 40, 90)[trial % 3], zero_frac=0.3)
                  for _ in range(rng.randint(2, 6))] + [Poly.one()]
        blocks[1] = x_poly({2: rand()})
        calls.clear()
        got = poly_of_products(blocks, l4, products)
        assert calls == [calls[0]] and len(calls[0]) == 2, trial
        assert got == stepwise_poly_of_op(blocks, l4), trial
        assert got == poly_of_op(blocks, l4), trial


def test_factored_step_with_parameters_steps_by_op(monkeypatch):
    # a parameter in V makes every step R∘L on the term loop: the kernel
    # never sees the products
    calls = spy_chains(monkeypatch)
    rng = random.Random(25)
    l4, products = factored_quartic(x**3 + a0, 7 * x)
    blocks = [random_x_op(rng, 2, 20) for _ in range(3)] + [Poly.one()]
    assert (poly_of_products(blocks, l4, products)
            == stepwise_poly_of_op(blocks, l4))
    assert all(c is None for c in calls)


@pytest.mark.parametrize("products", [
    [[DiffOp([Poly.zero(), Poly.rat(2)]), DiffOp([Rat(1, 2)])]],
    [[D, DiffOp([Poly.rat(2)])], [-D]],
    [[D, X, D], [-X, D, D]]], ids=["2D.half", "D.2-D", "DxD-xDD"])
def test_factored_step_slot_width_at_its_bound(products):
    # op = D as a sum of products: the slot width comes from D, as for
    # poly_of_op, while the steps form 2R∘D, R∘D twice or products of
    # order 3, whose digits the slots of the sum need not hold; the last
    # sum is -D if a product is applied right to left
    for t, blocks, p in slot_bound_cases():
        got = poly_of_products(blocks, D, products)
        assert got == stepwise_poly_of_op(blocks, D), t
        assert got.coeff(2) == Rat(t) * x**3
        assert got.coeff(0) == p.coeff(0)


def test_factored_step_scales_op_norms():
    # D stepped as 2D∘(1/2) packs over 2 per step, so a top block T x^3
    # reaches the sum as 4T x^3 D^2 and D's norms must be scaled by 2:
    # unscaled, T = 2^(8n-3) gets a width one byte short
    products = [[DiffOp([Poly.zero(), Poly.rat(2)]), DiffOp([Rat(1, 2)])]]
    for nbytes in range(1, 6):
        for top in ((1 << (8 * nbytes - 3)) - 1, 1 << (8 * nbytes - 3)):
            for sign in (1, -1):
                blocks = [Poly.zero(), Poly.zero(), Rat(sign * top) * x**3]
                assert (poly_of_products(blocks, D, products)
                        == DiffOp(blocks)), sign * top
