"""Core polynomial ring: examples, axioms, and the resultant machinery."""

import json
import random

import pytest

from weylpair.poly import (NotDivisibleError, Poly, Rat, discriminant,
                           resultant)

from conftest import random_nonzero_poly, random_poly, random_rat

x = Poly.var("x")
z = Poly.var("z")
a0 = Poly.var("a0")
a1 = Poly.var("a1")
a2 = Poly.var("a2")
a3 = Poly.var("a3")


def test_difference_of_squares():
    assert (x + z) * (x - z) == x**2 - z**2


def test_mul_by_zero_absorbs():
    p = x**2 + 3 * z - 1
    assert (p * Poly.zero()).is_zero()


def test_binomial_expansion():
    assert (z + a3 * x) ** 2 == z**2 + 2 * a3 * x * z + a3**2 * x**2


def test_diff_power_rule():
    assert (x**3 * z).diff("x") == 3 * x**2 * z
    assert (z**2 + x * z).diff("z") == 2 * z + x


def test_diff_parameter_is_constant():
    assert a3.diff("x").is_zero()
    with pytest.raises(ValueError):
        x.diff("a3")


def test_exact_div_monomial():
    assert (a3**2 * x).exact_div(a3) == a3 * x


def test_exact_div_factorization():
    assert (x**2 - z**2).exact_div(x - z) == x + z


def test_exact_div_remainder_raises():
    with pytest.raises(NotDivisibleError):
        (x + 1).exact_div(x)


def test_eval_examples():
    assert (z + a3 * x).eval({"a3": 1}) == z + x
    assert (x**2).eval({"x": 2}) == Poly.rat(4)
    assert (a0 * z**2).eval({"z": 0}).is_zero()
    assert (x * z).eval({"x": Rat(1, 2), "z": "2/3"}) == Poly.rat(Rat(1, 3))


def test_eval_rejects_unknown_variable():
    with pytest.raises(ValueError):
        x.eval({"y": 1})


def test_resultant_shared_root():
    assert resultant(z**2 - 1, z - 1, "z").is_zero()


def test_resultant_requires_positive_degree():
    with pytest.raises(ValueError):
        resultant(x, z - 1, "z")


def test_discriminant_quadratic():
    assert discriminant(z**2 + a1 * z + a2, "z") == a1**2 - 4 * a2


def test_discriminant_cubic():
    # disc(z^3 + p z + q) = -4 p^3 - 27 q^2 with p = 0, q = -a0
    assert discriminant(z**3 - a0, "z") == -27 * a0**2


def test_resultant_vanishes_iff_common_root():
    rng = random.Random(11)
    for _ in range(40):
        shared = z - Poly.rat(random_rat(rng))
        p = shared * random_nonzero_poly(rng, vars=("z",), max_exp=2)
        q = shared * random_nonzero_poly(rng, vars=("z",), max_exp=2)
        assert resultant(p, q, "z").is_zero()
    for _ in range(40):
        r1 = random_rat(rng)
        r2 = r1 + 1
        p = (z - Poly.rat(r1)) * (z - Poly.rat(r1 + 2))
        q = z - Poly.rat(r2)
        assert not resultant(p, q, "z").is_zero()


def test_ring_axioms_randomized(rng):
    for _ in range(200):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert p * q == q * p
        assert p - p == Poly.zero()


def test_leibniz_rule_randomized(rng):
    for _ in range(200):
        p = random_poly(rng)
        q = random_poly(rng)
        for v in ("x", "z"):
            assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


def test_exact_div_roundtrip_randomized(rng):
    for _ in range(200):
        p = random_poly(rng, vars=("x", "z", "a0"))
        d = random_nonzero_poly(rng, vars=("x", "z", "a0"))
        assert (p * d).exact_div(d) == p


def test_canonical_independent_of_insertion_order():
    terms = [(Rat(3, 2), {"x": 2}), (Rat(-1), {"z": 1}),
             (Rat(5), {"a0": 1, "x": 1}), (Rat(7, 3), {})]
    fwd = Poly.zero()
    for c, e in terms:
        fwd = fwd + Poly.monomial(c, e)
    rev = Poly.zero()
    for c, e in reversed(terms):
        rev = rev + Poly.monomial(c, e)
    assert fwd == rev
    assert fwd.sorted_terms() == rev.sorted_terms()


def test_serialization_roundtrip_and_canonical_order(rng):
    for _ in range(50):
        p = random_poly(rng, vars=("x", "z", "a0", "a3"))
        obj = p.to_json()
        assert Poly.from_json(obj) == p
        degs = [(sum(t["e"]), t["e"]) for t in obj["terms"]]
        assert degs == sorted(degs, reverse=True)
        text = json.dumps(obj)
        assert json.dumps(Poly.from_json(json.loads(text)).to_json()) == text


def test_coeff_extraction():
    p = (z + a3 * x) ** 2
    assert p.coeff_in("z", 2) == Poly.one()
    assert p.coeff_in("z", 1) == 2 * a3 * x
    assert p.coeffs_in("z") == [a3**2 * x**2, 2 * a3 * x, Poly.one()]
    assert p.degree("z") == 2 and p.degree("x") == 2
    assert p.degree() == 4


def test_rationals_stay_exact():
    third = Poly.rat(Rat(1, 3))
    assert third * 3 == Poly.one()
    assert (third + third + third) == Poly.one()
