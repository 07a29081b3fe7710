"""Core polynomial ring: examples, axioms, and the common-root decider."""

import json
import math
import random

import pytest
import sympy

from weylpair import poly
from weylpair.poly import NotDivisibleError, Poly, Rat, shares_root

from conftest import (monomial, poly_from_json, random_nonzero_poly,
                      random_poly, random_rat)

x = Poly.var("x")
z = Poly.var("z")
a0 = Poly.var("a0")
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
    assert shares_root(z**2 - 1, z - 1, "z")
    assert not shares_root(z**2 - 1, z - 2, "z")


def test_resultant_requires_positive_degree():
    # degree 0 in z, a second variable, and the zero polynomial
    for p, q in ((x, z - 1), (z - 1, Poly.rat(3)), (z + x, z - 1),
                 (z - 1, a0 * z**2 + 1), (Poly.zero(), z)):
        with pytest.raises(ValueError):
            shares_root(p, q, "z")


def test_resultant_vanishes_iff_common_root():
    rng = random.Random(11)
    for _ in range(40):
        shared = z - Poly.rat(random_rat(rng))
        p = shared * random_nonzero_poly(rng, vars=("z",), max_exp=2)
        q = shared * random_nonzero_poly(rng, vars=("z",), max_exp=2)
        assert shares_root(p, q, "z")
    for _ in range(40):
        r1 = random_rat(rng)
        r2 = r1 + 1
        p = (z - Poly.rat(r1)) * (z - Poly.rat(r1 + 2))
        q = z - Poly.rat(r2)
        assert not shares_root(p, q, "z")


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
        fwd = fwd + monomial(c, e)
    rev = Poly.zero()
    for c, e in reversed(terms):
        rev = rev + monomial(c, e)
    assert fwd == rev
    assert fwd.sorted_terms() == rev.sorted_terms()


def test_serialization_roundtrip_and_canonical_order(rng):
    for _ in range(50):
        p = random_poly(rng, vars=("x", "z", "a0", "a3"))
        obj = p.to_json()
        assert poly_from_json(obj) == p
        degs = [(sum(t["e"]), t["e"]) for t in obj["terms"]]
        assert degs == sorted(degs, reverse=True)
        text = json.dumps(obj)
        assert json.dumps(poly_from_json(json.loads(text)).to_json()) == text


def fraction_json(p: Poly) -> dict:
    """to_json written through one Fraction per term."""
    return {"terms": [{"c": f"{c.numerator}/{c.denominator}", "e": list(e)}
                      for e, c in p.sorted_terms()]}


def test_to_json_reduces_each_term_like_fraction(rng):
    # per-term numerators that share a factor with den, and negative ones,
    # must print in lowest terms with the sign on the numerator
    keys = [next(iter(m.terms)) for m in (x**2, x * z, a3, Poly.one())]
    cases = [Poly(dict(zip(keys, nums)), den)
             for nums, den in (((2, 3, -4), 6), ((-2, -3, 4, 5), 6),
                               ((-9, 12, 15, -7), 30), ((-5,), 1),
                               ((2**70, -(3**40), 7), 6**30))]
    assert cases[0].to_json()["terms"][0]["c"] == "1/3"
    cases += [random_poly(rng, vars=("x", "z", "a0", "a3")) for _ in range(30)]
    cases.append(Poly.zero())
    for p in cases:
        assert p.to_json() == fraction_json(p), p


def shift_unpack(key: int) -> tuple[int, ...]:
    """The exponents of a key read field by field, as _unpack did before it
    read them through struct: the reference for _unpack."""
    return tuple((key >> poly._SHIFT[v]) & 0xFFFF for v in poly.VARS)


def loop_glex(key: int) -> tuple[int, int]:
    """(total degree, key) with the degree summed 16 bits at a time, as
    _glex did before: the reference for _glex."""
    t, k = 0, key
    while k:
        t += k & 0xFFFF
        k >>= 16
    return t, key


def test_key_unpacking_matches_field_shifts():
    rng = random.Random(19)
    top = poly._EXP_LIMIT - 1
    vecs = [[0] * 6, [top] * 6, [top] + [0] * 5, [0] * 5 + [top],
            [1, 0, 0, 0, 0, 1], [255, 256, 0, 1, 0, 0]]
    vecs += [[rng.randint(0, (9, 300, top)[n % 3]) for _ in range(6)]
             for n in range(600)]
    keys = [next(iter(monomial(1, dict(zip(poly.VARS, v))).terms))
            for v in vecs]
    for v, k in zip(vecs, keys):
        assert poly._unpack(k) == shift_unpack(k) == tuple(v)
        assert poly._glex(k) == loop_glex(k)
    assert (sorted(keys, key=poly._glex, reverse=True)
            == sorted(keys, key=loop_glex, reverse=True))
    # to_json, sorted_terms, degree and exact_div order terms by the same key
    for _ in range(40):
        p = random_poly(rng, vars=("x", "z", "a0", "a1", "a2", "a3"),
                        max_exp=rng.choice((2, 40)), n_terms=8)
        order = sorted(p.terms, key=loop_glex, reverse=True)
        assert [tuple(t["e"]) for t in p.to_json()["terms"]] == [
            shift_unpack(k) for k in order]
        assert [e for e, _ in p.sorted_terms()] == [
            shift_unpack(k) for k in order]
        assert p.degree() == max(loop_glex(k)[0] for k in p.terms)


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


# -- the numerator/denominator representation ------------------------------

ALL = ("x", "z", "a0", "a1", "a2", "a3")
GENS = sympy.symbols(ALL)


def big_poly(rng, vars=ALL, max_exp=2, n_terms=5, bits=64) -> Poly:
    """Signed numerators and denominators of up to `bits` bits."""
    p = Poly.zero()
    for _ in range(n_terms):
        c = Rat(rng.randint(-(1 << bits), 1 << bits),
                rng.randint(1, 1 << bits))
        p = p + monomial(c, {v: rng.randint(0, max_exp) for v in vars})
    return p


def to_sympy(p: Poly) -> sympy.Poly:
    return sympy.Poly.from_dict(
        {exps: sympy.Rational(c.numerator, c.denominator)
         for exps, c in p.sorted_terms()}, *GENS, domain="QQ")


def from_sympy(s) -> dict:
    s = sympy.Poly(s, *GENS, domain="QQ")
    return {exps: Rat(int(c.p), int(c.q)) for exps, c in s.terms() if c}


def as_dict(p: Poly) -> dict:
    assert_canonical(p)
    return dict(p.sorted_terms())


def assert_canonical(p: Poly) -> None:
    assert p.den > 0
    assert all(isinstance(c, int) and c for c in p.terms.values())
    if p.is_zero():
        assert p.den == 1
    else:
        assert math.gcd(p.den, *p.terms.values()) == 1


def big_pairs(seed, n=25, **kw):
    rng = random.Random(seed)
    for i in range(n):
        p, q = big_poly(rng, **kw), big_poly(rng, **kw)
        if i % 5 == 0:
            q = q - p  # p + q cancels every term of p
        yield p, q


def test_ring_ops_match_sympy():
    for p, q in big_pairs(1):
        sp, sq = to_sympy(p), to_sympy(q)
        assert as_dict(p + q) == from_sympy(sp + sq)
        assert as_dict(p - q) == from_sympy(sp - sq)
        assert as_dict(q - q) == {}
        assert as_dict(p * q) == from_sympy(sp * sq)
        assert as_dict(-p) == from_sympy(-sp)


def test_sums_cancelling_to_zero_are_canonical_zero():
    for p, q in big_pairs(2):
        s = (p + q) - q - p
        assert as_dict(s) == {}
        assert s == Poly.zero() and hash(s) == hash(Poly.zero())
    # equal denominators whose sum cancels them
    half = Poly.rat(Rat(1, 2)) * x
    assert (half + half).den == 1 and half + half == x


def test_pow_matches_sympy():
    rng = random.Random(3)
    for _ in range(8):
        p = big_poly(rng, n_terms=3)
        for n in range(4):
            assert as_dict(p**n) == from_sympy(to_sympy(p) ** n)


def test_diff_and_coeffs_in_match_sympy():
    for p, _ in big_pairs(4, max_exp=3):
        sp = to_sympy(p)
        for i, v in enumerate(("x", "z")):
            assert as_dict(p.diff(v)) == from_sympy(sp.diff(GENS[i]))
        for i, v in enumerate(ALL):
            expect = {}
            for exps, c in from_sympy(sp).items():
                e = list(exps)
                expect.setdefault(e[i], {})[tuple(e[:i] + [0] + e[i + 1:])] = c
            got = p.coeffs_in(v)
            assert len(got) == (max(expect) + 1 if expect else 0)
            for e, c in enumerate(got):
                assert as_dict(c) == expect.get(e, {})
                assert c == p.coeff_in(v, e)


def test_exact_div_matches_sympy():
    rng = random.Random(5)
    for i in range(30):
        p = big_poly(rng, vars=("x", "z", "a0"), n_terms=4)
        d = big_poly(rng, vars=("x", "z", "a0"), n_terms=1 + i % 3)
        if d.is_zero():
            continue
        prod = p * d
        assert as_dict(prod.exact_div(d)) == from_sympy(
            sympy.div(to_sympy(prod), to_sympy(d))[0])
        quo, rem = sympy.div(to_sympy(p), to_sympy(d))
        if rem.is_zero:
            assert as_dict(p.exact_div(d)) == from_sympy(quo)
        else:
            with pytest.raises(NotDivisibleError):
                p.exact_div(d)


def test_eval_matches_sympy():
    rng = random.Random(6)
    for p, _ in big_pairs(6, max_exp=3):
        names = rng.sample(ALL, rng.randint(1, 3))
        vals = {v: Rat(rng.randint(-(1 << 64), 1 << 64),
                       rng.randint(1, 1 << 64)) for v in names}
        vals[names[0]] = Rat(0) if rng.random() < 0.3 else vals[names[0]]
        expect = to_sympy(p).as_expr().subs(
            {GENS[ALL.index(v)]: sympy.Rational(c.numerator, c.denominator)
             for v, c in vals.items()})
        assert as_dict(p.eval(vals)) == from_sympy(expect)


def sympy_res_is_zero(p: Poly, q: Poly) -> bool:
    return sympy.resultant(to_sympy(p).as_expr(), to_sympy(q).as_expr(),
                           GENS[1]) == 0


def test_resultant_in_one_variable_matches_sympy():
    # shares_root against sympy's resultant == 0, on p and q in z alone;
    # every third pair shares the root 3/2
    rng = random.Random(8)
    for i in range(12):
        p = big_poly(rng, vars=("z",), max_exp=6, n_terms=4, bits=40)
        q = big_poly(rng, vars=("z",), max_exp=5, n_terms=3, bits=40)
        p, q = p + Rat(2, 3) * z**7 + 1, q + Rat(-5, 7) * z**6 + 2
        if i % 3 == 0:
            p, q = p * (z - Rat(3, 2)), q * (2 * z - 3)
        assert shares_root(p, q, "z") == sympy_res_is_zero(p, q)
        assert shares_root(q, p, "z") == (i % 3 == 0)
    # random non-monic leading coefficients; every other pair has a common
    # factor of degree 1 or 2
    for i in range(40):
        p = big_poly(rng, vars=("z",), max_exp=4, n_terms=4, bits=30)
        q = big_poly(rng, vars=("z",), max_exp=3, n_terms=3, bits=30)
        p = p + Rat(rng.randint(-99, 99) or 1, rng.randint(1, 99)) * z**5 + 1
        q = q + Rat(rng.randint(-99, 99) or 1, rng.randint(1, 99)) * z**4 + 2
        if i % 2 == 0:
            c = big_poly(rng, vars=("z",), max_exp=1 + i % 4 // 2,
                         n_terms=2, bits=20) + Rat(7, 3) * z**(1 + i % 4 // 2)
            p, q = p * c, q * Rat(-11, 13) * c
        assert shares_root(p, q, "z") == sympy_res_is_zero(p, q)
        assert shares_root(p, q, "z") == (i % 2 == 0)
    # sparse pairs, with zero coefficients below the leading one
    for p, q in ((z**2 + 1, z), (z, z**2 + 1), (z**3 + 2, 3 * z**2 - 1),
                 (z**4 - 5, z**2 + z)):
        assert not shares_root(p, q, "z") and not sympy_res_is_zero(p, q)


def test_shares_root_with_derivative_matches_sympy_discriminant():
    # (p, p') shares a root exactly when disc p == 0; every other p has a
    # repeated root
    rng = random.Random(12)
    for i in range(30):
        p = big_poly(rng, vars=("z",), max_exp=4, n_terms=3, bits=30)
        p = p + Rat(rng.randint(1, 99), rng.randint(1, 99)) * z**5 + 1
        if i % 2 == 0:
            r = z - Rat(rng.randint(-99, 99), rng.randint(1, 99))
            p = p * r**(2 + i % 3)
        disc = sympy.discriminant(to_sympy(p).as_expr(), GENS[1])
        assert shares_root(p, p.diff("z"), "z") == (disc == 0)
        assert (disc == 0) == (i % 2 == 0)
    assert shares_root(z**3, 3 * z**2, "z")
    assert not shares_root(z**2 + 1, 2 * z, "z")


def test_rat_is_canonical():
    assert Poly.rat(Rat(2, 4)) == Poly.rat(Rat(1, 2))
    assert Poly.rat(Rat(2, 4)).den == 2
    assert Poly.rat(Rat(-3, 6)).terms == {0: -1}
    assert Poly.zero().den == 1 and Poly.rat(0).den == 1
    assert (x * Rat(1, 3) - x * Rat(1, 3)).den == 1


def test_exact_div_roundtrip_keeps_hash():
    for p, q in big_pairs(8, n=20):
        if q.is_zero():
            continue
        back = (p * q).exact_div(q)
        assert back == p and hash(back) == hash(p)
        assert_canonical(back)
