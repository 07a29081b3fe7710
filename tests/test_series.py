"""Truncated Laurent series arithmetic."""

import pytest

from weylpair.poly import Poly, Rat
from weylpair.series import LaurentSeries, TruncationError, series_from_poly

from conftest import random_poly

x = Poly.var("x")
z = Poly.var("z")


def series_of(pairs, trunc):
    val = min(n for n, _ in pairs)
    coeffs = [Poly.zero()] * (trunc - val)
    for n, c in pairs:
        coeffs[n - val] = c if isinstance(c, Poly) else Poly.rat(c)
    return LaurentSeries(val, coeffs, trunc)


def test_normalization_strips_leading_zeros():
    s = LaurentSeries(-2, [Poly.zero(), Poly.one(), x], 3)
    assert s.val == -1
    assert s.coeff(-1) == Poly.one()
    assert s.coeff(0) == x
    assert s.coeff(-5).is_zero()
    with pytest.raises(TruncationError):
        s.coeff(3)


def test_add_keeps_weaker_truncation():
    a = series_of([(0, 1), (1, 2)], 5)
    b = series_of([(0, 1)], 2)
    c = a + b
    assert c.trunc == 2
    assert c.coeff(0) == Poly.rat(2)


def test_mul_truncation_bookkeeping():
    # (k^-2 + O(k^3)) * (k + O(k^4)) = k^-1 + O(k^2)
    a = series_of([(-2, 1)], 3)
    b = series_of([(1, 1)], 4)
    c = a * b
    assert c.val == -1 and c.trunc == 2
    assert c.coeff(-1) == Poly.one()


def test_geometric_inverse():
    # 1/(1 - k) = 1 + k + k^2 + ...
    s = series_of([(0, 1), (1, -1)], 6)
    inv = s.inverse()
    for n in range(6):
        assert inv.coeff(n) == Poly.one()


def test_inverse_of_shifted():
    # 1/(k^-2 (1 + x k^2)) = k^2 - x k^4 + x^2 k^6 - ...
    s = series_of([(-2, 1), (0, x)], 4)
    inv = s.inverse()
    assert inv.val == 2
    assert inv.coeff(2) == Poly.one()
    assert inv.coeff(4) == -x
    assert inv.coeff(6) == x**2
    prod = s * inv
    assert prod.coeff(0) == Poly.one()
    for n in range(1, prod.trunc):
        assert prod.coeff(n).is_zero()


def test_inverse_requires_constant_lead():
    s = series_of([(0, x)], 3)
    with pytest.raises(ValueError):
        s.inverse()


def test_sqrt_binomial_series():
    # sqrt(1 + k^2) = 1 + k^2/2 - k^4/8 + k^6/16 - ...
    s = series_of([(0, 1), (2, 1)], 8)
    r = s.sqrt()
    assert r.coeff(0) == Poly.one()
    assert r.coeff(2) == Poly.rat(Rat(1, 2))
    assert r.coeff(4) == Poly.rat(Rat(-1, 8))
    assert r.coeff(6) == Poly.rat(Rat(1, 16))
    assert (r * r).same_up_to_trunc(s)


def test_sqrt_with_poly_coefficients():
    s = series_of([(0, 1), (2, x), (4, x**2)], 9)
    r = s.sqrt()
    assert (r * r).same_up_to_trunc(s)


def test_sqrt_with_odd_powers(rng):
    # every power of k occurs, so both the paired products of the
    # convolution and the middle square of even orders are exercised
    for trunc in (2, 3, 8, 11):
        pairs = [(0, 1)] + [(n, random_poly(rng, vars=("x",), n_terms=2))
                            for n in range(1, trunc)]
        s = series_of(pairs, trunc)
        r = s.sqrt()
        assert r.coeff(0) == Poly.one()
        assert (r * r).same_up_to_trunc(s)


def test_series_from_poly():
    p = z**2 + x * z + 3
    s = series_from_poly(p, 2)
    assert s.val == -4
    assert s.coeff(-4) == Poly.one()
    assert s.coeff(-2) == x
    assert s.coeff(0) == Poly.rat(3)
    assert s.coeff(-3).is_zero()


def test_pow_and_scale():
    s = series_of([(1, 1), (2, x)], 6)
    sq = s**2
    assert sq.coeff(2) == Poly.one()
    assert sq.coeff(3) == 2 * x
    assert (s**0).coeff(0) == Poly.one()


def test_ring_axioms_on_series(rng):
    def rand_series():
        pairs = [(n, random_poly(rng, vars=("x",), max_exp=2, n_terms=2))
                 for n in range(rng.randint(-2, 0), rng.randint(1, 3))]
        return series_of(pairs, rng.randint(3, 6))

    for _ in range(100):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a + b).same_up_to_trunc(b + a)
        assert (a * b).same_up_to_trunc(b * a)
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.same_up_to_trunc(rhs)
        assert (a * (b + c)).same_up_to_trunc(a * b + a * c)
