"""Spectral curves: discriminants and nonsingularity."""

import pytest
import sympy

from weylpair.curve import ParamError, SpectralCurve, is_nonsingular
from weylpair.poly import Poly
from weylpair.qsolver import build_q, extract_curve

from conftest import curve_from_json, random_param_tuple, sympy_disc_z

z = Poly.var("z")
a0 = sympy.Symbol("a0")

SLICE = {"a1": 0, "a2": 0, "a3": 1}


def curve_g1():
    return extract_curve(build_q(1, SLICE))  # z^3 - a0


def test_discriminant_genus1():
    assert sympy_disc_z(curve_g1().as_poly()) == -27 * a0**2


def test_discriminant_genus2_nonzero():
    d = sympy_disc_z(extract_curve(build_q(2, SLICE)).as_poly())
    assert d != 0


def test_degenerate_triple_root_control():
    cusp = SpectralCurve(g=1, coeffs=(Poly.zero(), Poly.zero(), Poly.zero()))
    assert cusp.as_poly() == z**3
    assert sympy_disc_z(cusp.as_poly()) == 0
    assert not is_nonsingular(cusp, {})


def test_is_nonsingular_examples():
    c = curve_g1()
    assert is_nonsingular(c, {"a0": 1})
    assert not is_nonsingular(c, {"a0": 0})
    c2 = extract_curve(build_q(2, SLICE))
    assert is_nonsingular(c2, {"a0": 1})


def test_is_nonsingular_rejects_a3_zero():
    c = extract_curve(build_q(1))
    with pytest.raises(ParamError):
        is_nonsingular(c, {"a0": 1, "a1": 0, "a2": 0, "a3": 0})


def test_is_nonsingular_requires_full_binding():
    c = extract_curve(build_q(2))
    with pytest.raises(ParamError):
        is_nonsingular(c, {"a0": 1})


def test_generic_parameters_give_smooth_curves(rng):
    # probabilistic confirmation of the generic-nonsingularity claim; a
    # zero hit is resampled and recorded, never a hard failure
    zero_hits = []
    for g in range(1, 5):
        curve = extract_curve(build_q(g))
        found = 0
        attempts = 0
        while found < 3 and attempts < 30:
            params = random_param_tuple(rng)
            attempts += 1
            if is_nonsingular(curve, params):
                found += 1
            else:
                zero_hits.append((g, params))
        assert found == 3, f"could not find 3 smooth samples at genus {g}"
    # degenerate parameters do exist (the control above); random hits are
    # merely logged
    if zero_hits:
        print(f"resampled degenerate tuples: {zero_hits}")


def test_involution_is_structural():
    # w enters only through w^2 = F: the type stores F alone, and its
    # coefficients may not involve x or z
    with pytest.raises(ValueError):
        SpectralCurve(g=1, coeffs=(Poly.var("x"), Poly.zero(), Poly.zero()))
    with pytest.raises(ValueError):
        SpectralCurve(g=1, coeffs=(Poly.var("z"), Poly.zero(), Poly.zero()))
    with pytest.raises(ValueError):
        SpectralCurve(g=2, coeffs=(Poly.zero(),) * 3)


def test_json_roundtrip():
    c = extract_curve(build_q(2))
    assert curve_from_json(c.to_json()).coeffs == c.coeffs


def test_as_poly_is_built_once_per_curve():
    c = extract_curve(build_q(3))
    f = c.as_poly()
    assert c.as_poly() is f
    z = Poly.var("z")
    assert f == z**7 + sum((ci * z**i for i, ci in enumerate(c.coeffs)),
                           Poly.zero())
    # a replaced curve builds its own F
    bumped = c._replace(coeffs=(c.coeffs[0] + Poly.one(),) + c.coeffs[1:])
    assert bumped.as_poly() == f + Poly.one()
    assert c.as_poly() is f
