"""Hyperelliptic spectral curves w^2 = F(z) and their nonsingularity.

F is monic of odd degree 2g+1 in z with coefficients that depend only on
the parameters a0..a3 (never on x or z), so the curve carries the sheet
involution (z, w) -> (z, -w) by construction.  Nonsingularity of the
affine model is equivalent to F being squarefree, i.e. disc_z(F) != 0,
which in characteristic 0 is gcd(F, F') = 1 and is decided by
poly.shares_root; the single point at infinity of an odd-degree
hyperelliptic model is always smooth in the standard completion.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import PARAM_NAMES, ParamError, check_a3
from .poly import Poly, shares_root


def require_bound(*polys: Poly) -> None:
    """Raise ParamError naming the first parameter that occurs in one of
    the polynomials."""
    for name in PARAM_NAMES:
        if any(p.degree(name) > 0 for p in polys):
            raise ParamError(f"parameter {name} left unbound")


class SpectralCurve(namedtuple("SpectralCurve", "g coeffs")):
    """Monic F(z) = z^(2g+1) + c_{2g} z^(2g) + ... + c_0.

    coeffs[i] = c_i as a polynomial in the parameters only.  No
    __slots__: the instance __dict__ holds F, built once.
    """

    def __new__(cls, g: int, coeffs: tuple[Poly, ...]):
        if len(coeffs) != 2 * g + 1:
            raise ValueError(
                f"genus {g} curve needs {2*g+1} coefficients, "
                f"got {len(coeffs)}")
        for c in coeffs:
            if c.degree("x") > 0 or c.degree("z") > 0:
                raise ValueError(
                    "curve coefficients must depend on parameters only")
        return super().__new__(cls, g, coeffs)

    # _replace builds through _make; keep it behind the checks above
    _make = classmethod(lambda cls, fields: cls(*fields))

    @cached_property
    def _f(self) -> Poly:
        z = Poly.var("z")
        f = z ** (2 * self.g + 1)
        for i, c in enumerate(self.coeffs):
            f = f + c * z**i
        return f

    def as_poly(self) -> Poly:
        """F as a polynomial in z (and any unbound parameters)."""
        return self._f

    def to_json(self) -> dict:
        return {"g": self.g, "c": [c.to_json() for c in self.coeffs]}


def is_nonsingular(curve: SpectralCurve, params: dict) -> bool:
    """Whether the curve is nonsingular at a full rational parameter point.

    params must bind every parameter still present in the coefficients;
    a3 = 0 is rejected because the construction requires a3 != 0.
    """
    check_a3(Poly.rat(params.get("a3", 1)))
    f = curve.as_poly().eval(params)
    require_bound(f)
    return not shares_root(f, f.diff("z"), "z")
