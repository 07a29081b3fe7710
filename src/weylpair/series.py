"""Truncated formal Laurent series in the local parameter k.

A series is sum_{i >= val} coeffs[i - val] * k^i known modulo O(k^trunc),
with coefficients in the polynomial ring (x and parameters; never z or k
themselves).  Truncation propagates through arithmetic the standard way:
adding keeps the weaker truncation, multiplying by a series of valuation v
shifts the error budget by v.
"""

from __future__ import annotations

from .poly import Poly, Rat


class TruncationError(ArithmeticError):
    """A coefficient beyond the known truncation order was requested, or a
    requested expansion order exceeded the available budget."""


class LaurentSeries:
    __slots__ = ("val", "coeffs", "trunc")

    def __init__(self, val: int, coeffs: list[Poly], trunc: int):
        coeffs = [c if isinstance(c, Poly) else Poly.rat(c) for c in coeffs]
        coeffs = coeffs[:max(0, trunc - val)]
        while coeffs and coeffs[0].is_zero():
            coeffs = coeffs[1:]
            val += 1
        if coeffs:
            coeffs = coeffs + [Poly.zero()] * (trunc - val - len(coeffs))
        else:
            val = trunc
        self.val = val
        self.coeffs = coeffs
        self.trunc = trunc

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(trunc: int) -> "LaurentSeries":
        return LaurentSeries(trunc, [], trunc)

    @staticmethod
    def monomial(coeff, power: int, trunc: int) -> "LaurentSeries":
        c = coeff if isinstance(coeff, Poly) else Poly.rat(coeff)
        return LaurentSeries(power, [c], trunc)

    # -- accessors --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> Poly:
        """Coefficient of k^n; raises beyond the truncation order."""
        if n >= self.trunc:
            raise TruncationError(
                f"coefficient of k^{n} unknown (series is O(k^{self.trunc}))")
        if n < self.val:
            return Poly.zero()
        return self.coeffs[n - self.val]

    def known_range(self) -> range:
        return range(self.val, self.trunc)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        trunc = min(self.trunc, other.trunc)
        val = min(self.val, other.val, trunc)
        out = [Poly.zero()] * (trunc - val)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                n = s.val + i
                if n < trunc:
                    out[n - val] = out[n - val] + c
        return LaurentSeries(val, out, trunc)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.val, [-c for c in self.coeffs], self.trunc)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        trunc = min(self.trunc + other.val, other.trunc + self.val)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(trunc)
        val = self.val + other.val
        n = trunc - val
        out = [Poly.zero()] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            jmax = min(len(other.coeffs), n - i)
            for j in range(jmax):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return LaurentSeries(val, out, trunc)

    def shift(self, d: int) -> "LaurentSeries":
        return LaurentSeries(self.val + d, list(self.coeffs), self.trunc + d)

    def __pow__(self, n: int) -> "LaurentSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers must be non-negative integers")
        if n == 0:
            return LaurentSeries.monomial(1, 0, self.trunc - self.val)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def inverse(self) -> "LaurentSeries":
        """Reciprocal; requires an invertible (nonzero rational constant)
        leading coefficient."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert a zero series")
        lead = self.coeffs[0]
        if not lead.is_constant():
            raise ValueError(
                f"leading coefficient {lead} is not an invertible constant")
        inv0 = Poly.rat(1 / lead.const_value())
        n = len(self.coeffs)
        out = [inv0]
        for m in range(1, n):
            acc = Poly.zero()
            for i in range(1, m + 1):
                si = self.coeffs[i]
                if not si.is_zero():
                    acc = acc + si * out[m - i]
            out.append(-acc * inv0)
        return LaurentSeries(-self.val, out, -self.val + n)

    def sqrt(self) -> "LaurentSeries":
        """Square root of a series 1 + O(k); coefficientwise Newton
        recurrence, exact over the rationals.  The convolution
        sum_{i=1}^{m-1} out[i]*out[m-i] is symmetric in i <-> m-i, so it is
        twice the sum over i < m/2, plus the middle square for even m."""
        if self.val != 0 or self.coeffs[0] != Poly.one():
            raise ValueError("sqrt requires a series of the form 1 + O(k)")
        n = len(self.coeffs)
        half = Rat(1, 2)
        out = [Poly.one()]
        for m in range(1, n):
            acc = Poly.zero()
            for i in range(1, (m + 1) // 2):
                acc = acc + out[i] * out[m - i]
            acc = acc + acc
            if m % 2 == 0:
                acc = acc + out[m // 2] * out[m // 2]
            out.append((self.coeffs[m] - acc) * half)
        return LaurentSeries(0, out, n)

    # -- comparison and presentation ----------------------------------------

    def same_up_to_trunc(self, other: "LaurentSeries") -> bool:
        """Equality of all coefficients on the common known range."""
        trunc = min(self.trunc, other.trunc)
        lo = min(self.val, other.val)
        for n in range(lo, trunc):
            if self.coeff(n) != other.coeff(n):
                return False
        return True

    def __str__(self):
        if not self.coeffs:
            return f"O(k^{self.trunc})"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            n = self.val + i
            kpow = "" if n == 0 else ("k" if n == 1 else f"k^{n}")
            parts.append(f"({c})" + ("*" + kpow if kpow else ""))
        parts.append(f"O(k^{self.trunc})")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentSeries({self})"


def series_from_poly(p: Poly, trunc: int) -> LaurentSeries:
    """Expand a polynomial at infinity by substituting z = k^(-2).

    The z-degree-j part contributes its (z-free) coefficient at k^(-2j).
    The input polynomial is exact, so any truncation budget is valid.
    """
    if p.is_zero():
        return LaurentSeries.zero(trunc)
    zc = p.coeffs_in("z")
    val = -2 * (len(zc) - 1)
    out = [Poly.zero()] * (trunc - val)
    for j, c in enumerate(zc):
        n = -2 * j
        if n < trunc:
            out[n - val] = c
    return LaurentSeries(val, out, trunc)
