"""Sparse multivariate polynomials over exact rationals.

Every symbolic object in this package is built from one polynomial ring:
rational-coefficient polynomials in the six variables

    x, z, a0, a1, a2, a3

where x is the spatial variable, z the spectral variable and a0..a3 the
potential parameters.  Coefficients are arbitrary-precision rationals
(fractions.Fraction), so all arithmetic is exact.  Polynomials are
immutable; every operation returns a new value.
"""

from __future__ import annotations

import math
from fractions import Fraction as Rat

VARS = ("x", "z", "a0", "a1", "a2", "a3")
NVARS = len(VARS)

# Exponent vectors are packed into a single int, 16 bits per variable, with
# x in the most significant field so that integer comparison of keys equals
# lexicographic comparison of (e_x, e_z, e_a0, ..., e_a3).  All exponents
# must stay below 2**15 so that monomial divisibility can be tested with a
# borrow mask; the degrees arising here are at most a few hundred.
_SHIFT = {v: 16 * (NVARS - 1 - i) for i, v in enumerate(VARS)}
_FIELD = 0xFFFF
_EXP_LIMIT = 1 << 15
_BORROW_MASK = sum(0x8000 << (16 * j) for j in range(NVARS))
# x holds the top field, so every other variable lives in the bits below it.
_X_SHIFT = _SHIFT["x"]
_NON_X = (1 << _X_SHIFT) - 1


class NotDivisibleError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _rat(value) -> Rat:
    if isinstance(value, Rat):
        return value
    if isinstance(value, int):
        return Rat(value)
    if isinstance(value, str):
        return Rat(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _pack(exps) -> int:
    key = 0
    for v, e in zip(VARS, exps):
        if not 0 <= e < _EXP_LIMIT:
            raise ValueError(f"exponent of {v} out of range: {e}")
        key |= e << _SHIFT[v]
    return key


def _unpack(key: int) -> tuple[int, ...]:
    return tuple((key >> _SHIFT[v]) & _FIELD for v in VARS)


def _tdeg(key: int) -> int:
    t = 0
    while key:
        t += key & _FIELD
        key >>= 16
    return t


def _divides(dkey: int, rkey: int) -> bool:
    diff = rkey - dkey
    return diff >= 0 and not (diff & _BORROW_MASK)


class Poly:
    """Immutable sparse polynomial: dict from packed exponent key to Rat.

    Zero coefficients are never stored, so structural equality of the term
    dicts is mathematical equality.  The canonical term order used for
    printing, serialization and leading-term extraction is graded
    lexicographic with x > z > a0 > a1 > a2 > a3.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms or {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def rat(value) -> "Poly":
        c = _rat(value)
        return Poly({0: c}) if c else _ZERO

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        if name not in _SHIFT:
            raise ValueError(f"unknown variable {name!r}")
        if exp < 0 or exp >= _EXP_LIMIT:
            raise ValueError(f"exponent out of range: {exp}")
        if exp == 0:
            return _ONE
        return Poly({exp << _SHIFT[name]: Rat(1)})

    @staticmethod
    def monomial(coeff, exps: dict) -> "Poly":
        c = _rat(coeff)
        if not c:
            return _ZERO
        vec = [exps.get(v, 0) for v in VARS]
        unknown = set(exps) - set(VARS)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        return Poly({_pack(vec): c})

    # -- predicates and accessors -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> Rat:
        if not self.terms:
            return Rat(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        raise ValueError(f"not a constant: {self}")

    def degree(self, var: str | None = None) -> int:
        """Degree in one variable, or total degree if var is None; zero
        polynomial has degree -1."""
        if not self.terms:
            return -1
        if var is None:
            return max(_tdeg(k) for k in self.terms)
        s = _SHIFT[var]
        return max((k >> s) & _FIELD for k in self.terms)

    def coeff_in(self, var: str, exp: int) -> "Poly":
        """Coefficient of var**exp, as a polynomial in the other variables."""
        s = _SHIFT[var]
        out = {}
        for k, c in self.terms.items():
            if (k >> s) & _FIELD == exp:
                out[k - (exp << s)] = c
        return Poly(out)

    def coeffs_in(self, var: str) -> list["Poly"]:
        """Dense coefficient list [c_0, ..., c_deg] with respect to var."""
        d = self.degree(var)
        if d < 0:
            return []
        s = _SHIFT[var]
        buckets: list[dict] = [{} for _ in range(d + 1)]
        for k, c in self.terms.items():
            e = (k >> s) & _FIELD
            buckets[e][k - (e << s)] = c
        return [Poly(b) for b in buckets]

    def leading(self) -> tuple[int, Rat]:
        """(packed key, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        best = max(self.terms, key=lambda k: (_tdeg(k), k))
        return best, self.terms[best]

    def term_count(self) -> int:
        return len(self.terms)

    def x_terms(self) -> dict | None:
        """{x-degree: coefficient} when x is the only variable that occurs,
        else None (returned at the first term that involves another)."""
        out = {}
        for k, c in self.terms.items():
            if k & _NON_X:
                return None
            out[k >> _X_SHIFT] = c
        return out

    @staticmethod
    def from_x_terms(terms: dict) -> "Poly":
        """Inverse of x_terms; the coefficients must be nonzero Rats."""
        return Poly({d << _X_SHIFT: c for d, c in terms.items()})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            cur = out.get(k)
            if cur is None:
                out[k] = c
            else:
                cur = cur + c
                if cur:
                    out[k] = cur
                else:
                    del out[k]
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                cur = out.get(k)
                if cur is None:
                    out[k] = c1 * c2
                else:
                    cur = cur + c1 * c2
                    if cur:
                        out[k] = cur
                    else:
                        del out[k]
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus and substitution ----------------------------------------

    def diff(self, var: str) -> "Poly":
        """Formal partial derivative; only x and z are differentiable."""
        if var not in ("x", "z"):
            raise ValueError(f"cannot differentiate in parameter {var!r}")
        s = _SHIFT[var]
        out = {}
        for k, c in self.terms.items():
            e = (k >> s) & _FIELD
            if e:
                out[k - (1 << s)] = c * e
        return Poly(out)

    def eval(self, bindings: dict) -> "Poly":
        """Substitute rational values for a subset of the variables."""
        for name in bindings:
            if name not in _SHIFT:
                raise ValueError(f"unknown variable {name!r}")
        vals = {name: _rat(v) for name, v in bindings.items()}
        mask = 0
        for name in vals:
            mask |= _FIELD << _SHIFT[name]
        out: dict = {}
        for k, c in self.terms.items():
            factor = c
            for name, v in vals.items():
                e = (k >> _SHIFT[name]) & _FIELD
                if e:
                    factor = factor * v**e
            if not factor:
                continue
            nk = k & ~mask
            cur = out.get(nk)
            if cur is None:
                out[nk] = factor
            else:
                cur = cur + factor
                if cur:
                    out[nk] = cur
                else:
                    del out[nk]
        return Poly(out)

    def exact_div(self, d: "Poly") -> "Poly":
        """Exact quotient self / d; raises NotDivisibleError otherwise."""
        if not isinstance(d, Poly):
            d = Poly.rat(d)
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.terms:
            return _ZERO
        if d.is_constant():
            inv = 1 / d.const_value()
            return Poly({k: c * inv for k, c in self.terms.items()})
        if len(d.terms) == 1:
            (dk, dc), = d.terms.items()
            out = {}
            for k, c in self.terms.items():
                if not _divides(dk, k):
                    raise NotDivisibleError(f"{d} does not divide {self}")
                out[k - dk] = c / dc
            return Poly(out)
        dk, dc = d.leading()
        r = dict(self.terms)
        q: dict = {}
        while r:
            rk = max(r, key=lambda k: (_tdeg(k), k))
            if not _divides(dk, rk):
                raise NotDivisibleError("no exact quotient exists")
            mk = rk - dk
            mc = r[rk] / dc
            q[mk] = mc
            for k2, c2 in d.terms.items():
                kk = mk + k2
                cur = r.get(kk)
                if cur is None:
                    r[kk] = -mc * c2
                else:
                    cur = cur - mc * c2
                    if cur:
                        r[kk] = cur
                    else:
                        del r[kk]
        return Poly(q)

    def try_div(self, d: "Poly"):
        """Exact quotient, or None when division leaves a remainder."""
        try:
            return self.exact_div(d)
        except NotDivisibleError:
            return None

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Rat]]:
        """Terms in descending graded-lex order, with unpacked exponents."""
        keys = sorted(self.terms, key=lambda k: (_tdeg(k), k), reverse=True)
        return [(_unpack(k), self.terms[k]) for k in keys]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for v, e in zip(VARS, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"Poly({self})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                {"c": f"{c.numerator}/{c.denominator}", "e": list(exps)}
                for exps, c in self.sorted_terms()
            ]
        }

    @staticmethod
    def from_json(obj: dict) -> "Poly":
        out: dict = {}
        for term in obj["terms"]:
            c = _rat(term["c"])
            e = term["e"]
            if len(e) != NVARS:
                raise ValueError(f"exponent vector must have {NVARS} entries")
            if c:
                key = _pack(e)
                out[key] = out.get(key, Rat(0)) + c
        return Poly({k: c for k, c in out.items() if c})


_ZERO = Poly({})
_ONE = Poly({0: Rat(1)})


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Rat)):
        return Poly.rat(value)
    return NotImplemented


def _bareiss_det(mat: list[list[Poly]]) -> Poly:
    """Determinant of a square Poly matrix by fraction-free elimination.

    Every division in the Bareiss recurrence is exact over an integral
    domain, so the computation stays inside the polynomial ring.
    """
    n = len(mat)
    if n == 0:
        return Poly.one()
    m = [row[:] for row in mat]
    sign = 1
    prev = Poly.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next(
                (i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot_row is None:
                return Poly.zero()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = Poly.zero()
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant(p: Poly, q: Poly, var: str) -> Poly:
    """Resultant of p and q with respect to var, eliminating var.

    Computed as the determinant of the Sylvester matrix by fraction-free
    (Bareiss) elimination, which avoids rational-function blowup when the
    remaining coefficients are themselves multivariate polynomials.
    """
    dp = p.degree(var)
    dq = q.degree(var)
    if dp < 1 or dq < 1:
        raise ValueError("resultant requires positive degree in var")
    pc = p.coeffs_in(var)
    qc = q.coeffs_in(var)
    n = dp + dq
    rows: list[list[Poly]] = []
    for i in range(dq):
        row = [Poly.zero()] * n
        for j, c in enumerate(reversed(pc)):
            row[i + j] = c
        rows.append(row)
    for i in range(dp):
        row = [Poly.zero()] * n
        for j, c in enumerate(reversed(qc)):
            row[i + j] = c
        rows.append(row)
    return _bareiss_det(rows)


def discriminant(p: Poly, var: str) -> Poly:
    """Discriminant of p in var with the standard normalization:
    (-1)^(d(d-1)/2) * resultant(p, dp/dvar) / leading_coefficient."""
    d = p.degree(var)
    if d < 2:
        raise ValueError("discriminant requires degree >= 2")
    lead = p.coeff_in(var, d)
    res = resultant(p, p.diff(var), var)
    res = res.exact_div(lead)
    if (d * (d - 1) // 2) % 2:
        res = -res
    return res


def binomial(n: int, k: int) -> int:
    return math.comb(n, k)
