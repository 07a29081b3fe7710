"""Sparse multivariate polynomials over exact rationals.

Every symbolic object in this package is built from one polynomial ring:
rational-coefficient polynomials in the six variables

    x, z, a0, a1, a2, a3

where x is the spatial variable, z the spectral variable and a0..a3 the
potential parameters.  A polynomial is stored as integer numerators over
one positive common denominator (the representation of FLINT's
fmpq_poly), so the ring arithmetic runs on plain Python ints and all of it
is exact.  Rationals (fractions.Fraction) appear only at the edges: when a
polynomial is built from or read back as rational coefficients.
Polynomials are immutable; every operation returns a new value.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction as Rat

VARS = ("x", "z", "a0", "a1", "a2", "a3")
NVARS = len(VARS)

# Exponent vectors are packed into a single int, 16 bits per variable, with
# x in the most significant field so that integer comparison of keys equals
# lexicographic comparison of (e_x, e_z, e_a0, ..., e_a3).  All exponents
# must stay below 2**15 so that monomial divisibility can be tested with a
# borrow mask; the degrees arising here are at most a few hundred.  Adding
# two keys multiplies the monomials.
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


_FIELDS = struct.Struct(f">{NVARS}H")  # a key's fields, in VARS order


def _unpack(key: int) -> tuple[int, ...]:
    return _FIELDS.unpack(key.to_bytes(2 * NVARS, "big"))


def _glex(key: int) -> tuple[int, int]:
    return sum(_unpack(key)), key


def _divides(dkey: int, rkey: int) -> bool:
    diff = rkey - dkey
    return diff >= 0 and not (diff & _BORROW_MASK)


def _make(terms: dict, den: int) -> "Poly":
    """The canonical Poly of nonzero int numerators over den > 0."""
    if not terms:
        return _ZERO
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    return Poly(terms, den)


class Poly:
    """Immutable sparse polynomial: terms maps each packed exponent key to
    an int numerator, and every coefficient is terms[key] / den.

    The form is canonical: no numerator is zero, den > 0, and
    gcd(den, every numerator) == 1, so zero is ({}, 1).  Structural
    equality of (terms, den) is therefore mathematical equality.  The
    canonical term order used for printing, serialization and
    leading-term extraction is graded lexicographic with
    x > z > a0 > a1 > a2 > a3.  The constructor trusts its arguments to be
    canonical; from_nums normalizes.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict | None = None, den: int = 1):
        self.terms = terms or {}
        self.den = den

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
        return Poly({0: c.numerator}, c.denominator) if c else _ZERO

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        if name not in _SHIFT:
            raise ValueError(f"unknown variable {name!r}")
        if exp < 0 or exp >= _EXP_LIMIT:
            raise ValueError(f"exponent out of range: {exp}")
        if exp == 0:
            return _ONE
        return Poly({exp << _SHIFT[name]: 1})

    @staticmethod
    def from_nums(terms: dict, den: int) -> "Poly":
        """The polynomial sum_k terms[k]/den * (monomial of key k), for int
        numerators (zeros allowed) over den > 0; takes ownership of terms."""
        if not all(terms.values()):
            terms = {k: c for k, c in terms.items() if c}
        return _make(terms, den)

    # -- predicates and accessors -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> Rat:
        if not self.terms:
            return Rat(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return Rat(self.terms[0], self.den)
        raise ValueError(f"not a constant: {self}")

    def degree(self, var: str | None = None) -> int:
        """Degree in one variable, or total degree if var is None; zero
        polynomial has degree -1."""
        if not self.terms:
            return -1
        if var is None:
            return max(sum(_unpack(k)) for k in self.terms)
        s = _SHIFT[var]
        return max((k >> s) & _FIELD for k in self.terms)

    def coeff_in(self, var: str, exp: int) -> "Poly":
        """Coefficient of var**exp, as a polynomial in the other variables."""
        s = _SHIFT[var]
        out = {}
        for k, c in self.terms.items():
            if (k >> s) & _FIELD == exp:
                out[k - (exp << s)] = c
        return _make(out, self.den)

    def coeffs_in(self, var: str) -> list["Poly"]:
        """Dense coefficient list [c_0, ..., c_deg] with respect to var."""
        return [_make(t, self.den)
                for t in self.nums_in(var, self.degree(var) + 1)]

    def nums_in(self, var: str, n: int) -> list[dict]:
        """The numerators over self.den of the coefficients of var^e,
        e < n, as {key of the other variables: numerator} dicts."""
        s = _SHIFT[var]
        out: list[dict] = [{} for _ in range(n)]
        for k, c in self.terms.items():
            e = (k >> s) & _FIELD
            if e < n:
                out[e][k - (e << s)] = c
        return out

    def term_count(self) -> int:
        return len(self.terms)

    def x_nums(self) -> tuple[dict, int] | None:
        """({x-degree: numerator}, den) when x is the only variable that
        occurs, else None (returned at the first term that involves
        another)."""
        out = {}
        for k, c in self.terms.items():
            if k & _NON_X:
                return None
            out[k >> _X_SHIFT] = c
        return out, self.den

    @staticmethod
    def from_x_nums(terms: dict, den: int) -> "Poly":
        """Inverse of x_nums; the numerators must be nonzero ints."""
        return _make({d << _X_SHIFT: c for d, c in terms.items()}, den)

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
        da, db = self.den, other.den
        if da == db:
            if len(a) < len(b):
                a, b = b, a
            out = dict(a)
        else:
            den = math.lcm(da, db)
            out = {k: c * (den // da) for k, c in a.items()}
            sb = den // db
            b = {k: c * sb for k, c in b.items()}
            da = den
        for k, c in b.items():
            cur = out.get(k)
            if cur is None:
                out[k] = c
            else:
                cur += c
                if cur:
                    out[k] = cur
                else:
                    del out[k]
        return _make(out, da)

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -c for k, c in self.terms.items()}, self.den)

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
        if len(a) == 1:
            (k1, c1), = a.items()
            out = {k1 + k: c1 * c for k, c in b.items()}
        else:
            out = {}
            get = out.get
            for k1, c1 in a.items():
                for k2, c2 in b.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
            if not all(out.values()):
                out = {k: c for k, c in out.items() if c}
        return _make(out, self.den * other.den)

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
        return self.den == other.den and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den))

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
        return _make(out, self.den)

    def eval(self, bindings: dict) -> "Poly":
        """Substitute rational values for a subset of the variables."""
        for name in bindings:
            if name not in _SHIFT:
                raise ValueError(f"unknown variable {name!r}")
        if not self.terms:
            return _ZERO
        # v = p/q at exponent e of at most top: multiply the numerator by
        # p^e * q^(top - e) and the denominator by q^top
        den = self.den
        mask = 0
        tables = []
        for name, v in bindings.items():
            v = _rat(v)
            s = _SHIFT[name]
            mask |= _FIELD << s
            top = max((k >> s) & _FIELD for k in self.terms)
            p, q = v.numerator, v.denominator
            tables.append((s, [p**e * q**(top - e) for e in range(top + 1)]))
            den *= q**top
        out: dict = {}
        for k, c in self.terms.items():
            for s, pw in tables:
                c *= pw[(k >> s) & _FIELD]
            if c:
                nk = k & ~mask
                out[nk] = out.get(nk, 0) + c
        return Poly.from_nums(out, den)

    def exact_div(self, d: "Poly") -> "Poly":
        """Exact quotient self / d; raises NotDivisibleError otherwise.

        Runs on integers only.  Write d = (c/dd) * P with P primitive (the
        gcd of its numerators is 1).  When P divides the numerator N of
        self over the rationals, Gauss's lemma makes N/P integral, so
        every step of the long division divides the remainder's leading
        numerator exactly by P's; a step that does not is a remainder.
        """
        if not isinstance(d, Poly):
            d = Poly.rat(d)
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.terms:
            return _ZERO
        if len(d.terms) == 1:
            (dk, dc), = d.terms.items()
            f = d.den if dc > 0 else -d.den
            out = {}
            for k, c in self.terms.items():
                if not _divides(dk, k):
                    raise NotDivisibleError(f"{d} does not divide {self}")
                out[k - dk] = c * f
            return _make(out, self.den * abs(dc))
        cont = math.gcd(*d.terms.values())
        p = {k: c // cont for k, c in d.terms.items()}
        dk = max(p, key=_glex)
        lc = p[dk]
        r = dict(self.terms)
        q: dict = {}
        while r:
            rk = max(r, key=_glex)
            mc, rem = divmod(r[rk], lc)
            if rem or not _divides(dk, rk):
                raise NotDivisibleError("no exact quotient exists")
            mk = rk - dk
            q[mk] = mc * d.den
            for k2, c2 in p.items():
                kk = mk + k2
                cur = r.get(kk, 0) - mc * c2
                if cur:
                    r[kk] = cur
                else:
                    del r[kk]
        return _make(q, self.den * cont)

    # -- presentation ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Rat]]:
        """Terms in descending graded-lex order, with unpacked exponents."""
        keys = sorted(self.terms, key=_glex, reverse=True)
        return [(_unpack(k), Rat(self.terms[k], self.den)) for k in keys]

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

    def json_terms(self) -> list[tuple[str, tuple[int, ...]]]:
        """(coefficient, exponents) of each term in the order of
        sorted_terms, the coefficient written as "num/den" in lowest terms
        straight from its int numerator."""
        terms, den = self.terms, self.den
        out = []
        for _, k, e in sorted([(sum(e), k, e) for k, e
                               in zip(terms, map(_unpack, terms))],
                              reverse=True):
            d = math.gcd(terms[k], den)
            out.append((f"{terms[k] // d}/{den // d}", e))
        return out

    def to_json(self) -> dict:
        return {"terms": [{"c": c, "e": list(e)}
                          for c, e in self.json_terms()]}


_ZERO = Poly({})
_ONE = Poly({0: 1})


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Rat)):
        return Poly.rat(value)
    return NotImplemented


def shares_root(p: Poly, q: Poly, var: str) -> bool:
    """Whether p and q, polynomials in var alone of positive degree (else
    ValueError), have a common root: res_var(p, q) == 0, which over Q holds
    exactly when gcd(p, q) is nonconstant.

    Decided by the primitive pseudo-remainder sequence on the int
    numerators (Knuth, TAOCP vol. 2, section 4.6.1): (a, b) becomes
    (b, r / content(r)) with r = m a mod b for a nonzero int m.  Each step
    changes gcd(a, b) only by a unit of Q, so the sequence ends, at a zero
    remainder, on b = gcd(p, q) up to a unit, or at a constant b.
    """
    dense = []
    for poly in (p, q):
        nums = poly.nums_in(var, poly.degree(var) + 1)[::-1]
        coeffs = [t.pop(0, 0) for t in nums]  # leading coefficient first
        if len(coeffs) < 2 or any(nums):  # any(nums): another variable
            raise ValueError(f"need positive degree in {var} alone")
        dense.append(coeffs)
    a, b = sorted(dense, key=len, reverse=True)
    while len(b) > 1:
        n = len(b)
        for i in range(len(a) - n + 1):
            if a[i]:  # a <- u a - v var^k b, u/v = b[0]/a[i]: a[i] -> 0
                g = math.gcd(b[0], a[i])
                u, v = b[0] // g, a[i] // g
                a[i:i + n] = [u * e - v * f for e, f in zip(a[i:i + n], b)]
                a[i + n:] = [u * e for e in a[i + n:]]
        r = a[len(a) - n + 1:]
        while r and not r[0]:
            r.pop(0)
        if not r:
            return True
        g = math.gcd(*r)
        a, b = b, [e // g for e in r]
    return False
