"""Ordinary differential operators with polynomial coefficients.

A DiffOp is an element of the first Weyl algebra: sum_i c_i(x) D^i where
D = d/dx and each c_i is a Poly free of the spectral variable z.  The
canonical form keeps every coefficient to the left of the corresponding
power of D, so equality of operators is structural equality of their
coefficient lists.
"""

from __future__ import annotations

import math
import os

from .poly import Poly


class TermBudgetError(RuntimeError):
    """Raised when a product exceeds the WEYL_COMMUTE_MAX_TERMS budget."""


def _check_budget(coeffs: list[Poly]) -> None:
    cap = os.environ.get("WEYL_COMMUTE_MAX_TERMS")
    if not cap:
        return
    total = sum(c.term_count() for c in coeffs)
    if total > int(cap):
        raise TermBudgetError(
            f"operator has {total} polynomial terms, over the "
            f"WEYL_COMMUTE_MAX_TERMS budget of {cap}")


class DiffOp:
    """coeffs[i] is the coefficient of D^i; trailing zeros are stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [c if isinstance(c, Poly) else Poly.rat(c) for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        for c in coeffs:
            if c.degree("z") > 0:
                raise ValueError("operator coefficients must be z-free")
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "DiffOp":
        return DiffOp([])

    @staticmethod
    def identity() -> "DiffOp":
        return DiffOp([Poly.one()])

    @staticmethod
    def d(n: int = 1) -> "DiffOp":
        """The pure derivative D^n."""
        return DiffOp([Poly.zero()] * n + [Poly.one()])

    @staticmethod
    def from_poly(p: Poly) -> "DiffOp":
        """Multiplication operator by a z-free polynomial."""
        return DiffOp([p])

    # -- basics --------------------------------------------------------

    def order(self) -> int:
        """Order of the operator; -1 for the zero operator."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Poly:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Poly.zero()

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self):
        return DiffOp([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "DiffOp":
        f = factor if isinstance(factor, Poly) else Poly.rat(factor)
        return DiffOp([c * f for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, DiffOp):
            return op_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers must be non-negative integers")
        result = DiffOp.identity()
        for _ in range(n):
            result = op_mul(result, self)
        return result

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            dpart = "" if i == 0 else ("D" if i == 1 else f"D^{i}")
            if not dpart:
                parts.append(f"({c})")
            elif c == Poly.one():
                parts.append(dpart)
            else:
                parts.append(f"({c})*{dpart}")
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffOp({self})"

    def to_json(self) -> dict:
        return {"coeffs": [c.to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "DiffOp":
        return DiffOp([Poly.from_json(c) for c in obj["coeffs"]])


def op_mul(a: DiffOp, b: DiffOp) -> DiffOp:
    """Composition a∘b, normalized to coefficients-on-the-left form.

    Uses the exchange rule D^n ∘ f = sum_k C(n,k) f^(k) D^(n-k); the order
    of a nonzero product is order(a) + order(b).  Equivalently, in symbol
    calculus a∘b = sum_k A_k * b^(k), where A_k = sum_i C(i,k) a_i D^(i-k)
    and b^(k) is b with every coefficient differentiated k times in x.

    When every coefficient of both operands involves x alone (the case
    after numeric parameters are bound), the product is computed exactly
    in integers by Kronecker substitution: the numerators of each operand
    are brought over its one lcm denominator, and each A_k and b^(k) is
    packed into one big int whose slot (o, d) holds the coefficient of
    x^d D^o.  The slots are balanced signed digits of w bits, w a multiple
    of 8, at index o*stride + d with stride = deg_x(a) + deg_x(b) + 1, so
    no x-degree of the product reaches the next order's slots.  One int
    multiply per k and a single unpack of the sum give the product over
    Da*Db.  Every slot of a product A_k * b^(k) is a sum of products of one
    entry of each, so its magnitude is at most |A_k|_1 * |b^(k)|_inf, and
    every slot of the sum at most S = sum_k |A_k|_1 * |b^(k)|_inf over the
    k with b^(k) != 0.  Both factors of each such term are at least 1 (A_k
    holds C(na,k) times the leading coefficient of a), so S also bounds
    every packed entry.  w is the least multiple of 8 with 2^(w-1) > S, so
    every digit is read back exactly.  Operands with symbolic parameters
    take the term-by-term loop instead.
    """
    if a.is_zero() or b.is_zero():
        return DiffOp.zero()
    ax = _x_nums(a)
    bx = _x_nums(b) if ax is not None else None
    if bx is None:
        out = _op_mul_terms(a, b)
    else:
        out = _op_mul_kronecker(ax, bx)
    _check_budget(out)
    return DiffOp(out)


def _x_nums(op: DiffOp) -> list[tuple[dict, int]] | None:
    """Per-order ({x-degree: numerator}, den), or None once a parameter
    occurs."""
    out = []
    for c in op.coeffs:
        t = c.x_nums()
        if t is None:
            return None
        out.append(t)
    return out


def _over(nums: dict, d: int, den: int) -> dict:
    """Numerators over d, rescaled to den, a multiple of d."""
    return nums if d == den else {k: c * (den // d) for k, c in nums.items()}


def _op_mul_terms(a: DiffOp, b: DiffOp) -> list[Poly]:
    """The exchange rule term by term, over any coefficient ring.  Both
    operands are read as int numerators over one denominator each (every
    x-derivative of b_j has a denominator dividing b_j's), and each output
    order is one int dict over Da*Db, normalized once."""
    na, nb = a.order(), b.order()
    da = math.lcm(*(c.den for c in a.coeffs))
    db = math.lcm(*(c.den for c in b.coeffs))
    # derivs[j][k] = numerators of the k-th x-derivative of b.coeffs[j]
    derivs: list[list[dict]] = []
    for bj in b.coeffs:
        chain = [bj]
        for _ in range(na):
            chain.append(chain[-1].diff("x"))
        derivs.append([_over(c.terms, c.den, db) for c in chain])
    out: list[dict] = [{} for _ in range(na + nb + 1)]
    for i, ai in enumerate(a.coeffs):
        if ai.is_zero():
            continue
        an = _over(ai.terms, ai.den, da)
        for k in range(i + 1):
            cik = math.comb(i, k)
            ank = an if cik == 1 else {k1: c1 * cik for k1, c1 in an.items()}
            for j in range(nb + 1):
                bjk = derivs[j][k]
                if not bjk:
                    continue
                acc = out[i + j - k]
                get = acc.get
                for k1, c1 in ank.items():
                    for k2, c2 in bjk.items():
                        kk = k1 + k2
                        acc[kk] = get(kk, 0) + c1 * c2
    den = da * db
    return [Poly.from_nums(t, den) for t in out]


def _clear_denominators(
        cols: list[tuple[dict, int]]) -> tuple[int, list[dict]]:
    den = math.lcm(*(d for _, d in cols))
    return den, [_over(t, d, den) for t, d in cols]


def _offsets(n: int, wb: int) -> bytes:
    """n little-endian slots of wb bytes, each holding 2^(8*wb - 1): adding
    it makes every balanced digit non-negative."""
    return (b"\0" * (wb - 1) + b"\x80") * n


def _pack(slots: dict, n: int, wb: int) -> int:
    """sum_s slots[s] * 2^(8*wb*s) for |slots[s]| < 2^(8*wb - 1)."""
    half = 1 << (8 * wb - 1)
    buf = bytearray(_offsets(n, wb))
    for s, v in slots.items():
        buf[s * wb:(s + 1) * wb] = (v + half).to_bytes(wb, "little")
    packed = int.from_bytes(buf, "little")
    del buf  # hold few operand-sized copies at once: peak RSS is measured
    return packed - int.from_bytes(_offsets(n, wb), "little")


def _dx(cols: list[dict]) -> list[dict]:
    return [{d - 1: c * d for d, c in t.items() if d} for t in cols]


def _op_mul_kronecker(ax: list[tuple[dict, int]],
                      bx: list[tuple[dict, int]]) -> list[Poly]:
    """The product of two x-only operators given as per-order
    ({x-degree: numerator}, den) pairs; see op_mul for the layout and the
    bound."""
    da, ai = _clear_denominators(ax)
    db, bi = _clear_denominators(bx)
    na, nb = len(ai) - 1, len(bi) - 1
    stride = (max(max(t, default=0) for t in ai)
              + max(max(t, default=0) for t in bi) + 1)
    l1 = [sum(map(abs, t.values())) for t in ai]
    # b^(k) is derived twice, not stored, to keep peak memory down
    deriv = bi
    bound = 0
    ks = 0  # b^(k) != 0 exactly for k < ks
    while ks <= na and any(deriv):
        a_l1 = sum(math.comb(i, ks) * l1[i] for i in range(ks, na + 1))
        bound += a_l1 * max(abs(c) for t in deriv for c in t.values())
        deriv = _dx(deriv)
        ks += 1
    wb = (bound.bit_length() + 8) // 8
    total = 0
    b_k = bi
    for k in range(ks):
        if k:
            b_k = _dx(b_k)
        a_slots = {}
        for i in range(k, na + 1):
            cik = math.comb(i, k)
            base = (i - k) * stride
            for d, c in ai[i].items():
                a_slots[base + d] = cik * c
        b_slots = {j * stride + d: c
                   for j, t in enumerate(b_k) for d, c in t.items()}
        total += (_pack(a_slots, (na - k + 1) * stride, wb)
                  * _pack(b_slots, (nb + 1) * stride, wb))
    n = (na + nb + 1) * stride
    half = 1 << (8 * wb - 1)
    empty = _offsets(1, wb)
    total += int.from_bytes(_offsets(n, wb), "little")
    buf = total.to_bytes(n * wb, "little")
    del total
    den = da * db
    out = []
    for o in range(na + nb + 1):
        terms = {}
        for d in range(stride):
            s = (o * stride + d) * wb
            chunk = buf[s:s + wb]
            if chunk != empty:
                terms[d] = int.from_bytes(chunk, "little") - half
        out.append(Poly.from_x_nums(terms, den))
    return out


def x0_of_product(a: DiffOp, b: DiffOp) -> list[Poly]:
    """The x^0 parts of the coefficients of a∘b, without forming a∘b.

    The x^0 part of a coefficient is its value at x = 0, which may still
    hold parameters.  By the exchange rule (a∘b)_o is the sum of
    C(i,k) * a_i * b_j^(k) over i + j - k = o, and the x^0 part of
    a_i * b_j^(k) is a_i(0) * k! * [x^k]b_j, so only the x^0 parts of a
    and the coefficients of x^k, k <= ord(a), of b are read.  Entry o of
    the list belongs to D^o; the list has ord(a) + ord(b) + 1 entries.
    """
    if a.is_zero() or b.is_zero():
        return []
    na = a.order()
    # x-free parts of a, and [x^k] of b for k <= na, as int numerators
    # over one denominator per operand
    a0 = [c.coeff_in("x", 0) for c in a.coeffs]
    bx = [c.coeffs_in("x")[:na + 1] for c in b.coeffs]
    da = math.lcm(*(c.den for c in a0))
    db = math.lcm(*(c.den for row in bx for c in row))
    a0 = [_over(c.terms, c.den, da) for c in a0]
    bx = [[_over(c.terms, c.den, db) for c in row] for row in bx]
    out: list[dict] = [{} for _ in range(na + b.order() + 1)]
    for i, ai in enumerate(a0):
        if not ai:
            continue
        for k in range(i + 1):
            f = math.perm(i, k)  # C(i,k) * k!
            fa = [(k1, f * c1) for k1, c1 in ai.items()]
            for j, row in enumerate(bx):
                if k >= len(row) or not row[k]:
                    continue
                acc = out[i + j - k]
                get = acc.get
                for k2, c2 in row[k].items():
                    for k1, c1 in fa:
                        kk = k1 + k2
                        acc[kk] = get(kk, 0) + c1 * c2
    den = da * db
    return [Poly.from_nums(t, den) for t in out]


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    return op_mul(a, b) - op_mul(b, a)


def anticommutator(a: DiffOp, b: DiffOp) -> DiffOp:
    return op_mul(a, b) + op_mul(b, a)


def adjoint(a: DiffOp) -> DiffOp:
    """Formal adjoint sum_i (-1)^i D^i ∘ c_i, expanded to canonical form."""
    if a.is_zero():
        return DiffOp.zero()
    n = a.order()
    out = [Poly.zero()] * (n + 1)
    for i, ci in enumerate(a.coeffs):
        if ci.is_zero():
            continue
        sign = -1 if i % 2 else 1
        dk = ci
        for k in range(i + 1):
            term = dk * (sign * math.comb(i, k))
            out[i - k] = out[i - k] + term
            dk = dk.diff("x")
    return DiffOp(out)


def is_self_adjoint(a: DiffOp) -> bool:
    return adjoint(a) == a


def poly_of_op(c: list[Poly], op: DiffOp) -> DiffOp:
    """sum_j (multiplication by c_j) ∘ op^j.

    The coefficients multiply on the left so that, applied to an
    eigenfunction with eigenvalue z, the result evaluates sum_j c_j(x) z^j.
    """
    for cj in c:
        if cj.degree("z") > 0:
            raise ValueError("coefficients must be z-free")
    result = DiffOp.zero()
    power = DiffOp.identity()
    for j, cj in enumerate(c):
        if j > 0:
            power = op_mul(power, op)
        if not cj.is_zero():
            result = result + power.scale(cj)
    return result


def apply_to(op: DiffOp, f: Poly) -> Poly:
    """Apply the operator to a polynomial function of x (and parameters)."""
    out = Poly.zero()
    df = f
    for i, ci in enumerate(op.coeffs):
        if i > 0:
            df = df.diff("x")
        if not ci.is_zero():
            out = out + ci * df
    return out
