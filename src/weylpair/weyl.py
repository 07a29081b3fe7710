"""Ordinary differential operators with polynomial coefficients.

A DiffOp is an element of the first Weyl algebra: sum_i c_i(x) D^i where
D = d/dx and each c_i is a Poly free of the spectral variable z.  The
canonical form keeps every coefficient to the left of the corresponding
power of D, so equality of operators is structural equality of their
coefficient lists.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .poly import Poly


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
        """self∘other; a Poly is read as multiplication by it, so that
        D * x is D∘x = x*D + 1, and a number scales."""
        if isinstance(other, DiffOp):
            return op_mul(self, other)
        if isinstance(other, Poly):
            return op_mul(self, DiffOp([other]))
        return self.scale(other)

    def __rmul__(self, other):
        """other∘self for a Poly or a number: each coefficient times it."""
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


def op_mul(a: DiffOp, b: DiffOp) -> DiffOp:
    """Composition a∘b, normalized to coefficients-on-the-left form.

    Uses the exchange rule D^n ∘ f = sum_k C(n,k) f^(k) D^(n-k); the order
    of a nonzero product is order(a) + order(b).  Equivalently, in symbol
    calculus a∘b = sum_k A_k * b^(k), where A_k = sum_i C(i,k) a_i D^(i-k)
    and b^(k) is b with every coefficient differentiated k times in x.

    When every coefficient of both operands involves x alone (the case
    after numeric parameters are bound), the product is computed exactly
    in integers by Kronecker substitution, one coefficient at a time: the
    numerators of each operand are brought over its one lcm denominator,
    and each a_i and each b_j^(k) is packed into one big int, its value at
    x = 2^w.  Packing is a ring map, so (a∘b)_o = sum C(i,k) a_i b_j^(k)
    over i + j - k = o costs one int multiply per nonzero (i, j, k), and
    each order is unpacked once, over Da*Db, into signed w-bit digits.
    Slot d of a_i * b_j^(k) is at most |a_i|_1 * |b_j^(k)|_inf, so each
    slot of order o is at most S_o, that sum over the norms; w is the
    least multiple of 8 with 2^(w-1) > max_o S_o, so every digit is read
    back exactly.  Operands with symbolic parameters take _exchange, the
    term loop that x0_of_product shares.
    """
    if a.is_zero() or b.is_zero():
        return DiffOp.zero()
    ax = _x_nums(a)
    bx = _x_nums(b) if ax is not None else None
    if bx is None:
        return DiffOp(_op_mul_terms(a, b))
    return DiffOp(_op_mul_kronecker([[], ax], bx, len(ax)))


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


def _scaled(nums: dict, f: int) -> dict:
    """Every numerator times f."""
    return nums if f == 1 else {k: c * f for k, c in nums.items()}


def _exchange(a: list[dict], rows: list[list[dict]], den: int) -> list[Poly]:
    """The term loop of the exchange rule, shared by op_mul and
    x0_of_product: entry o of the result is the sum of
    C(i,k) * a[i] * rows[k][j] over i + j - k = o, over den.

    a[i] and rows[k][j] are {monomial key: int numerator} dicts, rows[k]
    holds one dict per order j of the right operand, and den is the
    product of the denominators of the two sides.  The factor list of
    a[i] is built once per (i, k) and is the inner loop; each output
    order is normalized once.
    """
    nk = len(rows)
    while nk > 1 and not any(rows[nk - 1]):
        nk -= 1
    out = [defaultdict(int) for _ in range(len(a) + len(rows[0]) - 1)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for k in range(min(i + 1, nk)):
            f = math.comb(i, k)
            fa = [(k1, f * c1) for k1, c1 in ai.items()]
            for j, bjk in enumerate(rows[k]):
                if not bjk:
                    continue
                acc = out[i + j - k]
                for k2, c2 in bjk.items():
                    for k1, c1 in fa:
                        acc[k1 + k2] += c1 * c2
    return [Poly.from_nums(dict(t), den) for t in out]


def _op_mul_terms(a: DiffOp, b: DiffOp) -> list[Poly]:
    """a∘b over any coefficient ring: _exchange on the numerators of a_i
    and of b_j^(k), k <= ord(a).  Every x-derivative of b_j has a
    denominator dividing b_j's."""
    da = math.lcm(*(c.den for c in a.coeffs))
    db = math.lcm(*(c.den for c in b.coeffs))
    rows = []
    bk = b.coeffs
    for k in range(len(a.coeffs)):
        if k:
            bk = [c.diff("x") for c in bk]
        rows.append([_scaled(c.terms, db // c.den) for c in bk])
    return _exchange([_scaled(c.terms, da // c.den) for c in a.coeffs],
                     rows, da * db)


def x0_of_product(a: DiffOp, b: DiffOp) -> list[Poly]:
    """The x^0 parts of the coefficients of a∘b, without forming a∘b:
    _exchange on a_i(0) and b_j^(k)(0) = k! * [x^k]b_j, k <= ord(a), which
    by the x^0 lemma of weylpair.pairs is all that a∘b's x^0 parts read.
    Entry o belongs to D^o; the list has ord(a) + ord(b) + 1 entries.
    """
    if a.is_zero() or b.is_zero():
        return []
    n = len(a.coeffs)
    da = math.lcm(*(c.den for c in a.coeffs))
    db = math.lcm(*(c.den for c in b.coeffs))
    low = [c.nums_in("x", n) for c in b.coeffs]
    rows = [[_scaled(t[k], math.factorial(k) * (db // c.den))
             for t, c in zip(low, b.coeffs)] for k in range(n)]
    return _exchange([_scaled(c.nums_in("x", 1)[0], da // c.den)
                      for c in a.coeffs], rows, da * db)


def _pack(slots: dict, w: int) -> int:
    """sum_s slots[s] * 2^(w*s): the polynomial's value at x = 2^w."""
    return sum(v << (w * s) for s, v in slots.items())


def _rows(cols: list[dict], kn, val) -> list[list[tuple[int, int]]]:
    """rows[k] = [(j, val(b_j^(k))) for nonzero b_j^(k)], k < kn."""
    rows = []
    while len(rows) < kn and any(cols):
        rows.append([(j, val(t)) for j, t in enumerate(cols) if t])
        if len(rows) < kn:
            cols = [{d - 1: c * d for d, c in t.items() if d} for t in cols]
    return rows


def _compose(s: list, rows, acc: list, f: int = 1) -> list:
    """acc, grown to fit, plus f * s∘op, op given by its rows."""
    acc += [0] * (len(s) + rows[0][-1][0] - len(acc))
    for k, row in enumerate(rows):
        for i in range(k, len(s)):
            c = f * math.comb(i, k) * s[i]
            if c:
                for j, v in row:
                    acc[i + j - k] += c * v
    return acc


def _horner(blocks: list[list[dict]], step, do: int, val) -> list:
    """Horner's rule for sum_j do^(g-j) blocks[j] op^j on the values val
    gives, op = sum f*A∘B∘... over the (f, [rows of A, B, ...]) in step."""
    s: list = []
    for e, block in enumerate(reversed(blocks)):
        if s:
            acc: list = []
            for f, chain in step:
                t = s
                for rows in chain[:-1]:
                    t = _compose(t, rows, [])
                _compose(t, chain[-1], acc, f)
            s = acc
        s += [0] * (len(block) - len(s))
        for o, t in enumerate(block):
            if t:
                s[o] += do**e * val(t)
    return s


def _op_mul_kronecker(blocks: list[list[tuple[dict, int]]],
                      ox: list[tuple[dict, int]], kn,
                      chains=None) -> list[Poly]:
    """sum_j blocks[j] op^j for x-only operands as _x_nums gives them,
    reading op^(k) for k < kn; op_mul explains the packing.  Steps apply
    op, or the products in chains that sum to op, each over the product
    q of its factors' denominators and taken do/q times, do = lcm(q)."""
    dc = math.lcm(*(d for b in blocks for _, d in b))
    ci = [[_scaled(t, dc // d) for t, d in b] for b in blocks]
    chains = [[(a, math.lcm(*(d for _, d in a))) for a in c]
              for c in chains or [[ox]]]
    dens = [math.prod(d for _, d in c) for c in chains]
    do = math.lcm(*dens)
    oi = [_scaled(t, do // d) for t, d in ox]
    fold = max if len(blocks) == 2 else sum  # |.|_inf suffices for 1 step
    rows = _rows(oi, kn, lambda t: fold(map(abs, t.values())))
    bound = max(_horner(ci, [(1, [rows])], do,
                        lambda t: sum(map(abs, t.values()))), default=0)
    wb = (bound.bit_length() + 8) // 8
    pack = lambda t: _pack(t, 8 * wb)
    step = [(do // q, [_rows([_scaled(t, d // dt) for t, dt in a], kn, pack)
                       for a, d in c]) for q, c in zip(dens, chains)]
    acc = _horner(ci, step, do, pack)
    # a nonzero digit d makes |total| >= 2^(8*wb*d - 1), so d < n
    n = max(map(int.bit_length, acc), default=0) // (8 * wb) + 1
    half = 1 << (8 * wb - 1)
    empty = bytes(wb - 1) + b"\x80"  # a zero digit plus the offset half
    offset = int.from_bytes(empty * n, "little")
    out = []
    for total in acc:
        buf = (total + offset).to_bytes(n * wb, "little")
        out.append(Poly.from_x_nums(
            {d: int.from_bytes(c, "little") - half for d in range(n)
             if (c := buf[d * wb:(d + 1) * wb]) != empty},
            dc * do ** (len(blocks) - 1)))
    return out


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    return op_mul(a, b) - op_mul(b, a)


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


def x0_of_adjoint(a: DiffOp) -> list[Poly]:
    """The x^0 parts of the coefficients of a*, without forming a*: the
    D^o coefficient of a* is sum_{i>=o} (-1)^i C(i,o) a_i^(i-o), and the
    x^0 part of a_i^(k) is k! [x^k]a_i, so entry o is the sum over
    k = i - o of (-1)^i i!/(i-k)! [x^k]a_i.  The list has ord(a) + 1
    entries."""
    if a.is_zero():
        return []
    den = math.lcm(*(c.den for c in a.coeffs))
    out = [defaultdict(int) for _ in a.coeffs]
    for i, c in enumerate(a.coeffs):
        scale = den // c.den * (-1 if i % 2 else 1)
        for k, t in enumerate(c.nums_in("x", i + 1)):
            f = scale * math.perm(i, k)
            acc = out[i - k]
            for key, v in t.items():
                acc[key] += f * v
    return [Poly.from_nums(dict(t), den) for t in out]


def poly_of_op(c: list[Poly | DiffOp], op: DiffOp) -> DiffOp:
    """sum_j c_j ∘ op^j by Horner's rule: R <- R∘op + c_j from the top
    coefficient down, len(c) - 1 products and no power of op.

    A coefficient is a DiffOp or a z-free Poly, read as multiplication by
    it.  Each c_j stays on the left of op^j, so that, applied to an
    eigenfunction with eigenvalue z, Poly coefficients evaluate
    sum_j c_j(x) z^j.

    When op and every c_j involve x alone, Horner's rule runs on the
    packed ints of op_mul, over Dc*Do^g (Dc, Do: the lcm denominators of
    the c_j and of op).  Packing is a ring map, so only the sum is
    unpacked and only its digits must fit the slots; L1 norms carried
    through the steps, |(R∘op)_o|_1 <= sum C(i,k) |r_i|_1 |op_j^(k)|_1
    plus |c_j|_1, scaled alike, bound them, and w is taken from that.
    """
    return poly_of_products(c, op, [[op]])


def poly_of_products(c: list[Poly | DiffOp], op: DiffOp,
                     products: list[list[DiffOp]]) -> DiffOp:
    """poly_of_op(c, op) for op = sum A∘B∘... over the lists of nonzero
    factors [A, B, ...] in products.  Packed steps apply the factors (fewer
    multiplies) and op bounds the slots; with parameters, steps are R∘op."""
    blocks = [cj if isinstance(cj, DiffOp) else DiffOp([cj]) for cj in c]
    ox = _x_nums(op)
    cx = [_x_nums(b) for b in blocks] if ox else [None]
    px = [[_x_nums(a) for a in p] for p in products]
    if None in cx or any(None in p for p in px):
        result = DiffOp.zero()
        for b in reversed(blocks):
            result = op_mul(result, op) + b
        return result
    return DiffOp(_op_mul_kronecker(cx, ox, math.inf, px))
