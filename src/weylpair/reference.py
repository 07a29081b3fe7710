"""The recorded genus-2 and genus-3 closed forms and the comparison that
`weylpair examples` reports.

The forms are a report, not a certificate: construct and verify never
load this module, and the certificates of weylpair.pairs decide every
pair on their own.
"""

from __future__ import annotations

from .pairs import build_pair, verify_pair
from .poly import Poly, Rat
from .weyl import DiffOp, op_mul


def anticommutator(a: DiffOp, b: DiffOp) -> DiffOp:
    return op_mul(a, b) + op_mul(b, a)


def reference_companion(g: int) -> DiffOp:
    """Known closed forms of the companion operator for the slice
    a1 = a2 = 0, a3 = 1 with symbolic a0, written in terms of
    H = D^2 + x^3 + a0 and the symmetrized product <A, B> = AB + BA.

    The genus-2 form carries a constant term -9.  Without it the form
    still commutes with L and is self-adjoint, but its square misses
    reference_curve_constants(2) applied to L by 18M + 81 (M the form
    with the -9), a residual of order 10.  With it, M^2 = F(L) holds
    exactly, and no other monic operator does: the commutant of L at
    order 10 is M + span{1, L, L^2}, and (M + p(L))^2 - F(L) =
    2p(L)M + p(L)^2 is a polynomial in L only when p = 0.  PAPER.md
    holds only the abstract, so this repository cannot tell whether the
    -9 was missing in the source or lost in transcription.
    """
    x = Poly.var("x")
    a0 = Poly.var("a0")
    h = DiffOp([x**3 + a0, Poly.zero(), Poly.one()])
    xop = DiffOp.from_poly(x)
    x2op = DiffOp.from_poly(x**2)
    if g == 2:
        return (h**5
                + Rat(15, 2) * anticommutator(xop, h**3)
                + 45 * anticommutator(x2op, h)
                - 9 * DiffOp.identity())
    if g == 3:
        lin = DiffOp.from_poly(113 * a0 + 287 * x**3)
        return (h**7
                + 21 * anticommutator(xop, h**5)
                + Rat(945, 2) * anticommutator(x2op, h**3)
                - 5418 * h**2
                + Rat(45, 2) * anticommutator(lin, h)
                - 486 * DiffOp.from_poly(x))
    raise ValueError(f"no reference form recorded for genus {g}")


def reference_curve_constants(g: int) -> Poly:
    """Known spectral polynomials for the same slice."""
    z = Poly.var("z")
    a0 = Poly.var("a0")
    if g == 2:
        return z**5 + 27 * a0 * z**2 + 81
    if g == 3:
        return z**7 + 594 * a0 * z**4 - 2025 * z**2 + 91125 * a0**2 * z
    raise ValueError(f"no reference curve recorded for genus {g}")


def operator_diff(a: DiffOp, b: DiffOp) -> list[tuple[int, Poly]]:
    """Per-order coefficient differences a - b, only the nonzero ones."""
    d = a - b
    return [(i, c) for i, c in enumerate(d.coeffs) if not c.is_zero()]


def match_reference_examples() -> dict:
    """Compare the constructed g = 2, 3 pairs against the recorded closed
    forms, coefficient by coefficient.  Mismatches are reported, not
    raised: the machine-checked certificates (commutation and the square
    identity, as verify_pair decides them) are authoritative, the
    recorded forms are not.  Both recorded companions square to their
    recorded F(L) exactly, a check that needs neither the construction
    nor the curve extraction; the genus-2 record gained its -9 term that
    way (see reference_companion), so both genera now match."""
    report = {}
    for g in (2, 3):
        pair = build_pair(g, {"a1": 0, "a2": 0, "a3": 1})
        ref_m = reference_companion(g)
        ref_f = reference_curve_constants(g)
        m_diff = operator_diff(pair.m, ref_m)
        f_diff = pair.curve.as_poly() - ref_f
        checks = {c["name"]: c["pass"] for c in verify_pair(pair)}
        report[g] = {
            "curve_match": f_diff.is_zero(),
            "curve_diff": str(f_diff),
            "companion_match": not m_diff,
            "companion_diff": [(i, str(c)) for i, c in m_diff],
            "commutation_zero": checks["commutation"],
            "square_identity_zero": checks["square_identity"],
        }
    return report
