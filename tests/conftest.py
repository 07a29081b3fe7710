import math
import random

import pytest
import sympy

from weylpair.curve import SpectralCurve
from weylpair.poly import VARS, Poly, Rat
from weylpair.weyl import DiffOp, poly_of_op


@pytest.fixture
def rng():
    return random.Random(0x5EED)


def monomial(coeff, exps: dict) -> Poly:
    """coeff * prod v^exps[v] over the variables v of poly.VARS."""
    return math.prod((Poly.var(v, e) for v, e in exps.items()),
                     start=Poly.rat(coeff))


def deriv(n: int = 1) -> DiffOp:
    """The pure derivative D^n."""
    return DiffOp([Poly.zero()] * n + [Poly.one()])


def packed_mul(a: DiffOp, b: DiffOp) -> DiffOp:
    """a∘b as poly_of_op([0, a], b): for x-only operands, one step of the
    packed Kronecker kernel with blocks [0, a], so it shares no kernel
    with op_mul's term loop."""
    return poly_of_op([Poly.zero(), a], b)


def apply_to(op: DiffOp, f: Poly) -> Poly:
    """Apply the operator to a polynomial function of x (and parameters)."""
    out = Poly.zero()
    df = f
    for i, ci in enumerate(op.coeffs):
        if i > 0:
            df = df.diff("x")
        out = out + ci * df
    return out


# readers of the to_json() forms the CLI writes

def poly_from_json(obj: dict) -> Poly:
    return sum((monomial(Rat(t["c"]), dict(zip(VARS, t["e"], strict=True)))
                for t in obj["terms"]), Poly.zero())


def op_from_json(obj: dict) -> DiffOp:
    return DiffOp([poly_from_json(c) for c in obj["coeffs"]])


def curve_from_json(obj: dict) -> SpectralCurve:
    return SpectralCurve(g=obj["g"],
                         coeffs=tuple(poly_from_json(c) for c in obj["c"]))


def random_rat(rng, lo=-6, hi=6, max_den=4) -> Rat:
    return Rat(rng.randint(lo, hi), rng.randint(1, max_den))


def random_poly(rng, vars=("x", "z"), max_exp=3, n_terms=4,
                lo=-6, hi=6) -> Poly:
    p = Poly.zero()
    for _ in range(n_terms):
        c = random_rat(rng, lo, hi)
        exps = {v: rng.randint(0, max_exp) for v in vars}
        p = p + monomial(c, exps)
    return p


def x_poly(terms: dict) -> Poly:
    """sum_d terms[d] * x^d, for rational coefficients terms[d]."""
    return sum((monomial(c, {"x": d}) for d, c in terms.items()),
               Poly.zero())


def random_nonzero_poly(rng, **kw) -> Poly:
    while True:
        p = random_poly(rng, **kw)
        if not p.is_zero():
            return p


def sympy_disc_z(f: Poly):
    """disc_z f computed by sympy, an expression in the other variables
    (named as in poly.VARS)."""
    gens = sympy.symbols(VARS)
    expr = sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.Mul(*(v**e for v, e in zip(gens, exps)))
               for exps, c in f.sorted_terms())
    return sympy.expand(sympy.discriminant(expr, gens[1]))


def random_param_tuple(rng) -> dict:
    a3 = Rat(0)
    while a3 == 0:
        a3 = random_rat(rng, -9, 9)
    return {"a0": random_rat(rng, -9, 9), "a1": random_rat(rng, -9, 9),
            "a2": random_rat(rng, -9, 9), "a3": a3}


def derived_ode_reading(qp, third_term="derivative", curvature_sign=1) -> Poly:
    """The companion identity d/dx(*) / (2Q) written out term by term, with
    two wrong readings for disambiguation tests: third_term="cube" replaces
    4V*Q^(3) by the dimensionally inconsistent product 4V*Q^3, and
    curvature_sign=-1 flips the sign of the V'' term."""
    z = Poly.var("z")
    d = [qp.q]
    for _ in range(5):
        d.append(d[-1].diff("x"))
    t3 = 4 * qp.v * (qp.q**3 if third_term == "cube" else d[3])
    vxx = qp.v.diff("x").diff("x")
    return (d[5] + t3
            + 2 * d[1] * (2 * z - 2 * qp.w + curvature_sign * vxx)
            + 6 * qp.v.diff("x") * d[2]
            - 2 * qp.q * qp.w.diff("x"))
