import random

import pytest

from weylpair.poly import Poly, Rat


@pytest.fixture
def rng():
    return random.Random(0x5EED)


def random_rat(rng, lo=-6, hi=6, max_den=4) -> Rat:
    return Rat(rng.randint(lo, hi), rng.randint(1, max_den))


def random_poly(rng, vars=("x", "z"), max_exp=3, n_terms=4,
                lo=-6, hi=6) -> Poly:
    p = Poly.zero()
    for _ in range(n_terms):
        c = random_rat(rng, lo, hi)
        exps = {v: rng.randint(0, max_exp) for v in vars}
        p = p + Poly.monomial(c, exps)
    return p


def x_poly(terms: dict) -> Poly:
    """sum_d terms[d] * x^d, for rational coefficients terms[d]."""
    return sum((Poly.monomial(c, {"x": d}) for d, c in terms.items()),
               Poly.zero())


def random_nonzero_poly(rng, **kw) -> Poly:
    while True:
        p = random_poly(rng, **kw)
        if not p.is_zero():
            return p


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
