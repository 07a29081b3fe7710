"""Exact commuting differential operator pairs on hyperelliptic curves.

For every genus g >= 1 the package constructs, in exact rational
arithmetic, a self-adjoint operator of order four with cubic polynomial
potential together with a companion operator of order 4g+2 commuting with
it, extracts the hyperelliptic spectral curve w^2 = F(z) the pair lies on,
and machine-verifies every identity involved: the defining ODE of Q, the
curve identity, the second-order eigenfunction reduction, the series
expansions at infinity, commutation, the square identity M^2 = F(L), the
nonsingularity of the curve, and the relations at the roots of Q.
"""

__version__ = "0.1.0"
