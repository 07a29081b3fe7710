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

from .curve import ParamError, SpectralCurve, discriminant_curve, is_nonsingular
from .curvefun import (ContextMismatchError, CurveContext, CurveFun,
                       expand_at_infinity, expand_w, expansion_report,
                       reduction_coefficients, reduction_residuals)
from .numeric import (DegenerateDerivativeError, MultipleRootError, roots_z,
                      verify_krichever, verify_potential_recovery)
from .pairs import (OperatorPair, build_companion, build_pair, build_quartic,
                    commutant_solve, in_affine_span, match_reference_examples,
                    operator_diff, reference_companion,
                    reference_curve_constants, verify_commutation,
                    verify_square_identity)
from .poly import NotDivisibleError, Poly, Rat, discriminant, resultant
from .qsolver import (DegreeError, NormalizationError, QPolynomial,
                      RecursionDivisionError, XDependenceError, assemble_q,
                      build_deltas, build_q, curve_identity_residual,
                      derived_ode_residual, extract_curve, q_ode_residual,
                      trace_identity_residual)
from .series import LaurentSeries, TruncationError, series_from_poly
from .weyl import (DiffOp, TermBudgetError, adjoint, anticommutator,
                   apply_to, commutator, is_self_adjoint, op_mul, poly_of_op)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
