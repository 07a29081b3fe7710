"""The parameter names and the error types the CLI reports.

They live apart from the mathematics so that the CLI can name them, and
exit 2 or 3 on them, without compiling a layer.  curve, qsolver and
numeric import them from here, so each is the same class under every
module that names it.  So is the a3 != 0 rule.
"""


class ParamError(ValueError):
    """Invalid parameter binding (missing value, or a3 = 0)."""


PARAM_NAMES = ("a0", "a1", "a2", "a3")


def check_a3(value) -> None:
    """Reject a3 = 0, a rational or a Poly: the recursion of Q then fixes
    no delta_s, as its every A_s vanishes (qsolver.build_deltas)."""
    if value == 0:
        raise ParamError("a3 must be nonzero")


class XDependenceError(ArithmeticError):
    """The extracted spectral polynomial retained x-dependence."""


class DegreeError(ValueError):
    """The extracted spectral polynomial has the wrong shape in z."""


class MultipleRootError(RuntimeError):
    """Two roots of Q(x0, z) coincide: disc_z Q(x0, .) vanishes."""


class DegenerateDerivativeError(RuntimeError):
    """A root of Q(x0, z) is a zero of dQ/dx or a branch point: resample."""


# raised by a corrupted Q or a degenerate sample point: exit code 3
INTERNAL_ERRORS = (XDependenceError, DegreeError, MultipleRootError,
                   DegenerateDerivativeError)
