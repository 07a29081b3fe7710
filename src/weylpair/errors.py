"""The parameter names and the error types the CLI reports.

They live apart from the mathematics so that the CLI can name them, and
exit 2 or 3 on them, without compiling a layer.  curve, qsolver and
numeric import them from here, so each is the same class under every
module that names it.
"""


class ParamError(ValueError):
    """Invalid parameter binding (missing value, or a3 = 0)."""


PARAM_NAMES = ("a0", "a1", "a2", "a3")


class XDependenceError(ArithmeticError):
    """The extracted spectral polynomial retained x-dependence."""


class DegreeError(ValueError):
    """The extracted spectral polynomial has the wrong shape in z."""


class MultipleRootError(RuntimeError):
    """Two roots of Q(x0, z) coincide: disc_z Q(x0, .) vanishes."""


class DegenerateDerivativeError(RuntimeError):
    """A root of Q(x0, z) is a zero of dQ/dx or a branch point: resample."""
