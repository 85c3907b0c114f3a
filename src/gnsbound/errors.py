"""Exception hierarchy shared across the package."""


class GnsboundError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRangeError(GnsboundError):
    """A Lebesgue exponent (or derived exponent) left the interval [1, inf]."""


class InadmissibleError(GnsboundError):
    """The interpolation parameters violate the standing admissibility chain."""


class DomainError(GnsboundError):
    """An argument lies outside the mathematical domain of a function."""


class TripleMismatchError(GnsboundError):
    """Exponents fail the convolution relation 1/q + 1/r = 1 + 1/p."""


class InvalidRegimeError(GnsboundError):
    """Smoothing-constant parameters outside the valid regime.

    Raised when the input exponent exceeds the output exponent, or when a
    negative derivative order reaches the Sobolev endpoint
    -s >= d*(1/r - 1/p), where the constant diverges.
    """


class InfeasibleError(GnsboundError):
    """A candidate interpolation point is not in the feasible set."""


class EmptyFeasibleError(GnsboundError):
    """No feasible point was found within the sampling budget."""


class StructurallyEmptyError(EmptyFeasibleError):
    """The feasible set is provably empty for every sigma.

    Raised when the target reciprocal exceeds the largest value the capped
    convexity conditions can reach; retrying with different sampling
    parameters cannot help.
    """


class AccuracyError(GnsboundError):
    """A quadrature error estimate exceeded the requested target."""
