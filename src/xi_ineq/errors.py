"""Exception types shared across the library."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to meet its tolerance within its caps, or a
    certification of its result failed.

    `partial` carries the best estimate available when the failure was raised
    (a float or a QuadResult), or the certification's worst deviation, so
    callers can still inspect it.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class EvaluationError(RuntimeError):
    """An integrand returned a non-finite value; `abscissa` records where."""

    def __init__(self, message, abscissa):
        super().__init__(message)
        self.abscissa = abscissa
