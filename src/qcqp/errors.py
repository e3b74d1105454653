"""Exception types shared across the package."""


class QcqpError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(QcqpError):
    pass


class DegenerateHomogeneousError(QcqpError):
    """Homogeneous point has a zero homogenizing coordinate."""


class InfeasibleConstraintError(QcqpError):
    """A single-constraint subproblem has an empty feasible set."""


class NumericalFailureError(QcqpError):
    pass


class NotConvexError(QcqpError):
    pass


class NotScalableError(QcqpError):
    """Candidate lies in the common nullspace of the covering constraints."""


class TooLargeError(QcqpError):
    """Brute-force enumeration would exceed the instance size cap."""


class ParseError(QcqpError):
    pass
