"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary argument validation (shape
mismatches, non-finite inputs, out-of-range parameters). The classes here
mark conditions a caller may want to handle specifically, such as a
degenerate point configuration or a solver that produced garbage.
"""


class SteinWeightsError(Exception):
    """Base class for package-specific errors."""


class DegenerateBandwidthError(SteinWeightsError, ValueError):
    """Raised when a data-driven bandwidth collapses to zero."""


class ScoreEvaluationError(SteinWeightsError, RuntimeError):
    """Raised when a score or log-density evaluation returns non-finite values.

    Carries the offending point in ``point`` for diagnosis.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NonFinitePointsError(SteinWeightsError, ValueError):
    """Raised when a sampler returns non-finite points, for example from a
    diverging chain."""


class GramIntegrityError(SteinWeightsError, RuntimeError):
    """Raised when a Gram matrix violates symmetry or positive semidefiniteness
    beyond numerical tolerance."""


class DegenerateWeightsError(SteinWeightsError, RuntimeError):
    """Raised when a weighting scheme produces an all-zero or non-finite
    weight vector that cannot be normalized."""


class SolverError(SteinWeightsError, RuntimeError):
    """Raised when an iterative or linear solver cannot produce a usable
    solution (non-finite iterates, inconsistent linear system)."""


class UnsupportedConfigurationError(SteinWeightsError, ValueError):
    """Raised when a valid-looking combination of options is not supported,
    for example SGLD on a target without a decomposable likelihood."""


class DominanceError(SteinWeightsError, RuntimeError):
    """Raised when optimized weights score worse than a feasible baseline,
    which indicates an unconverged or broken solve."""
