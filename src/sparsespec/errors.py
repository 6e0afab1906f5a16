"""Exception types raised by the estimator."""


class SparseSpecError(Exception):
    """Base class for all library errors."""


class NotCoprime(SparseSpecError):
    """The undersampling stride and the shift must be coprime."""


class NoUniqueIntersection(SparseSpecError):
    """Second-best candidate pair too close to the best one."""


class NonFiniteSamples(SparseSpecError):
    """A signal sample, or a value of its spectrum, is NaN or infinite."""


class IndexBudgetExceeded(SparseSpecError):
    """Stream extraction would index past the end of the signal."""


class BadShape(SparseSpecError):
    """Matrix or sequence dimensions outside the supported range."""


class NoConvergence(SparseSpecError):
    """An SVD was given non-finite entries or did not converge."""


class IllConditionedPencil(SparseSpecError):
    """Matrix pencil numerically singular, or without a usable root."""


class IllConditionedVandermonde(SparseSpecError):
    """Vandermonde system too ill-conditioned to solve reliably."""
