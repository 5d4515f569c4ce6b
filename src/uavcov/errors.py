"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A configuration value violates its documented constraints."""


class UnsupportedGeometryError(ConfigurationError):
    """The cylinder geometry falls outside the supported case ordering.

    The piecewise distance laws and the closed-form interference factors
    assume height < radius; other orderings change the case structure and
    are rejected rather than silently mis-evaluated.
    """


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed: an iteration did not converge, or a
    closed form overflowed.

    Carries the best available partial result and an error bound, where
    there is one, so callers can decide whether to accept or abort.
    """

    def __init__(self, message, partial=None, error_bound=None):
        super().__init__(message)
        self.partial = partial
        self.error_bound = error_bound


class ConsistencyError(RuntimeError):
    """An internal invariant was violated by more than numerical round-off."""
