"""Shared exception types."""


class ArityMismatch(ValueError):
    """Input length does not match the function's arity."""


class NotSymmetric(ValueError):
    """Raised when a weight-profile operation meets a non-symmetric function."""


class SizeGuardExceeded(ValueError):
    """A dense materialization would exceed the configured size limit."""


class EpsilonOutOfRange(ValueError):
    """Approximation error parameter outside (0, 1/2)."""


class WitnessNotApplicable(ValueError):
    """No dual witness exists (the function is approximable by a constant)."""


class DegeneratePlan(ValueError):
    """A padding reduction collapses to arity zero or negative pad counts."""
