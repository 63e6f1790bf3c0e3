"""Exception taxonomy shared by all funcdiss modules.

Every failure that carries domain meaning gets its own class so callers can
react to the cause (a bad weight function, a lost bracket, a diverged solve)
instead of parsing messages.
"""


class ToolkitError(Exception):
    """Base class for all funcdiss errors."""


class NonPositivePhi(ToolkitError):
    """The weight phi is not strictly positive on the validation grid."""


class NotIncreasing(ToolkitError):
    """(s*phi(s))' fails to be strictly positive, so s*phi(s) is not invertible."""


class BracketFailure(ToolkitError):
    """Monotone inversion could not bracket the target value within the search range."""


class BadTruncation(ToolkitError):
    """Truncated power weight requested with an unusable truncation level."""


class QuadratureFailure(ToolkitError):
    """A form's quadrature cannot be trusted: the probe needs more nodes per
    axis than the cap, or the integral is not finite."""


class EllipticityViolation(ToolkitError):
    """Coefficient field violates ess inf mu > 0 or ess inf (lambda + 2 mu) > 0."""


class BudgetExhausted(ToolkitError):
    """Search or refinement budget ran out before the result stabilized."""


class NotStrict(ToolkitError):
    """A strict dissipativity margin was required but is not available."""


class SolverDiverged(ToolkitError):
    """The linear solver failed to reach the requested residual."""


class NotIntegrable(ToolkitError):
    """A field's Orlicz modular diverges or its samples are not finite."""


class OrliczNormFailure(ToolkitError):
    """Orlicz norm computation failed to bracket or stabilize."""
