"""Exception types shared across the package."""


class MismatchedParameters(ValueError):
    """Two elements from orders with different family parameter n were combined."""


class PrecisionExhausted(ArithmeticError):
    """A certified numeric computation could not be completed at the requested precision."""


class DegenerateTwist(ValueError):
    """Operation refused for exponent pairs outside its domain: (s, t) = (0, 0), the one
    reducible form (forms.check_twist), or s*t == 0 for the log-difference expansions."""


class NotReducible(RuntimeError):
    """A type-2/3 record failed to re-classify as type 1 under the transformed parameters."""


class ChainPreconditionFailed(ValueError):
    """A numeric precondition of the lower-bound chain is violated.

    The violated inequality is named in ``inequality``.
    """

    def __init__(self, inequality, detail=""):
        self.inequality = inequality
        msg = f"chain precondition violated: {inequality}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InsufficientSamples(ValueError):
    """Too few samples, or too little spread, for a meaningful slope fit."""


class ExactMatch(ValueError):
    """Residuals are exactly zero; a log-log slope fit is meaningless."""


class EmptyGrid(ValueError):
    """A scan was requested over an empty parameter grid."""
