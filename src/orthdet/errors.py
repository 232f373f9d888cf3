"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: bad arguments exit 1, violated
mathematical invariants exit 2, tripped resource guards exit 3.
"""


class NotIrrPlusError(ValueError):
    """The requested character is not orthogonally stable of even degree."""


class InvariantViolation(RuntimeError):
    """An identity that must hold by theorem failed at runtime.

    This is never a user error: it means either the implementation or the
    underlying mathematics has been falsified, and the message carries a
    witness.
    """


class ResourceGuardError(RuntimeError):
    """A fixed size ceiling was exceeded before starting heavy work."""


class FactorizationError(ResourceGuardError):
    """An integer could not be factored within the fixed rho step budget.

    Raised instead of ever returning a possibly-wrong square class.
    """


class SkewElementSearchError(ResourceGuardError):
    """No invertible skew element was found within the retry budget."""
