"""Exception hierarchy shared across the package, and its one integer check.

The CLI maps these onto exit codes: bad arguments exit 1, violated
mathematical invariants exit 2, tripped resource guards exit 3. An
interrupt (KeyboardInterrupt) exits 130.

Shape parts, n, q and counts passed to the public functions go through
`check_int`, so a float, string or bool there is a bad argument
(ValueError), never coerced.
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


def check_int(value, name: str, minimum: int | None) -> int:
    """value if it is an int and at least minimum (None: any int); else ValueError.

    The type must be `int` itself, so a bool (an int subclass) is refused;
    one type test keeps the check cheap on the per-part path of shapes.
    """
    if type(value) is not int or (minimum is not None and value < minimum):
        kind = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
        raise ValueError(
            f"{name} must be {kind.get(minimum, f'an integer >= {minimum}')}, got {value!r}"
        )
    return value
