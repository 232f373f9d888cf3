"""Exception hierarchy shared across the package, and its one integer check.

The CLI maps these onto exit codes: bad arguments exit 1, violated
mathematical invariants exit 2, tripped resource guards exit 3. An
interrupt (KeyboardInterrupt) exits 130.

Shape parts, n, q and counts passed to the public functions go through
`check_int`, so a float, string or bool there is a bad argument
(ValueError), never coerced. Result types are immutable `record` classes.
"""

from operator import attrgetter


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


def record(cls):
    """Make cls an immutable record of its public annotated fields, in order.

    Adds `__init__` (positional or keyword, then `__post_init__` if defined),
    field-wise `__eq__` within the exact class, `__hash__`, the
    `Name(field=value, ...)` `__repr__` unless cls defines one,
    `__match_args__`, and a `__setattr__`/`__delattr__` that refuse. A
    private annotation (leading underscore) is no field; `__post_init__`
    may set it with `object.__setattr__`. Instances keep a `__dict__`, so
    `functools.cached_property` works.
    """
    names = tuple(name for name in cls.__annotations__ if not name.startswith("_"))
    key = attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(names[len(args):]):
                raise TypeError(f"{cls.__name__} takes the fields {names}, got "
                                f"{len(args)} positional and {sorted(kwargs)} by keyword")
            args += tuple(kwargs[name] for name in names[len(args):])
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __hash__(self):
        return hash(key(self))

    def refuse(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    cls.__init__, cls.__eq__, cls.__hash__, cls.__match_args__ = __init__, __eq__, __hash__, names
    cls.__setattr__ = cls.__delattr__ = refuse
    if "__repr__" not in vars(cls):
        cls.__repr__ = __repr__
    return cls
