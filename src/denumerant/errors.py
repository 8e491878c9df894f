"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(RuntimeError):
    """A table, enumeration or certificate would exceed the work guard."""


class IntegralityError(ArithmeticError):
    """A quantity that must be a nonnegative integer came out fractional."""
