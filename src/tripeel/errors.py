"""Exception taxonomy shared across the package."""


class TripeelError(Exception):
    """Base class for all package errors."""


class DomainError(TripeelError, ValueError):
    """A parameter lies outside its mathematical domain."""


class MisuseError(TripeelError):
    """An operation was applied to an object that cannot support it."""


class BudgetExceededError(TripeelError):
    """A step, vertex or memory budget was exhausted.

    Carries the partial result when one is well defined, so callers can
    inspect how far the computation got before the budget tripped.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NumericalInstabilityError(TripeelError):
    """A certified numerical routine lost its accuracy guarantee."""


class TableOverflowError(TripeelError):
    """A lazily grown parameter table hit its configured hard cap."""


class InvariantViolationError(TripeelError):
    """A structural or probabilistic invariant failed at runtime."""
