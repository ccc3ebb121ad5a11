"""Exception types shared across the package."""


class SparseCtrbError(Exception):
    """Base class for errors raised by this package."""


class InputError(SparseCtrbError, ValueError):
    """Malformed system file or invalid argument combination."""


class UncontrollableSystemError(SparseCtrbError):
    """A quantity was requested that is undefined for uncontrollable systems
    (e.g. the minimal controllable support size or a steering-time bound)."""


class InconclusiveError(SparseCtrbError):
    """A search ended without a verdict it can stand behind.

    This is an inconclusive outcome, distinct from a negative answer.
    ``enumerations`` is the work spent, ``k_reached`` the schedule length
    the search had reached.
    """

    def __init__(self, message, enumerations=None, k_reached=None):
        super().__init__(message)
        self.enumerations = enumerations
        self.k_reached = k_reached


class BudgetExceededError(InconclusiveError):
    """A combinatorial search ran out of budget before reaching a verdict."""
