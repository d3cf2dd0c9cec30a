"""Exception types shared across the library."""

__all__ = ["ConsistencyError", "UsageError"]


class UsageError(ValueError):
    """An argument violated a documented precondition of the operation."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed, e.g. a rounding residue too large."""
