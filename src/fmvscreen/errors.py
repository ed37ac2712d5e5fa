"""Exception types shared across the package."""

__all__ = ["InputError", "DegenerateSlicesError"]


class InputError(ValueError):
    """Raised when an input violates a precondition (shape, finiteness, range)."""


class DegenerateSlicesError(ValueError):
    """Raised when a response admits no partition with at least two nonempty slices."""
