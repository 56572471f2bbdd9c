"""Exceptions shared across the package."""


class PrecisionError(ValueError):
    """An operation needs more p-adic precision than its operands carry."""


class TruncationError(PrecisionError):
    """A series evaluation failed to stabilize within its term cap."""


class InvariantError(RuntimeError):
    """A mathematical invariant failed inside a computation."""
