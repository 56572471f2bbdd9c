"""Exceptions shared across the package."""


class PrecisionError(ValueError):
    """An operation needs more p-adic precision than its operands carry."""


class InvariantError(RuntimeError):
    """A mathematical invariant failed inside a computation."""
