"""Exception types shared across the package."""

__all__ = ["CoverageError"]


class CoverageError(ValueError):
    """An index, window, or grid does not cover what the operation needs."""
