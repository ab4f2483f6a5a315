"""Shared exception base for the revolve package."""

__all__ = ["RevolveError"]


class RevolveError(Exception):
    """Base class for every error raised by this package."""
