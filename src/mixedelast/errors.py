"""Exception types shared across the package."""


class MixedElastError(Exception):
    """Base class for all package errors."""


class GeometryError(MixedElastError):
    """Invalid or degenerate mesh geometry."""


class SingularSystemError(MixedElastError):
    """A linear solve failed; signals a broken saddle-point pairing."""


class ConfigError(MixedElastError):
    """Invalid run configuration."""
