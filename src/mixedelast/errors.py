"""Exception types shared across the package."""


class MixedElastError(Exception):
    """Base class for all package errors."""


class GeometryError(MixedElastError):
    """Invalid or degenerate mesh geometry."""


class SingularSystemError(MixedElastError):
    """A linear solve failed; signals a broken saddle-point pairing."""


class ConfigError(MixedElastError):
    """An invalid input.  The library raises it where it checks one (a
    material constant, a degree, a step size, a case), so the command line
    exits 2 wherever the input is caught."""
