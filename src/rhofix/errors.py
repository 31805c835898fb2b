"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "RhofixError",
    "DimensionMismatch",
    "BracketSearchError",
    "InvalidModularError",
    "UnboundedOrbitError",
    "SolveError",
    "DivergenceError",
    "InconsistentContractionError",
    "ModularUnderflowError",
    "ConfigError",
]


class RhofixError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(RhofixError, ValueError):
    """A point's dimension does not match the space it is used in."""


class BracketSearchError(RhofixError, RuntimeError):
    """No finite bracket was found for the F-norm bisection."""


class InvalidModularError(RhofixError, RuntimeError):
    """A functional returned 0 at a nonzero point where that is disallowed."""


class UnboundedOrbitError(RhofixError, RuntimeError):
    """An orbit modular evaluated to +inf (or the orbit left the space)."""


class SolveError(RhofixError, RuntimeError):
    """A solve that ended without converging for a reason it can name.

    Carries the partial trace recorded up to the failure.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class DivergenceError(SolveError):
    """Picard iteration produced a non-finite iterate."""


class InconsistentContractionError(SolveError):
    """A composite-map fixed point failed the single-map residual check.

    Signals that the claimed contraction factor is false (for example the
    map has a short periodic orbit instead of a fixed point).
    """


class ModularUnderflowError(SolveError):
    """Picard would stop on a step or residual modular of 0 at a nonzero
    difference: the modular underflowed (or vanishes off zero), so the
    stopping test measured nothing."""


class ConfigError(RhofixError, ValueError):
    """A problem file failed to parse; the message names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key
