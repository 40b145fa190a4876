"""Exception and warning types shared across the package."""


class LevyLabError(Exception):
    """Base class for all package-specific errors."""


class DuplicateJumpSize(LevyLabError):
    """Two atoms of the jump measure share the same jump size."""


class ZeroJumpSize(LevyLabError):
    """An atom of the jump measure sits at zero."""


class NonpositiveIntensity(LevyLabError):
    """An atom of the jump measure has intensity <= 0."""


class RankMismatch(LevyLabError):
    """Jump data or a basis disagree with the driver: on the number of
    atoms or components, or the basis is not the driver's own."""


class InitialPointOutsideDomain(LevyLabError):
    """Reflected simulation started outside [-theta, theta]."""


class TerminalBelowObstacle(LevyLabError):
    """The terminal value falls below the obstacle on some path."""


class CFLViolation(LevyLabError):
    """The explicit nonlocal term is too large for the time step."""


class ZeroSpread(LevyLabError):
    """A sampled quantity has zero spread, so it cannot be standardized."""


class GridIncompatible(LevyLabError):
    """Monte Carlo and finite-difference grids cannot be aligned."""


class UnknownCoefficientName(LevyLabError):
    """A coefficient set name is not in the registry."""


class ConfigParseError(LevyLabError):
    """A config file is malformed or violates an invariant."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SingularRegressionWarning(UserWarning):
    """A sweep reduced rank-deficient designs to their leading columns; it
    warns once, with the earliest such step and the columns it kept."""
