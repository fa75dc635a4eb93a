"""Exception hierarchy shared across the solver suite."""

from __future__ import annotations


class MFCKillError(Exception):
    """Base class for all errors raised by this package."""


class ModelValidationError(MFCKillError):
    """A model violates one of the standing assumptions."""


class NondegeneracyViolation(ModelValidationError):
    """sigma^2 dropped below the ellipticity floor c (model.ELLIPTICITY_FLOOR)."""


class NegativeIntensity(ModelValidationError):
    """The killing intensity is negative somewhere."""


class NonconvexControlCost(ModelValidationError):
    """f1 failed a sampled midpoint-convexity check."""


class NonlinearDrift(ModelValidationError):
    """The control factor b1_factor is not finite on the validation probe
    grid, so the drift is not the linear b0 + b1_factor * g."""


class DegenerateRange(MFCKillError):
    """Grid bounds are not ordered or counts are too small."""


class GridMismatch(MFCKillError):
    """Two gridded objects do not share the same nodes."""


class CFLViolation(MFCKillError):
    """Explicit transport step exceeds the advective CFL limit."""


class ControlOutOfBox(MFCKillError):
    """A feedback array takes values outside the control box."""


class FixedPointDiverged(MFCKillError):
    """The inner fixed-point iteration of a backward step diverged."""


class FixedPointCapped(MFCKillError):
    """An inner fixed-point step stopped at its iteration cap with the
    residual above tol_fp (raised by `solve_mfc(strict=True)`)."""


class ArgumentConflict(MFCKillError):
    """Mutually exclusive arguments were both supplied."""


class NonfiniteInput(MFCKillError):
    """A solver input (a density, a field, a coefficient or a Hamiltonian
    query) contained NaN or infinity."""


class PicardStalled(MFCKillError):
    """The outer control iteration plateaued above tolerance."""


class DirectionLeavesBox(MFCKillError):
    """A perturbation direction leaves the control box immediately."""


class SeedRequired(MFCKillError):
    """Particle simulations must be seeded explicitly."""


class EpsBelowGrid(MFCKillError):
    """Mollifier width is too small for the sampling grid."""


class ConfigError(MFCKillError):
    """A run configuration could not be parsed or validated."""


class UnknownExperiment(ConfigError):
    """The requested experiment name is not recognised."""
