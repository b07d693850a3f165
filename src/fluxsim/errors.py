"""Exception types shared across the simulation package, and the one
finite-field check of its parameter classes."""

import math


def require_finite(obj, *names):
    """Raise ValueError for the first of obj's named fields, in order, that
    is not a finite number."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class FluxsimError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(FluxsimError):
    """A basis or truncation dimension is too small to be meaningful."""


class NumericalFailureError(FluxsimError):
    """An eigensolver or integrator failed; carries the offending inputs."""

    def __init__(self, message, **inputs):
        super().__init__(message)
        self.inputs = inputs


class ResonanceRegionError(FluxsimError):
    """Dressed-state labeling broke down; the dispersive model is invalid here."""

    def __init__(self, message, flux=None, worst_quality=None):
        super().__init__(message)
        self.flux = flux
        self.worst_quality = worst_quality


class BracketingError(FluxsimError):
    """A search window does not bracket an interior minimum."""


class DomainError(FluxsimError):
    """An evaluation point or step lies outside the domain it is defined on:
    a tabulated profile's range, the pulse window, a positive finite step."""


class StepSizeError(FluxsimError):
    """Fixed-step propagation exceeded its unitarity budget."""

    def __init__(self, message, defect=None, dt=None):
        super().__init__(message)
        self.defect = defect
        self.dt = dt


class OptimizerConsistencyError(FluxsimError):
    """A refinement stage returned a worse point than its own start (the
    seed, or the best point of its seed grid), or stopped at its iteration
    bound without converging."""


class ConfigError(FluxsimError):
    """Configuration file is missing, malformed, or violates an invariant."""

    def __init__(self, category, message):
        super().__init__(message)
        self.category = category
