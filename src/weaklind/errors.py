"""Exception types shared across the package.

Every error raised by the library is a subclass of WeaklindError, so callers
can catch one base class. The CLI maps specific subclasses to exit codes.
"""

from __future__ import annotations


class WeaklindError(Exception):
    """Base class for all library errors."""


class NormTooLarge(WeaklindError):
    """A Bloch vector exceeds unit norm beyond tolerance."""


class NotDensity(WeaklindError):
    """An operator expected to be a density matrix is not one."""


class DimensionMismatch(WeaklindError):
    """Operators of incompatible dimensions were combined."""


class NegativeTau(WeaklindError):
    """A dissipation time was negative or not finite."""


class NoConvergence(WeaklindError):
    """A numerical procedure could not reach the required accuracy."""


class PostselectionVanishes(WeaklindError):
    """The post-selection probability is numerically zero."""


class EpsilonOutOfRange(WeaklindError):
    """The small parameter of the nearly-orthogonal state pair is invalid."""


class DegenerateFit(WeaklindError):
    """A fit has too few samples, one that is not finite, or no finite line through them."""


class SingularInversion(WeaklindError):
    """The shift-to-weak-value inversion system is singular."""


class ScenarioAssertionError(WeaklindError):
    """A packaged scenario's embedded golden assertion failed."""


class ConfigError(WeaklindError):
    """A run configuration failed schema validation."""
