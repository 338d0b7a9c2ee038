"""Shared exception types.

Library failures raise QuasilatError subclasses; the CLI maps these to
exit code 1 and genuine usage mistakes to exit code 2.
"""
from __future__ import annotations


class QuasilatError(Exception):
    """Base class for computational failures in this library."""


class RadicandMismatchError(QuasilatError):
    """Arithmetic between quadratic integers over different radicands."""


class CoefficientOverflowError(QuasilatError):
    """Exact integer coefficients left the configured safe range."""


class InsufficientWindowError(QuasilatError):
    """A finite patch is too small for the requested computation."""


class BoundaryUnsoundError(QuasilatError):
    """A probe region leaves the core where the patch is trustworthy."""


class WindowShortfallError(InsufficientWindowError):
    """An averaging radius plus range cutoff exceeds the patch core."""


class ThresholdTooSmallError(QuasilatError):
    """No fiber satisfies the requested relative-denseness threshold."""


class DegenerateBallError(QuasilatError):
    """An averaging ball has radius <= 0, so its volume vanishes."""


class DegenerateDensityError(QuasilatError):
    """The reference coefficient c_1 vanished; the scan is meaningless."""
