"""Shared exception types and the size caps.

Library failures raise QuasilatError subclasses; the CLI maps these to
exit code 1 and genuine usage mistakes to exit code 2.

A request too big to compute raises SizeLimitError, which is also a
ValueError; a window too small to answer a question raises
InsufficientWindowError.  SIZE_CAPS is the one table of caps, a row per
computation it bounds (lattice windows, candidate Minkowski pairs, condition
triples, coefficient boxes, frequency, probe and quadrature grids, mixed min_gap,
the cover search), and check_size tests a count against it.  Callers
form the count from Python ints before any array of that size exists.
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


class SizeLimitError(QuasilatError, ValueError):
    """A request would build more rows, pairs or probes than its cap allows."""


class MalformedPatchError(QuasilatError, ValueError):
    """A patch file has missing or mistyped fields or breaks a PointPatch invariant."""


# name: (cap, what is too big, what to do instead)
SIZE_CAPS: dict[str, tuple[int, str, str]] = {
    "lattice": (50_000_000, "lattice window too large", "shrink the window"),
    "product": (50_000_000, "pairwise product too large", "restrict the patches first"),
    "triples": (50_000_000, "Delta too large for the exhaustive condition check", "shrink Delta"),
    "coefficients": (20_000_000, "coefficient box too large", "shrink T or the window"),
    "frequencies": (40_000_000, "frequency grid too fine", "increase h"),
    "probes": (5_000_000, "probe grid too fine", "increase h"),
    "quadrature": (5_000_000, "quadrature grid too fine", "increase h"),
    "mixed_probes": (200_000_000, "mixed probe grid too fine for this patch", "increase h"),
    "mixed_gap": (20_000, "min_gap on mixed patches is quadratic", "restrict the patch"),
    "cover_search": (200_000_000, "nearest-point search too large", "restrict the patch"),
}


def check_size(cap: str, count: int) -> None:
    """Raise SizeLimitError when count exceeds SIZE_CAPS[cap]."""
    limit, what, remedy = SIZE_CAPS[cap]
    if count > limit:
        raise SizeLimitError(f"{what}: {count} exceeds the cap of {limit}; {remedy}")
