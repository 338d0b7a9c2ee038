"""Exact arithmetic in real quadratic rings Z[sqrt(d)].

Elements are pairs (a, b) standing for a + b*sqrt(d) with a nonsquare
radicand d.  The Galois conjugate a - b*sqrt(d) plays the role of the
internal-space coordinate for cut-and-project sets, so window membership
can be decided with integer arithmetic only: "a + b*sqrt(d) <= p/q" is
resolved by clearing denominators and comparing squares.  No float
rounding can change which points a model set contains.

Enumeration (`silver_points`) lets float64 decide only what it cannot
get wrong.  With |a|, |b| <= 2**52 both coefficients are exact floats,
and a + b*sqrt(d) is computed to within a few ulps of
|a| + sqrt(d)*|b|.  A candidate is accepted or rejected by floats only
when it lies farther than a margin of 1e-9 times that size (plus the
bounds' size) from the ball and window boundaries, about a million
times the rounding error; the few candidates inside the margin get the
exact rational test.  The set is therefore the exact closed-window set.
Bounds that would need a coefficient beyond 2**52 raise
CoefficientOverflowError before any candidate is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Union

import numpy as np

from .errors import CoefficientOverflowError, RadicandMismatchError

if TYPE_CHECKING:
    from .pointset import PointPatch

# Exact coefficients are kept inside int64 territory so patches can move
# them into numpy arrays without silent wraparound.
COEFF_LIMIT = 2 ** 62
# Largest enumeration coefficient: floats hold it exactly, with room to spare.
FLOAT_EXACT_LIMIT = 2 ** 52
_PREFILTER_MARGIN = 1e-9  # relative margin of the float accept/reject test
_CANDIDATE_BLOCK = 1 << 18  # candidates (a, b) built at once

RationalLike = Union[int, float, Fraction]


def _guard(value: int) -> int:
    if abs(value) > COEFF_LIMIT:
        raise CoefficientOverflowError(
            f"coefficient {value} exceeds the safe limit 2**62"
        )
    return value


def check_radicand(d: int) -> None:
    """Raise ValueError unless d is a nonsquare integer >= 2, the radicands
    whose Z[sqrt d] this module handles."""
    if d <= 1 or math.isqrt(d) ** 2 == d:
        raise ValueError(f"radicand must be a nonsquare integer >= 2, got {d}")


@dataclass(frozen=True)
class QuadInt:
    """a + b*sqrt(d) with integer a, b and fixed nonsquare radicand d."""

    a: int
    b: int
    d: int = 2

    def __post_init__(self) -> None:
        check_radicand(self.d)
        _guard(self.a)
        _guard(self.b)

    def _check(self, other: "QuadInt") -> None:
        if self.d != other.d:
            raise RadicandMismatchError(
                f"mixed radicands {self.d} and {other.d} in ring arithmetic"
            )

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(_guard(self.a + other.a), _guard(self.b + other.b), self.d)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(_guard(self.a - other.a), _guard(self.b - other.b), self.d)

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.a, -self.b, self.d)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        a = _guard(self.a * other.a + self.d * self.b * other.b)
        b = _guard(self.a * other.b + self.b * other.a)
        return QuadInt(a, b, self.d)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def norm(self) -> int:
        """Field norm a^2 - d*b^2 (product with the conjugate)."""
        return self.a * self.a - self.d * self.b * self.b

    def conjugate(self) -> "QuadInt":
        return QuadInt(self.a, -self.b, self.d)

    def embed(self) -> float:
        return self.a + self.b * math.sqrt(self.d)

    def embed_star(self) -> float:
        return self.a - self.b * math.sqrt(self.d)

    def key(self) -> tuple[int, int]:
        return (self.a, self.b)


def quad_mul(x: QuadInt, y: QuadInt) -> QuadInt:
    """Ring product (a_x a_y + d b_x b_y, a_x b_y + b_x a_y)."""
    return x * y


def star(x: QuadInt) -> QuadInt:
    """Galois involution a + b*sqrt(d) -> a - b*sqrt(d)."""
    return x.conjugate()


def linear_le(a: int, b: int, bound: RationalLike, d: int = 2) -> bool:
    """Decide a + b*sqrt(d) <= bound exactly for rational bound.

    Floats convert to Fraction without rounding, so callers may pass the
    window endpoints they hold as floats and still get exact decisions.
    """
    r = Fraction(bound)
    # Clear denominators: compare M*sqrt(d) against L in integers.
    left = r.numerator - r.denominator * a
    mid = r.denominator * b
    if mid == 0:
        return left >= 0
    if mid > 0:
        return left > 0 and d * mid * mid <= left * left
    if left >= 0:
        return True
    return left * left <= d * mid * mid


def linear_ge(a: int, b: int, bound: RationalLike, d: int = 2) -> bool:
    return linear_le(-a, -b, -Fraction(bound), d)


def in_closed_interval(
    a: int, b: int, lo: RationalLike, hi: RationalLike, d: int = 2
) -> bool:
    return linear_ge(a, b, lo, d) and linear_le(a, b, hi, d)


def abs_le(a: int, b: int, bound: RationalLike, d: int = 2) -> bool:
    r = Fraction(bound)
    return in_closed_interval(a, b, -r, r, d)


def _silver_coeffs(
    lo: RationalLike, hi: RationalLike, T: RationalLike, d: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (a, b) of every x = a + b*sqrt(d) with |x| <= T and
    x* = a - b*sqrt(d) in the closed window [lo, hi], as int64 arrays in
    (x, a) order.

    Candidates come from float bounds padded by at least one unit; floats
    decide those farther than the margin from every boundary, and the
    exact rational test decides the rest.
    """
    lo_f, hi_f, t_f = (float(Fraction(v)) for v in (lo, hi, T))
    empty = np.zeros(0, dtype=np.int64)
    if hi_f < lo_f or t_f < 0:
        return empty, empty
    rt = math.sqrt(d)
    reach = max(abs(lo_f), abs(hi_f), t_f)
    # Float bounds are off by a few ulps of their size; one unit of padding
    # covers that below 2**47, and the padding grows with the size beyond.
    pad = 1 + math.floor(reach * 2.0 ** -47)
    # x + x* = 2a, and every candidate b has |b| sqrt(d) <= T + |a| plus padding.
    a_min = math.floor((-t_f + lo_f) / 2) - pad
    a_max = math.ceil((t_f + hi_f) / 2) + pad
    a_abs = max(-a_min, a_max)
    if max(a_abs, math.ceil((t_f + a_abs) / rt) + pad + 1) > FLOAT_EXACT_LIMIT:
        raise CoefficientOverflowError(
            f"enumerating |x| <= {t_f:.6g}, x* in [{lo_f:.6g}, {hi_f:.6g}] "
            "needs coefficients beyond 2**52"
        )
    # At most min(hi - lo, 2T)/sqrt(d) + 2 pad + 2 candidates per a.
    step = max(1, int(_CANDIDATE_BLOCK // (min(hi_f - lo_f, 2 * t_f) / rt + 2 * pad + 2)))
    a_out, b_out = [], []
    for a0 in range(a_min, a_max + 1, step):
        a = np.arange(a0, min(a0 + step, a_max + 1), dtype=np.int64)
        # b*sqrt(d) lies in [a - hi, a - lo] (window) and [-T - a, T - a] (ball).
        b_lo = np.floor(np.maximum(a - hi_f, -t_f - a) / rt).astype(np.int64) - pad
        b_hi = np.ceil(np.minimum(a - lo_f, t_f - a) / rt).astype(np.int64) + pad
        counts = np.maximum(b_hi - b_lo + 1, 0)
        a = np.repeat(a, counts)
        b = np.arange(len(a)) - np.repeat(np.cumsum(counts) - counts - b_lo, counts)
        x = a + b * rt
        xs = a - b * rt
        margin = _PREFILTER_MARGIN * (1.0 + np.abs(a) + rt * np.abs(b) + reach)
        inside = (np.abs(x) <= t_f - margin) & (xs >= lo_f + margin) & (xs <= hi_f - margin)
        outside = (np.abs(x) > t_f + margin) | (xs < lo_f - margin) | (xs > hi_f + margin)
        near = np.flatnonzero(~inside & ~outside)
        inside[near] = [
            abs_le(ai, bi, T, d) and in_closed_interval(ai, -bi, lo, hi, d)
            for ai, bi in zip(a[near].tolist(), b[near].tolist())
        ]
        a_out.append(a[inside])
        b_out.append(b[inside])
    a = np.concatenate(a_out)
    b = np.concatenate(b_out)
    # a + b*rt rounds exactly like QuadInt.embed, so this is the (embed, a) order.
    order = np.lexsort((a, a + b * rt))
    return a[order], b[order]


def silver_points(
    lo: RationalLike, hi: RationalLike, T: RationalLike, d: int = 2
) -> list[QuadInt]:
    """All x in Z[sqrt(d)] with |x| <= T and x* in the closed window [lo, hi],
    sorted by (embed(), a).

    The result is the exact closed-window point set; see the module
    docstring for what the float prefilter decides.
    """
    a, b = _silver_coeffs(lo, hi, T, d)
    return [QuadInt(ai, bi, d) for ai, bi in zip(a.tolist(), b.tolist())]


def model_set_1d(R: RationalLike, T: RationalLike) -> "PointPatch":
    """Silver-mean model set: points a + b*sqrt(2), |a - b*sqrt(2)| <= R,
    cut to the closed ball |x| <= T.

    The enumeration is complete on [-T, T], so the returned patch is
    trusted on its whole window (core == window).
    """
    from .cutproject import generate_model_set, silver_scheme

    return generate_model_set(silver_scheme(-R, R), T)


def embed_many(points: Iterable[QuadInt]) -> list[float]:
    return [p.embed() for p in points]
