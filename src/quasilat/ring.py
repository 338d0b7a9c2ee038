"""Exact arithmetic in real quadratic rings Z[sqrt(d)].

Elements are pairs (a, b) standing for a + b*sqrt(d) with a nonsquare
radicand d.  The Galois conjugate a - b*sqrt(d) plays the role of the
internal-space coordinate for cut-and-project sets, so window membership
can be decided with integer arithmetic only: "a + b*sqrt(d) <= p/q" is
resolved by clearing denominators and comparing squares.  No floating
tolerance enters the construction of a model set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Union

from .errors import CoefficientOverflowError, RadicandMismatchError

if TYPE_CHECKING:
    from .pointset import PointPatch

# Exact coefficients are kept inside int64 territory so patches can move
# them into numpy arrays without silent wraparound.
COEFF_LIMIT = 2 ** 62

RationalLike = Union[int, float, Fraction]


def _guard(value: int) -> int:
    if abs(value) > COEFF_LIMIT:
        raise CoefficientOverflowError(
            f"coefficient {value} exceeds the safe limit 2**62"
        )
    return value


@dataclass(frozen=True)
class QuadInt:
    """a + b*sqrt(d) with integer a, b and fixed nonsquare radicand d."""

    a: int
    b: int
    d: int = 2

    def __post_init__(self) -> None:
        if self.d <= 1 or math.isqrt(self.d) ** 2 == self.d:
            raise ValueError(f"radicand must be a nonsquare integer >= 2, got {self.d}")
        _guard(self.a)
        _guard(self.b)

    @classmethod
    def from_int(cls, n: int, d: int = 2) -> "QuadInt":
        return cls(n, 0, d)

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


def silver_points(
    lo: RationalLike, hi: RationalLike, T: RationalLike, d: int = 2
) -> list[QuadInt]:
    """All x in Z[sqrt(d)] with |x| <= T and x* in the closed window [lo, hi].

    Candidates are generated with float bounds padded by one unit, then
    each one is accepted or rejected by exact rational comparison, so the
    result is the exact closed-window point set.
    """
    lo_f, hi_f, t_f = (float(Fraction(v)) for v in (lo, hi, T))
    if hi_f < lo_f or t_f < 0:
        return []
    rt = math.sqrt(d)
    # x = a + b*sqrt(d), x* = a - b*sqrt(d): a ranges over half the sum.
    a_min = math.floor((-t_f + lo_f) / 2) - 1
    a_max = math.ceil((t_f + hi_f) / 2) + 1
    out: list[QuadInt] = []
    for a in range(a_min, a_max + 1):
        b_lo = math.floor(max((a - hi_f) / rt, (-t_f + a) / rt - 1)) - 1
        b_hi = math.ceil(min((a - lo_f) / rt, (t_f + a) / rt + 1)) + 1
        for b in range(b_lo, b_hi + 1):
            if abs_le(a, b, T, d) and in_closed_interval(a, -b, lo, hi, d):
                out.append(QuadInt(a, b, d))
    out.sort(key=lambda x: (x.embed(), x.a))
    return out


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
