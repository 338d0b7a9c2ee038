"""Exact quadratic integer arithmetic against rational-model oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasilat as ql
from quasilat import QuadInt
from quasilat.errors import CoefficientOverflowError, RadicandMismatchError

ints = st.integers(min_value=-10**6, max_value=10**6)
small_ints = st.integers(min_value=-500, max_value=500)


def as_pair(x: QuadInt) -> tuple[int, int]:
    return (x.a, x.b)


@given(ints, ints, ints, ints)
def test_mul_matches_symbolic_model(a1, b1, a2, b2):
    x, y = QuadInt(a1, b1, 2), QuadInt(a2, b2, 2)
    # (a1 + b1 r)(a2 + b2 r) with r^2 = 2
    assert as_pair(x * y) == (a1 * a2 + 2 * b1 * b2, a1 * b2 + a2 * b1)


@given(ints, ints, ints, ints, ints, ints)
def test_ring_axioms(a1, b1, a2, b2, a3, b3):
    x, y, z = QuadInt(a1, b1, 2), QuadInt(a2, b2, 2), QuadInt(a3, b3, 2)
    assert x * y == y * x
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == QuadInt(0, 0, 2)
    assert x - y == x + (-y)


@given(ints, ints, ints, ints)
def test_norm_and_conjugate_multiplicative(a1, b1, a2, b2):
    x, y = QuadInt(a1, b1, 2), QuadInt(a2, b2, 2)
    assert (x * y).norm == x.norm * y.norm
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    prod = x * x.conjugate()
    assert (prod.a, prod.b) == (x.norm, 0)


@given(small_ints, small_ints)
def test_embeddings_match_floats(a, b):
    x = QuadInt(a, b, 2)
    assert x.embed() == pytest.approx(a + b * math.sqrt(2), abs=1e-9)
    assert x.embed_star() == pytest.approx(a - b * math.sqrt(2), abs=1e-9)
    assert x.key() == (a, b)


def test_radicand_mismatch_rejected():
    with pytest.raises(RadicandMismatchError):
        QuadInt(1, 1, 2) + QuadInt(1, 1, 3)
    with pytest.raises(RadicandMismatchError):
        QuadInt(1, 1, 2) * QuadInt(1, 1, 5)


def test_coefficient_overflow_guard():
    with pytest.raises(CoefficientOverflowError):
        QuadInt(2**100, 0, 2)
    with pytest.raises(CoefficientOverflowError):
        QuadInt(2**32, 0, 2) * QuadInt(2**31, 0, 2)


def test_square_radicand_rejected():
    with pytest.raises(ValueError):
        QuadInt(1, 1, 4)
    with pytest.raises(ValueError):
        QuadInt(1, 1, 1)


@given(small_ints, small_ints, st.integers(min_value=-700, max_value=700))
def test_linear_le_matches_fraction_oracle(a, b, num):
    # a + b*sqrt2 <= num/2, decided exactly; oracle squares with explicit
    # sign analysis (equality needs b == 0 since sqrt2 is irrational).
    bound = Fraction(num, 2)
    L = bound - a
    if b == 0:
        oracle = L >= 0
    elif b > 0:
        oracle = L > 0 and 2 * b * b <= L * L
    else:
        oracle = L >= 0 or L * L <= 2 * b * b
    assert ql.linear_le(a, b, bound) == oracle
    assert ql.linear_ge(a, b, bound) == (not oracle or (b == 0 and L == 0))


def test_closed_interval_includes_boundary():
    # star coordinates: in_closed_interval takes raw (a, b) coefficients
    assert ql.in_closed_interval(1, 0, Fraction(-1), Fraction(1))
    assert ql.in_closed_interval(-1, 0, Fraction(-1), Fraction(1))
    # 1 - sqrt2 = -0.414...
    assert ql.in_closed_interval(1, -1, Fraction(-1), Fraction(1))
    assert not ql.in_closed_interval(2, 0, Fraction(-1), Fraction(1))
    assert ql.abs_le(1, -1, 1)
    assert not ql.abs_le(1, 1, 2)


def brute_silver(lo, hi, T):
    s2 = math.sqrt(2)
    out = set()
    bmax = int((T + max(abs(lo), abs(hi))) / s2) + 2
    amax = int(T + max(abs(lo), abs(hi))) + 2
    for b in range(-bmax, bmax + 1):
        for a in range(-amax, amax + 1):
            star = a - b * s2
            emb = a + b * s2
            if lo - 1e-9 <= star <= hi + 1e-9 and abs(emb) <= T + 1e-9:
                out.add((a, b))
    return out


@pytest.mark.parametrize("lo,hi,T", [(-1, 1, 3), (-1, 1, 12), (0, 1, 8), (-0.5, 2, 6),
                                     # windows past T + sqrt2: the ball bounds b
                                     (5, 6, 1), (-10, 10, 2), (-7.5, -3, 0.5)])
def test_silver_points_match_brute_force(lo, hi, T):
    pts = ql.silver_points(lo, hi, float(T))
    assert {(p.a, p.b) for p in pts} == brute_silver(lo, hi, T)
    embeds = [p.embed() for p in pts]
    assert embeds == sorted(embeds)


def test_model_set_1d_matches_silver_points():
    patch = ql.model_set_1d(1, 20.0)
    pts = ql.silver_points(-1, 1, 20.0)
    assert patch.n == len(pts)
    np.testing.assert_allclose(patch.z[:, 0], [p.embed() for p in pts], atol=1e-12)
    assert patch.window_z == 20.0 and patch.core_z == 20.0
    assert patch.exact is not None


def silver_oracle(lo, hi, T, d=2):
    """The scalar enumeration: padded float bounds per a (b by the window
    and by the ball (+-T - a)/sqrt(d)), then the exact Fraction test on
    every candidate, sorted by (embed(), a)."""
    lo_f, hi_f, t_f = (float(Fraction(v)) for v in (lo, hi, T))
    if hi_f < lo_f or t_f < 0:
        return []
    rt = math.sqrt(d)
    out = []
    for a in range(math.floor((-t_f + lo_f) / 2) - 1, math.ceil((t_f + hi_f) / 2) + 2):
        b_lo = math.floor(max((a - hi_f) / rt, (-t_f - a) / rt)) - 1
        b_hi = math.ceil(min((a - lo_f) / rt, (t_f - a) / rt)) + 1
        for b in range(b_lo, b_hi + 1):
            if ql.abs_le(a, b, T, d) and ql.in_closed_interval(a, -b, lo, hi, d):
                out.append(QuadInt(a, b, d))
    out.sort(key=lambda x: (x.embed(), x.a))
    return out


bounds = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-40, max_value=40), st.sampled_from([1, 2, 3, 7])),
    st.floats(min_value=-6, max_value=6, allow_nan=False),
    st.sampled_from([0.1, -0.1, 0.7, 1 / 3]),
)
radii = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=25),
    st.builds(Fraction, st.integers(min_value=0, max_value=75), st.sampled_from([1, 3])),
    st.floats(min_value=0, max_value=25, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(bounds, bounds, radii, st.sampled_from([2, 3, 5, 7]))
def test_silver_points_match_fraction_oracle(lo, hi, T, d):
    # Integer endpoints and radii land exactly on the points a + 0*sqrt(d),
    # and independent endpoints include empty windows (hi < lo).
    assert ql.silver_points(lo, hi, T, d) == silver_oracle(lo, hi, T, d)


def test_silver_points_near_the_float_limit():
    # Coefficients near 2**49: floats decide nothing here, the exact test does.
    lo, hi, T = 2**50, 2**50 + 3, 2
    want = set()
    for a in range((lo - T) // 2 - 2, (hi + T) // 2 + 3):
        b0 = -math.isqrt((a - lo) ** 2 // 2)
        for b in range(b0 - 6, b0 + 7):
            if ql.abs_le(a, b, T) and ql.in_closed_interval(a, -b, lo, hi):
                want.add((a, b))
    got = ql.silver_points(lo, hi, T)
    assert {(p.a, p.b) for p in got} == want and len(want) > 0
    assert got == sorted(got, key=lambda x: (x.embed(), x.a))


def test_silver_points_decide_bounds_floats_cannot_tell_apart():
    # Pell fractions p/q with p^2 - 2q^2 = -1 (below sqrt 2) and +1 (above)
    # round to the float sqrt(2); x* = sqrt(2) at (a, b) = (0, -1) lies
    # outside [0, below] and [above, 3] all the same.
    below, above = Fraction(1, 1), Fraction(3, 2)
    while below.denominator < 10**9:
        p, q = below.numerator, below.denominator
        below = Fraction(3 * p + 4 * q, 2 * p + 3 * q)
        p, q = above.numerator, above.denominator
        above = Fraction(3 * p + 4 * q, 2 * p + 3 * q)
    assert float(below) == float(above) == math.sqrt(2)
    for lo, hi in ((0, below), (above, 3)):
        pts = ql.silver_points(lo, hi, 2)
        assert QuadInt(0, -1) not in pts
        assert pts == silver_oracle(lo, hi, 2)
    assert QuadInt(0, -1) in ql.silver_points(0, above, 2)
    assert QuadInt(0, -1) in ql.silver_points(below, 3, 2)


@pytest.mark.parametrize("lo,hi,T", [(-1, 1, 2.0**53), (2**54, 2**54 + 1, 1), (-1, 1, 1e300)])
def test_silver_points_refuse_coefficients_beyond_float_range(lo, hi, T):
    with pytest.raises(CoefficientOverflowError):
        ql.silver_points(lo, hi, T)


@pytest.mark.parametrize("lo,hi,T", [(-1.0, 1.0, 150.0), (-0.5, 2.0, 40.0), (-10.0, 10.0, 2.0)])
def test_generate_model_set_matches_silver_points(lo, hi, T):
    patch = ql.generate_model_set(ql.silver_scheme(lo, hi), T)
    provenance = f"model_set(silver,W=[{lo:.12g},{hi:.12g}],T={T:.12g})"
    want = ql.patch_from_exact(
        ql.abelian_group(1, 0),
        ql.ExactCoords.from_quadints_z(ql.silver_points(lo, hi, T)),
        T, 0.0, T, 0.0, provenance=provenance,
    )
    assert np.array_equal(patch.z, want.z)
    assert np.array_equal(patch.key_matrix, want.key_matrix)
    assert patch.exact.d == want.exact.d == 2
    assert (patch.window_z, patch.window_q, patch.core_z, patch.core_q) == (T, 0.0, T, 0.0)
    assert patch.provenance == want.provenance == provenance
