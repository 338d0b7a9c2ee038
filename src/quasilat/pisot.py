"""Pisot and Salem classification, dilation invariance, tower spectra.

Dilation factors of Meyer sets are algebraic integers of a restricted
kind: the designated root exceeds 1 and every Galois conjugate stays
inside (Pisot) or on (Salem) the unit circle.  This module classifies
monic integer polynomials numerically, tests exact dilation invariance
of patches, and factors block-triangular tower spectra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import CoefficientOverflowError
from .pointset import ExactCoords, PointPatch, _find_rows
from .group import GroupElement, _max_abs
from .ring import COEFF_LIMIT, QuadInt

ROOT_TOL = 1e-8


@dataclass(frozen=True)
class IntPolynomial:
    """Monic polynomial with integer coefficients, highest degree first."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coefficients)
        if len(coeffs) < 2:
            raise ValueError("degree must be at least 1")
        if coeffs[0] != 1:
            raise ValueError("polynomial must be monic")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: complex) -> complex:
        acc = 0j
        for c in self.coefficients:
            acc = acc * x + c
        return acc

    def roots(self) -> np.ndarray:
        r = np.roots(np.array(self.coefficients, dtype=float))
        order = np.lexsort((r.imag, r.real))
        return r[order]

    def __str__(self) -> str:
        parts = []
        n = self.degree
        for i, c in enumerate(self.coefficients):
            p = n - i
            if c == 0:
                continue
            term = "X" if p == 1 else (f"X^{p}" if p > 1 else "")
            mag = abs(c)
            coef = "" if (mag == 1 and p > 0) else str(mag)
            lead = "-" if c < 0 else ("+" if parts else "")
            parts.append(f"{lead}{coef}{term}" if parts or c < 0 else f"{coef}{term}")
        return " ".join(parts) if parts else "0"


def min_poly_quadratic(x: QuadInt) -> IntPolynomial:
    """X^2 - 2aX + (a^2 - d b^2) for a + b*sqrt(d); X - a when b = 0."""
    if x.b == 0:
        return IntPolynomial((1, -x.a))
    return IntPolynomial((1, -2 * x.a, x.norm))


@dataclass(frozen=True)
class SpectrumClassification:
    kind: str
    designated: complex
    conjugates: tuple[float, ...]
    roots: tuple[complex, ...]
    polynomial: Optional[IntPolynomial]
    warnings: tuple[str, ...] = ()


def classify_pisot_salem(p: IntPolynomial, t_hint: float) -> SpectrumClassification:
    """Classify the designated root of a monic integer polynomial.

    Pisot: every other root has modulus < 1 - ROOT_TOL.  Salem: all
    other moduli <= 1 + ROOT_TOL with at least one inside
    [1 - ROOT_TOL, 1 + ROOT_TOL]; roots caught in the band produce a
    warning since the exact trichotomy cannot be read off a float.
    """
    if not math.isfinite(t_hint):
        raise ValueError(f"t_hint must be finite, got t_hint={t_hint:.6g}")
    roots = p.roots()
    scale = max(1.0, abs(t_hint))
    dist = np.abs(roots - complex(t_hint))
    j = int(np.argmin(dist))
    # Human-entered hints carry few decimals; match the nearest root
    # loosely but flag anything beyond the certified 1e-8.
    if dist[j] > 1e-3 * scale:
        raise ValueError(
            f"hint {t_hint!r} is not a root of {p} "
            f"(nearest root off by {dist[j]:.3g})"
        )
    designated = complex(roots[j])
    if abs(designated) <= 1 + ROOT_TOL and abs(t_hint) <= 1 + ROOT_TOL:
        raise ValueError("designated root must exceed 1 in modulus")
    others = np.delete(roots, j)
    moduli = tuple(float(m) for m in sorted(np.abs(others)))
    band = [m for m in moduli if 1 - ROOT_TOL <= m <= 1 + ROOT_TOL]
    warnings: list[str] = []
    if dist[j] > ROOT_TOL * scale:
        warnings.append(
            f"hint matched the designated root only to {dist[j]:.2e}"
        )
    if all(m < 1 - ROOT_TOL for m in moduli):
        kind = "Pisot"
    elif band and all(m <= 1 + ROOT_TOL for m in moduli):
        kind = "Salem"
        warnings.append(
            f"{len(band)} conjugate(s) within {ROOT_TOL:g} of the unit circle; "
            "classified Salem on the numerical band"
        )
    else:
        kind = "NeitherPS"
    return SpectrumClassification(
        kind=kind,
        designated=designated,
        conjugates=moduli,
        roots=tuple(complex(r) for r in roots),
        polynomial=p,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class RecognitionResult:
    polynomial: Optional[IntPolynomial]
    kind_override: Optional[str]
    residual: float
    note: str


def recognize_algebraic_integer(x: float) -> RecognitionResult:
    """Recognize a float as a rational or quadratic algebraic integer.

    Quadratic recognition scans integer traces p with |p - x| <= 1000
    and accepts when the norm q = p*x - x^2 lands on an integer; a
    rational root of such a monic polynomial is an integer, so this
    step cannot capture a non-integer rational.  Rationals are then
    recognized by bounded continued fraction, at float exactness only
    (a convergent of an irrational can come within 1e-12 of a double),
    and rejected: they are never algebraic integers.  Degree three and
    higher are not attempted.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got x={x:.6g}")
    xr = round(x)
    if abs(x - xr) <= 1e-8 * max(1.0, abs(x)):
        if abs(xr) <= 1:
            return RecognitionResult(None, None, abs(x - xr), f"integer {xr} has modulus <= 1")
        return RecognitionResult(
            IntPolynomial((1, -xr)), None, abs(x - xr), f"integer {xr}"
        )
    scale = max(1.0, x * x)
    best: Optional[tuple[float, int, int]] = None
    for p in range(int(math.floor(x)) - 1000, int(math.ceil(x)) + 1001):
        qv = p * x - x * x
        qr = round(qv)
        res = abs(qv - qr)
        if res <= 1e-9 * scale and (best is None or res < best[0]):
            best = (res, p, qr)
    if best is not None:
        res, p, q = best
        poly = IntPolynomial((1, -p, q))
        return RecognitionResult(
            poly,
            None,
            res,
            f"recognized quadratic {poly} from decimals (residual {res:.2e})",
        )
    frac = Fraction(x).limit_denominator(10**6)
    if frac.denominator > 1 and abs(x - float(frac)) <= 1e-14 * max(1.0, abs(x)):
        return RecognitionResult(
            None,
            "NotAlgebraicInteger",
            abs(x - float(frac)),
            f"recognized as rational {frac.numerator}/{frac.denominator}, "
            "not an algebraic integer",
        )
    return RecognitionResult(
        None,
        "NotAlgebraicInteger",
        math.inf,
        "no integer or quadratic relation found within the denominator bound",
    )


def classify_real(t: Union[QuadInt, int, float]) -> SpectrumClassification:
    """Classify a dilation factor given exactly or as a decimal."""
    if isinstance(t, QuadInt):
        return classify_pisot_salem(min_poly_quadratic(t), t.embed())
    if isinstance(t, int):
        return classify_pisot_salem(min_poly_quadratic(QuadInt(t, 0)), float(t))
    if abs(float(t)) <= 1 + ROOT_TOL:
        raise ValueError("dilation factor must exceed 1 in modulus")
    rec = recognize_algebraic_integer(float(t))
    if rec.polynomial is None:
        return SpectrumClassification(
            kind=rec.kind_override or "NotAlgebraicInteger",
            designated=complex(t),
            conjugates=(),
            roots=(),
            polynomial=None,
            warnings=(rec.note,),
        )
    cls = classify_pisot_salem(rec.polynomial, float(t))
    return replace(cls, warnings=cls.warnings + (rec.note,))


@dataclass(frozen=True)
class DilationReport:
    holds: bool
    witness: Optional[GroupElement]
    tested_core_z: float
    tested_core_q: float
    n_tested: int
    mode: str


def _scale_int_pairs(
    a_cols: np.ndarray, b_cols: np.ndarray, t: QuadInt
) -> tuple[np.ndarray, np.ndarray]:
    """Exact t * (a + b*sqrt(d)) per entry, size-checked before multiplying
    so int64 never wraps."""
    if max(_max_abs(a_cols, b_cols), 1) * (abs(t.a) + t.d * abs(t.b)) > COEFF_LIMIT:
        raise CoefficientOverflowError("dilation images would exceed the safe limit")
    return (
        t.a * a_cols + t.d * t.b * b_cols,
        t.a * b_cols + t.b * a_cols,
    )


def dilation_invariance(
    P: PointPatch,
    t: Union[QuadInt, int],
    mode: str = "abelian",
) -> DilationReport:
    """Exact test of delta_t(x) in P for x in an automatically shrunk core.

    mode "abelian" scales every coordinate by t; mode "stratified2"
    scales the z block by t^2 and the q block by t.  The tested core is
    the declared core divided by the expansion factor per block, so a
    genuinely invariant set keeps every image inside the window.
    """
    if P.exact is None:
        raise ValueError("dilation test needs exact coordinates")
    if isinstance(t, int):
        t = QuadInt(t, 0, P.exact.d)
    if not isinstance(t, QuadInt):
        raise TypeError("t must be a QuadInt or an int")
    if t.d != P.exact.d:
        raise ValueError("radicand of t disagrees with the patch coordinates")
    if mode not in ("abelian", "stratified2"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "stratified2":
        tz = t * t
        tq = t
    else:
        tz = tq = t
    fz = abs(tz.embed())
    fq = abs(tq.embed())
    if fz < 1e-12 or fq < 1e-12:
        raise ValueError("dilation factor must be nonzero")
    tested_z = P.core_z / max(fz, 1.0)
    tested_q = P.core_q / max(fq, 1.0)
    idx = np.flatnonzero(P.box_mask(tested_z, tested_q))
    n_tested = len(idx)
    if n_tested == 0:
        return DilationReport(True, None, tested_z, tested_q, 0, mode)
    e = P.exact
    za, zb = _scale_int_pairs(e.za[idx], e.zb[idx], tz)
    qa, qb = _scale_int_pairs(e.qa[idx], e.qb[idx], tq)
    keys = ExactCoords(za=za, zb=zb, qa=qa, qb=qb, d=e.d).key_matrix()
    missing = _find_rows(P.key_matrix, keys) < 0
    if not missing.any():
        return DilationReport(True, None, tested_z, tested_q, n_tested, mode)
    bad = idx[missing]
    gauges = P.group.gauge_rows(P.z[bad], P.q[bad])
    coords = np.column_stack([P.z[bad], P.q[bad]])
    order = np.lexsort(tuple(-coords[:, c] for c in range(coords.shape[1] - 1, -1, -1)) + (gauges,))
    witness = P.element(int(bad[order[0]]))
    return DilationReport(False, witness, tested_z, tested_q, n_tested, mode)


@dataclass(frozen=True)
class TowerReport:
    char_poly: tuple[float, ...]
    spectrum: tuple[complex, ...]
    factored: bool
    completion_residual: float
    simple_spectrum: bool
    min_separation: float
    classifications: tuple[tuple[complex, SpectrumClassification], ...]
    warnings: tuple[str, ...] = field(default=())


def tower_spectrum_check(blocks: Sequence[np.ndarray], seed: int = 0) -> TowerReport:
    """Char poly of a block-upper-triangular map factors over the blocks.

    Verifies the factorization numerically against 100 random integer
    completions of the off-diagonal blocks, reports the union spectrum,
    the simple-spectrum margin, and a Pisot/Salem classification for
    each recognized eigenvalue of modulus above 1.
    """
    mats = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    if not mats:
        raise ValueError("need at least one block")
    for b in mats:
        if b.shape[0] != b.shape[1]:
            raise ValueError(f"block of shape {b.shape} is not square")
    sizes = [b.shape[0] for b in mats]
    n = sum(sizes)
    eigs: list[complex] = []
    product = np.array([1.0])
    for b in mats:
        ev = np.linalg.eigvals(b)
        eigs.extend(complex(v) for v in ev)
        product = np.convolve(product, np.real_if_close(np.poly(ev)).astype(float))
    spectrum = tuple(sorted(eigs, key=lambda v: (-v.real, -v.imag)))
    rng = np.random.default_rng(seed)
    worst = 0.0
    offsets = np.cumsum([0] + sizes)
    for _ in range(100):
        full = np.zeros((n, n))
        for i, b in enumerate(mats):
            s = offsets[i]
            full[s : s + sizes[i], s : s + sizes[i]] = b
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                full[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]] = (
                    rng.integers(-3, 4, size=(sizes[i], sizes[j]))
                )
        coeffs = np.real_if_close(np.poly(np.linalg.eigvals(full))).astype(float)
        worst = max(worst, float(np.abs(coeffs - product).max()))
    factored = worst <= 1e-8 * max(1.0, float(np.abs(product).max()))
    seps = [
        abs(spectrum[i] - spectrum[j])
        for i in range(len(spectrum))
        for j in range(i + 1, len(spectrum))
    ]
    min_sep = min(seps) if seps else math.inf
    simple = min_sep > 1e-8
    classifications: list[tuple[complex, SpectrumClassification]] = []
    warnings: list[str] = []
    if not simple:
        warnings.append(
            f"spectrum is not simple (minimum separation {min_sep:.3g}); "
            "dilation conclusions require simple spectrum"
        )
    polys_seen: dict[tuple[int, ...], complex] = {}
    for lam in spectrum:
        if abs(lam.imag) > 1e-9 or lam.real <= 1 + 1e-9:
            continue
        cls = classify_real(lam.real)
        classifications.append((lam, cls))
        if cls.polynomial is None:
            warnings.append(
                f"eigenvalue {lam.real:.12g} not recognized as an algebraic "
                "integer of degree <= 2; Galois disjointness unchecked"
            )
        elif cls.polynomial.degree >= 2:
            key = cls.polynomial.coefficients
            if key in polys_seen:
                warnings.append(
                    f"eigenvalues {polys_seen[key].real:.12g} and {lam.real:.12g} "
                    "share a minimal polynomial: Galois conjugates"
                )
            polys_seen[key] = lam
    near_int = np.abs(product - np.round(product)).max() if len(product) else 0.0
    char = tuple(
        float(c) for c in (np.round(product) if near_int <= 1e-8 else product)
    )
    return TowerReport(
        char_poly=char,
        spectrum=spectrum,
        factored=factored,
        completion_residual=worst,
        simple_spectrum=simple,
        min_separation=float(min_sep),
        classifications=tuple(classifications),
        warnings=tuple(warnings),
    )
