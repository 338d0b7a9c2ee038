"""Cut-and-project schemes, symplectic products, and fiber machinery.

Model sets are enumerated from a higher-dimensional lattice with a
closed internal window.  Products Xi (+)_beta Delta assemble patches in
a central extension and certify the bilinear compatibility condition
beta(Delta + Delta, Delta) inside the k-fold sum of Xi on the patch.
Fibers {z : (z, q) in P} are extracted over projected points and graded
by how densely they fill the trusted z-core.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BoundaryUnsoundError,
    InsufficientWindowError,
    ThresholdTooSmallError,
    check_radius,
    check_size,
)
from .group import CentralExtensionGroup, Cocycle
from .pointset import (
    BALL_PAD,
    BOUNDARY_PAD,
    QUANT,
    ExactCoords,
    PointPatch,
    _axis,
    _find_rows,
    _flat_patch,
    _grid_rows,
    _is_symmetric_with_identity,
    _nearest_distance,
    group_rows,
    make_patch,
    min_gap,
    minkowski,
)
from .ring import _silver_coeffs


@dataclass(frozen=True)
class CutProjectScheme:
    """Lattice-and-window data for a cut-and-project construction.

    kind "silver" is the arithmetic scheme {(a + b*sqrt(2), a - b*sqrt(2))}
    in R x R; kind "matrix" takes an explicit nonsingular basis whose
    columns generate the lattice, with the first physical_dim rows read
    as physical coordinates and the rest as internal ones.
    """

    kind: str
    physical_dim: int
    internal_dim: int
    window: tuple[tuple[float, float], ...]
    basis: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in ("silver", "matrix"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if len(self.window) != self.internal_dim:
            raise ValueError("need one closed interval per internal dimension")
        for lo, hi in self.window:
            if not (hi > lo):
                raise ValueError(f"degenerate window [{lo}, {hi}]")
        if self.kind == "silver":
            if (self.physical_dim, self.internal_dim) != (1, 1):
                raise ValueError("the silver scheme is one dimensional on both sides")
            if self.basis is not None:
                raise ValueError("the silver scheme carries no explicit basis")
        else:
            n = self.physical_dim + self.internal_dim
            basis = np.asarray(self.basis, dtype=float)
            if basis.shape != (n, n):
                raise ValueError(f"basis must be {n} x {n}")
            if abs(np.linalg.det(basis)) < 1e-12:
                raise ValueError("basis is singular")
            basis = basis.copy()
            basis.setflags(write=False)
            object.__setattr__(self, "basis", basis)
        object.__setattr__(
            self, "window", tuple((float(lo), float(hi)) for lo, hi in self.window)
        )


def silver_scheme(lo: float = -1.0, hi: float = 1.0) -> CutProjectScheme:
    return CutProjectScheme(kind="silver", physical_dim=1, internal_dim=1, window=((lo, hi),))


def matrix_scheme(
    basis: Sequence[Sequence[float]],
    physical_dim: int,
    window: Sequence[tuple[float, float]],
) -> CutProjectScheme:
    basis = np.asarray(basis, dtype=float)
    internal = basis.shape[0] - physical_dim
    return CutProjectScheme(
        kind="matrix",
        physical_dim=physical_dim,
        internal_dim=internal,
        window=tuple((float(lo), float(hi)) for lo, hi in window),
        basis=basis,
    )


def generate_model_set(scheme: CutProjectScheme, T: float) -> PointPatch:
    """Physical projections of lattice points with physical part in
    [-T, T]^physical_dim and internal part in the closed window.

    The silver scheme decides window membership with exact integer
    arithmetic; matrix schemes enumerate integer combinations inside a
    padded coefficient box and filter with plain float comparisons.
    The enumeration is complete on the physical box, so core == window.
    """
    T = float(T)
    if T < 0:
        raise ValueError("physical radius must be nonnegative")
    if scheme.kind == "silver":
        lo, hi = scheme.window[0]
        a, b = _silver_coeffs(lo, hi, T)
        exact = ExactCoords(za=a[:, None], zb=b[:, None])
        return _flat_patch(exact.embed_z(), T, T, f"model_set(silver,W=[{lo:.12g},{hi:.12g}],T={T:.12g})", exact)
    basis = scheme.basis
    p, i = scheme.physical_dim, scheme.internal_dim
    n = p + i
    lo = np.array([-T] * p + [w[0] for w in scheme.window])
    hi = np.array([T] * p + [w[1] for w in scheme.window])
    corners = np.array(
        [[lo[j] if (m >> j) & 1 else hi[j] for j in range(n)] for m in range(1 << n)]
    )
    coeff_corners = corners @ np.linalg.inv(basis).T
    c_lo = [math.floor(v) - 1 for v in coeff_corners.min(axis=0).tolist()]
    c_hi = [math.ceil(v) + 1 for v in coeff_corners.max(axis=0).tolist()]
    coeffs = _grid_rows([(lo_j, hi_j, 1.0) for lo_j, hi_j in zip(c_lo, c_hi)], "coefficients")
    x = coeffs @ basis.T
    mask = np.all(x >= lo[None, :], axis=1) & np.all(x <= hi[None, :], axis=1)
    phys = x[mask][:, :p]
    exact = None
    if np.array_equal(basis, np.round(basis)):
        exact_z = np.round(phys).astype(np.int64)
        if np.array_equal(exact_z, phys):
            exact = ExactCoords(za=exact_z, zb=np.zeros_like(exact_z))
    return _flat_patch(phys, T, T, f"model_set(matrix,p={p},i={i},T={T:.12g})", exact)


def cartesian_flat(p1: PointPatch, p2: PointPatch) -> PointPatch:
    """Direct product of two flat patches, concatenating z coordinates."""
    if p1.dim_q or p2.dim_q:
        raise ValueError("cartesian_flat expects flat patches")
    n, m = p1.n, p2.n

    def pairs(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
        return np.concatenate([np.repeat(a1, m, axis=0), np.tile(a2, (n, 1))], axis=1)

    exact = None
    if p1.exact is not None and p2.exact is not None and p1.exact.d == p2.exact.d:
        e1, e2 = p1.exact, p2.exact
        exact = ExactCoords(za=pairs(e1.za, e2.za), zb=pairs(e1.zb, e2.zb), d=e1.d)
    return _flat_patch(
        pairs(p1.z, p2.z), max(p1.window_z, p2.window_z), min(p1.core_z, p2.core_z),
        f"cartesian({p1.provenance[:40]},{p2.provenance[:40]})", exact,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Patch-level verdict on beta(Delta^2, Delta) subset of Xi^k."""

    holds: bool
    k: int
    n_checked: int
    max_abs_beta: float
    coverage: float
    witness: Optional[tuple[float, ...]]


def check_symplectic_condition(
    Xi: PointPatch, Delta: PointPatch, cocycle: Cocycle, k: int
) -> ConditionReport:
    """Verify every beta(d1 + d2, d3) over Delta lands in the k-fold sum
    of Xi, exactly when both sides carry exact coordinates, else within
    1e-9.

    Values are only certifiable inside the region the k-fold sum patch
    covers (k times the Xi window); a larger value raises an
    insufficient-window error rather than a verdict.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if Delta.n == 0:
        raise ValueError("empty Delta")
    check_size("triples", Delta.n ** 3)
    # Pairwise beta values; triples follow from bilinearity.
    B = cocycle.beta(Delta.z[:, None, :], Delta.z[None, :, :])  # Delta is flat: its z block is q
    n = Delta.n
    dz = cocycle.dim_z
    triple = (B[:, None, :, :] + B[None, :, :, :]).reshape(n * n * n, dz)
    sum_patch = Xi
    for _ in range(k - 1):
        sum_patch = minkowski(sum_patch, Xi)
    coverage = k * Xi.window_z
    max_abs = float(np.abs(triple).max()) if triple.size else 0.0
    if max_abs > coverage + BALL_PAD:
        raise InsufficientWindowError(
            f"beta values reach {max_abs:.6g} but the {k}-fold sum only covers "
            f"[-{coverage:.6g}, {coverage:.6g}]; enlarge the Xi window"
        )
    exact_ok = (
        Xi.exact is not None
        and Delta.exact is not None
        and Xi.exact.d == Delta.exact.d
        and cocycle.is_integral
    )
    if exact_ok:
        ea, eb, d = Delta.exact.za, Delta.exact.zb, Delta.exact.d
        Ba, Bb = cocycle.beta_exact(ea[:, None, :], eb[:, None, :], ea[None, :, :], eb[None, :, :], d)
        triples = ExactCoords(
            za=(Ba[:, None, :, :] + Ba[None, :, :, :]).reshape(n ** 3, dz),
            zb=(Bb[:, None, :, :] + Bb[None, :, :, :]).reshape(n ** 3, dz),
            d=d,
        )
        keys = triples.key_matrix()
        order, starts = group_rows(keys)
        uniq = order[starts]
        missing = uniq[_find_rows(sum_patch.key_matrix, keys[uniq]) < 0]
        witness = tuple(triples.take(missing[:1]).embed_z()[0].tolist()) if len(missing) else None
    else:
        uniq = np.unique(triple, axis=0)
        dist = _nearest_distance(sum_patch.z, uniq) if sum_patch.n else np.full(len(uniq), np.inf)
        bad = np.flatnonzero(dist > QUANT)
        witness = tuple(uniq[bad[0]].tolist()) if len(bad) else None
    return ConditionReport(
        holds=witness is None, k=k, n_checked=n ** 3, max_abs_beta=max_abs,
        coverage=coverage, witness=witness,
    )


def symplectic_product(
    Xi: PointPatch, Delta: PointPatch, G: CentralExtensionGroup, k: int = 2
) -> PointPatch:
    """Assemble the product set {(xi, delta)} in G = Z x_beta Q and attach
    the patch verdict on beta(Delta^2, Delta) subset of Xi^k to the
    provenance.

    Xi and Delta arrive as flat patches (Xi in the central block, Delta
    in the horizontal one); both must be symmetric and contain 0.
    """
    if Xi.dim_q or Delta.dim_q:
        raise ValueError("Xi and Delta must be flat patches")
    if Xi.dim_z != G.dim_z or Delta.dim_z != G.dim_q:
        raise ValueError("patch dimensions do not match the group")
    if not _is_symmetric_with_identity(Xi):
        raise ValueError("Xi must be symmetric and contain 0")
    if not _is_symmetric_with_identity(Delta):
        raise ValueError("Delta must be symmetric and contain 0")
    report = check_symplectic_condition(Xi, Delta, G.cocycle, k)
    n, m = Xi.n, Delta.n
    z = np.repeat(Xi.z, m, axis=0)
    q = np.tile(Delta.z, (n, 1))
    exact = None
    if Xi.exact is not None and Delta.exact is not None and Xi.exact.d == Delta.exact.d:
        exact = ExactCoords(
            za=np.repeat(Xi.exact.za, m, axis=0),
            zb=np.repeat(Xi.exact.zb, m, axis=0),
            qa=np.tile(Delta.exact.za, (n, 1)),
            qb=np.tile(Delta.exact.zb, (n, 1)),
            d=Xi.exact.d,
        )
    tag = f"beta_cond={'ok' if report.holds else 'fail'}(k={k})"
    return make_patch(
        group=G,
        z=z,
        q=q,
        window_z=Xi.window_z,
        window_q=Delta.window_z,
        core_z=Xi.core_z,
        core_q=Delta.core_z,
        provenance=f"symplectic({Xi.provenance[:30]},{Delta.provenance[:30]},{tag})",
        exact=exact,
    )


def project(P: PointPatch) -> PointPatch:
    """Projection to the q block, returned as a flat patch (deduplicated)."""
    if P.dim_q == 0:
        raise ValueError("patch has no q block to project to")
    e = P.exact
    exact = ExactCoords(za=e.qa, zb=e.qb, d=e.d) if e is not None else None
    return _flat_patch(P.q, P.window_q, P.core_q, f"project({P.provenance[:50]})", exact)


def fiber(P: PointPatch, delta: Sequence[float]) -> np.ndarray:
    """z-parts of the points of P sitting over delta, as an (n, dim_z)
    array in canonical order.  An unmatched delta gives an empty array."""
    d = np.asarray(delta, dtype=float).reshape(P.dim_q)
    mask = np.all(np.abs(P.q - d[None, :]) <= QUANT, axis=1)
    return P.z[mask]


@dataclass(frozen=True)
class FiberReport:
    delta: tuple[float, ...]
    cardinality: int
    covering_estimate: float
    essential: bool


@dataclass(frozen=True)
class AlignmentReport:
    projection_min_gap: float
    fibers: tuple[FiberReport, ...]
    uniformly_large: bool
    essential_fraction: float
    R_threshold: float
    z_radius: float
    h: float


def _core_fibers(P: PointPatch) -> tuple[np.ndarray, np.ndarray]:
    """Rows over the q-core, ordered into fibers by q key: (order, starts)."""
    idx = np.flatnonzero(P.box_mask(math.inf, P.core_q))
    order, starts = group_rows(P.q_key_matrix[idx])
    return idx[order], starts


def alignment_report(
    P: PointPatch,
    R_threshold: float,
    h: float = 0.01,
    z_radius: Optional[float] = None,
) -> AlignmentReport:
    """Classify every fiber over the q-core as essential (the flat
    covering_radius estimate of the fiber over the z probe box is at most
    R_threshold) or not, and report the projection's minimum gap alongside.
    """
    return _aligned_fibers(P, R_threshold, h, z_radius)[0]


def _aligned_fibers(
    P: PointPatch, R_threshold: float, h: float, z_radius: Optional[float]
) -> tuple[AlignmentReport, np.ndarray, np.ndarray]:
    """alignment_report with the _core_fibers (order, starts) it classified."""
    if P.dim_q == 0 or P.dim_z == 0:
        raise ValueError("alignment needs both a z block and a q block")
    check_radius("R_threshold", R_threshold)
    z_radius = P.core_z if z_radius is None else float(z_radius)
    if not z_radius >= 0:
        raise ValueError("probe radii must be non-negative")
    if z_radius > P.core_z + BOUNDARY_PAD:
        raise BoundaryUnsoundError("z probe box exceeds the trusted z-core")
    if z_radius < R_threshold:
        raise InsufficientWindowError(
            f"z-core {z_radius:.6g} cannot witness denseness at scale {R_threshold:.6g}"
        )
    proj = project(P)
    gap = min_gap(proj)
    order, starts = _core_fibers(P)
    if len(order) == 0:
        raise InsufficientWindowError("no points over the q-core")
    probes, slack = _grid_rows([_axis(z_radius, h)] * P.dim_z, "probes"), h * math.sqrt(P.dim_z) / 2.0
    reports: list[FiberReport] = []
    for rows in np.split(order, starts[1:]):
        delta = tuple(float(v) for v in P.q[rows[0]])
        est = float(_nearest_distance(P.z[rows], probes).max()) + slack
        reports.append(
            FiberReport(
                delta=delta,
                cardinality=len(rows),
                covering_estimate=est,
                essential=bool(est <= R_threshold),
            )
        )
    ess = sum(1 for r in reports if r.essential)
    rep = AlignmentReport(
        projection_min_gap=gap,
        fibers=tuple(reports),
        uniformly_large=bool(ess == len(reports)),
        essential_fraction=ess / len(reports),
        R_threshold=float(R_threshold),
        z_radius=z_radius,
        h=h,
    )
    return rep, order, starts


def enforce_uniform_fibers(P: PointPatch, R: float, h: float = 0.01) -> PointPatch:
    """Keep only the columns of P*P whose fiber is R-relatively dense on
    the base core.

    The square is clipped back to the base patch's boxes (where products
    of core points fill it out) before fibers are classified; the result
    passes alignment_report at threshold R by construction.
    """
    if not _is_symmetric_with_identity(P):
        raise ValueError("patch must be symmetric and contain the identity")
    square = minkowski(P, P, P.window_z, P.window_q)
    square = square.take(
        np.arange(square.n), core_z=min(P.core_z, square.window_z),
        core_q=min(P.core_q, square.window_q),
    )
    rep, order, starts = _aligned_fibers(square, R, h, None)
    sizes = np.diff(np.append(starts, len(order)))
    keep = np.sort(order[np.repeat([r.essential for r in rep.fibers], sizes)])
    if len(keep) == 0:
        raise ThresholdTooSmallError(
            f"no fiber of the square is {R:.6g}-relatively dense on the core"
        )
    out = square.take(
        keep,
        window_z=square.window_z,
        window_q=square.core_q,
        core_z=square.core_z,
        core_q=square.core_q,
        provenance=f"uniform_fibers(R={R:.6g})({P.provenance[:40]})",
    )
    return out


def fiber_cardinality_profile(P: PointPatch, k_max: int) -> tuple[int, ...]:
    """Max fiber cardinality of P^k on the base core, for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    if P.n == 0:
        raise InsufficientWindowError("empty patch")
    out: list[int] = []
    current = P.restrict(z_box=P.window_z, q_box=P.window_q)
    for k in range(1, k_max + 1):
        rows = np.flatnonzero(current.box_mask(P.core_z, P.core_q))
        if len(rows) == 0:
            raise InsufficientWindowError(f"P^{k} has no points on the base core")
        _, starts = group_rows(current.q_key_matrix[rows])
        out.append(int(np.diff(np.append(starts, len(rows))).max()))
        if k < k_max:
            current = minkowski(current, P, P.window_z, P.window_q)
    return tuple(out)
