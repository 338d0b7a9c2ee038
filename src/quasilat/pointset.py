"""Finite patches of point sets in a central extension group.

A PointPatch is an array-backed finite set of group elements together
with the box it was generated in (window) and the smaller box on which
it is certified complete (core).  All set-level operations (Minkowski
products, inversion, translation) keep track of how the trusted core
shrinks, and carry exact quadratic-integer coordinates along whenever
the inputs have them, so membership questions never depend on floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    BoundaryUnsoundError,
    CoefficientOverflowError,
    InsufficientWindowError,
    check_size,
)
from .group import CentralExtensionGroup, GroupElement, _max_abs
from .ring import COEFF_LIMIT, QuadInt, check_radicand

QUANT = 1e-9  # float coordinates closer than this collapse to one key
SEARCH_PAD = 1e-9  # widens a search window or a grid count so rounding drops no candidate
BALL_PAD = 1e-12  # a row or pair at distance <= r + BALL_PAD lies in the closed ball or box
CORE_PAD = 1e-9  # spectral and diffraction refuse radii beyond core + CORE_PAD
BOUNDARY_PAD = 1e-12  # probe boxes beyond core + BOUNDARY_PAD raise BoundaryUnsoundError
_PAIR_GUARD = 2 ** 30  # inputs to exact products stay below this


@dataclass(frozen=True)
class ExactCoords:
    """Per-point integer pairs (a, b) meaning a + b*sqrt(d), per coordinate."""

    za: np.ndarray
    zb: np.ndarray
    qa: np.ndarray
    qb: np.ndarray
    d: int = 2

    def __post_init__(self) -> None:
        for name in ("za", "zb", "qa", "qb"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.za.shape != self.zb.shape or self.qa.shape != self.qb.shape:
            raise ValueError("mismatched exact coordinate shapes")
        if len(self.za) != len(self.qa):
            raise ValueError("z and q exact blocks disagree on point count")
        check_radicand(self.d)

    @classmethod
    def from_quadints_z(cls, points: Sequence[QuadInt]) -> "ExactCoords":
        d = points[0].d if points else 2
        za = np.array([[p.a] for p in points], dtype=np.int64).reshape(len(points), 1)
        zb = np.array([[p.b] for p in points], dtype=np.int64).reshape(len(points), 1)
        empty = np.zeros((len(points), 0), dtype=np.int64)
        return cls(za=za, zb=zb, qa=empty, qb=empty, d=d)

    @classmethod
    def from_int_rows(cls, z: np.ndarray, q: np.ndarray, d: int = 2) -> "ExactCoords":
        z = np.asarray(z, dtype=np.int64)
        q = np.asarray(q, dtype=np.int64)
        return cls(za=z, zb=np.zeros_like(z), qa=q, qb=np.zeros_like(q), d=d)

    @property
    def n(self) -> int:
        return len(self.za)

    @classmethod
    def concat(cls, parts: Sequence["ExactCoords"]) -> "ExactCoords":
        fields = ("za", "zb", "qa", "qb")
        return cls(*(np.concatenate([getattr(e, f) for e in parts]) for f in fields), d=parts[0].d)

    def take(self, idx: np.ndarray) -> "ExactCoords":
        return ExactCoords(self.za[idx], self.zb[idx], self.qa[idx], self.qb[idx], self.d)

    def neg(self) -> "ExactCoords":
        return ExactCoords(-self.za, -self.zb, -self.qa, -self.qb, self.d)

    def embed_z(self) -> np.ndarray:
        return self.za + self.zb * math.sqrt(self.d)

    def embed_q(self) -> np.ndarray:
        return self.qa + self.qb * math.sqrt(self.d)

    def key_matrix(self) -> np.ndarray:
        """Integer key columns za0, zb0, za1, zb1, ..., then qa0, qb0, ..."""
        return np.hstack([_interleave(self.za, self.zb), self.q_key_matrix()])

    def q_key_matrix(self) -> np.ndarray:
        return _interleave(self.qa, self.qb)

    def max_abs(self) -> int:
        return _max_abs(self.za, self.zb, self.qa, self.qb)

    def point(self, i: int) -> tuple[tuple[QuadInt, ...], tuple[QuadInt, ...]]:
        zx = tuple(QuadInt(int(self.za[i, k]), int(self.zb[i, k]), self.d) for k in range(self.za.shape[1]))
        qx = tuple(QuadInt(int(self.qa[i, k]), int(self.qb[i, k]), self.d) for k in range(self.qa.shape[1]))
        return zx, qx


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty((len(a), 2 * a.shape[1]), dtype=np.int64)
    out[:, 0::2] = a
    out[:, 1::2] = b
    return out


def _quant_keys(arr: np.ndarray) -> np.ndarray:
    return np.round(arr / QUANT).astype(np.int64)


def _key_matrix(z: np.ndarray, q: np.ndarray, exact: Optional[ExactCoords]) -> np.ndarray:
    """Integer identity per point: exact pairs when present, else
    coordinates quantized at QUANT."""
    return exact.key_matrix() if exact is not None else _quant_keys(np.hstack([z, q]))


def _mixed_radix(cols: Sequence[np.ndarray]) -> Optional[tuple[np.ndarray, list[int], list[int]]]:
    """(packed, lows, spans): one int64 column ordered like the rows of the
    integer key columns, column 0 most significant, or None when their
    value spans do not fit in int64."""
    # initial=0 only widens a range, and lets empty columns through.
    lows = [int(col.min(initial=0)) for col in cols]
    spans = [int(col.max(initial=0)) - b + 1 for col, b in zip(cols, lows)]
    if math.prod(spans) > 2**62:
        return None
    packed = np.zeros(len(cols[0]), dtype=np.int64)
    for col, b, span in zip(cols, lows, spans):
        packed *= span
        packed += col
        packed -= b
    return packed, lows, spans


def group_rows(keys: np.ndarray, tiebreak: Sequence[np.ndarray] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Sort integer key rows (column 0 primary, then later columns, then
    the tiebreak columns in the order given, then row index) and return
    (order, starts): keys[order] splits into runs of equal rows beginning
    at starts."""
    key_cols = list(keys.T)
    packed = _mixed_radix(key_cols) if key_cols else None
    if packed is not None:
        key_cols = [packed[0]]  # one column sorts faster than several
    cols = tuple(reversed(tiebreak)) + tuple(reversed(key_cols))
    order = np.lexsort(cols) if cols else np.arange(len(keys))
    new = np.arange(len(keys)) == 0
    for col in key_cols:
        ks = col[order]
        new[1:] |= ks[1:] != ks[:-1]
    return order, np.flatnonzero(new)


def _fiber_index(q_keys: np.ndarray, z0: np.ndarray):
    """Rows grouped into fibers of equal q-key, ascending in z0 inside
    each.  Returns (order, starts, edge): fiber j is order[starts[j]:
    starts[j + 1]], and edge(j, v, side) is the position in order where v
    would enter fiber j, with np.searchsorted's side semantics, for
    arrays j and v.  The search runs on one integer key, fiber-major with
    the global z0 rank inside, so it is exact and no float offset
    separates fibers."""
    n = len(z0)
    order, starts = group_rows(q_keys, (z0,))
    zs = z0[order]
    by_z = np.argsort(zs, kind="stable")
    rank = np.argsort(by_z)
    seg_key = np.repeat(np.arange(len(starts), dtype=np.int64) * n, np.diff(np.append(starts, n))) + rank
    z_sorted = zs[by_z]

    def edge(fj: np.ndarray, v: np.ndarray, side: str) -> np.ndarray:
        return np.searchsorted(seg_key, fj * n + np.searchsorted(z_sorted, v, side=side))

    return order, starts, edge


def _expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (repeated) and flat column indices for slices
    [lo[i], hi[i]) of a sorted array."""
    counts = hi - lo
    rows = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    offsets = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = np.repeat(lo, counts) + offsets
    return rows, cols


def _as_block(arr, width: int) -> np.ndarray:
    """Contiguous float (n, width) view; width 0 keeps the row count."""
    out = np.ascontiguousarray(arr, dtype=float)
    out = out.reshape(-1, width) if width else out.reshape(len(out), 0)
    return out


@dataclass(frozen=True)
class PointPatch:
    """Finite patch with declared generation window and trusted core.

    Windows and cores are half-widths of sup-norm boxes, one number for
    the z block and one for the q block.  Points are stored in canonical
    order (sorted by q columns then z columns) with duplicates removed.
    """

    group: CentralExtensionGroup
    z: np.ndarray
    q: np.ndarray
    window_z: float
    window_q: float
    core_z: float
    core_q: float
    provenance: str = ""
    exact: Optional[ExactCoords] = None

    def __post_init__(self) -> None:
        z = _as_block(self.z, self.group.dim_z)
        q = _as_block(self.q, self.group.dim_q)
        if len(z) != len(q):
            raise ValueError("z and q blocks disagree on point count")
        z.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "q", q)
        for name in ("window_z", "window_q", "core_z", "core_q"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.core_z > self.window_z + BALL_PAD or self.core_q > self.window_q + BALL_PAD:
            raise ValueError("core box cannot exceed the window box")
        if z.size and np.abs(z).max() > self.window_z + QUANT:
            raise ValueError("points fall outside the declared z window")
        if q.size and np.abs(q).max() > self.window_q + QUANT:
            raise ValueError("points fall outside the declared q window")
        if self.exact is not None and self.exact.n != len(z):
            raise ValueError("exact coordinates disagree on point count")

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def dim_z(self) -> int:
        return self.group.dim_z

    @property
    def dim_q(self) -> int:
        return self.group.dim_q

    @cached_property
    def key_matrix(self) -> np.ndarray:
        return _key_matrix(self.z, self.q, self.exact)

    @cached_property
    def q_key_matrix(self) -> np.ndarray:
        return self.exact.q_key_matrix() if self.exact is not None else _quant_keys(self.q)

    @cached_property
    def key_set(self) -> set[tuple[int, ...]]:
        return {tuple(row) for row in self.key_matrix.tolist()}

    def element(self, i: int) -> GroupElement:
        z_exact = q_exact = None
        if self.exact is not None:
            z_exact, q_exact = self.exact.point(i)
        return GroupElement(
            z=tuple(self.z[i]), q=tuple(self.q[i]), z_exact=z_exact, q_exact=q_exact
        )

    def __iter__(self) -> Iterator[GroupElement]:
        return (self.element(i) for i in range(self.n))

    def box_mask(self, z_box: float, q_box: float) -> np.ndarray:
        """Rows in the closed sup-norm box |z| <= z_box, |q| <= q_box;
        an infinite bound leaves its block unchecked."""
        m = np.ones(self.n, dtype=bool)
        for block, bound in ((self.z, z_box), (self.q, q_box)):
            if block.shape[1] and bound < math.inf:
                m &= np.all(np.abs(block) <= bound + BALL_PAD, axis=1)
        return m

    def core_mask(self) -> np.ndarray:
        return self.box_mask(self.core_z, self.core_q)

    def take(self, idx: np.ndarray, **overrides) -> "PointPatch":
        exact = self.exact.take(idx) if self.exact is not None else None
        kw = dict(
            group=self.group,
            z=self.z[idx],
            q=self.q[idx],
            window_z=self.window_z,
            window_q=self.window_q,
            core_z=self.core_z,
            core_q=self.core_q,
            provenance=self.provenance,
            exact=exact,
        )
        kw.update(overrides)
        return PointPatch(**kw)

    def restrict(self, z_box: Optional[float] = None, q_box: Optional[float] = None) -> "PointPatch":
        """Clip to a smaller box; windows and cores shrink accordingly."""
        zb = self.window_z if z_box is None else min(float(z_box), self.window_z)
        qb = self.window_q if q_box is None else min(float(q_box), self.window_q)
        return self.take(
            np.flatnonzero(self.box_mask(zb, qb)),
            window_z=zb,
            window_q=qb,
            core_z=min(self.core_z, zb),
            core_q=min(self.core_q, qb),
        )


def _short(text: str, limit: int = 60) -> str:
    return text if len(text) <= limit else text[: limit - 1] + "~"


def _canonical_perm(z: np.ndarray, q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    cols: list[np.ndarray] = [keys[:, k] for k in range(keys.shape[1] - 1, -1, -1)]
    cols.extend(z[:, k] for k in range(z.shape[1] - 1, -1, -1))
    cols.extend(q[:, k] for k in range(q.shape[1] - 1, -1, -1))
    if not cols:
        return np.arange(len(z))
    return np.lexsort(tuple(cols))


def _key_survivors(z: np.ndarray, q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """One row per distinct key: its lowest row in (q, z) order, earliest
    on ties, which is the row a canonical sort would put first.  The
    survivor of a union of row sets is the survivor of their survivors."""
    # Per-run minima cost less than adding the floats to the sort.
    order, starts = group_rows(keys)
    sizes = np.diff(np.append(starts, len(order)))
    best = np.ones(len(order), dtype=bool)
    for col in tuple(q.T) + tuple(z.T):
        vals = col[order]
        vals[~best] = np.inf
        best &= vals == np.repeat(np.minimum.reduceat(vals, starts), sizes)
    rows = np.flatnonzero(best)
    return order[rows[np.searchsorted(rows, starts)]]


def make_patch(
    group: CentralExtensionGroup,
    z: np.ndarray,
    q: np.ndarray,
    window_z: float,
    window_q: float,
    core_z: float,
    core_q: float,
    provenance: str = "",
    exact: Optional[ExactCoords] = None,
) -> PointPatch:
    """Assemble a patch: deduplicate by exact (or quantized) keys and
    store points in canonical order."""
    z = _as_block(z, group.dim_z)
    q = _as_block(q, group.dim_q)
    if len(z):
        keys = _key_matrix(z, q, exact)
        keep = _key_survivors(z, q, keys)
        perm = keep[_canonical_perm(z[keep], q[keep], keys[keep])]
        z = z[perm]
        q = q[perm]
        exact = exact.take(perm) if exact is not None else None
    return PointPatch(
        group=group,
        z=z,
        q=q,
        window_z=window_z,
        window_q=window_q,
        core_z=core_z,
        core_q=core_q,
        provenance=provenance,
        exact=exact,
    )


def patch_from_exact(
    group: CentralExtensionGroup,
    exact: ExactCoords,
    window_z: float,
    window_q: float,
    core_z: float,
    core_q: float,
    provenance: str = "",
) -> PointPatch:
    return make_patch(
        group=group,
        z=exact.embed_z(),
        q=exact.embed_q(),
        window_z=window_z,
        window_q=window_q,
        core_z=core_z,
        core_q=core_q,
        provenance=provenance,
        exact=exact,
    )


def integer_lattice_patch(
    group: CentralExtensionGroup,
    window_z: float,
    window_q: float = 0.0,
    core_z: Optional[float] = None,
    core_q: Optional[float] = None,
    provenance: str = "",
) -> PointPatch:
    """All integer points of the window boxes, with exact coordinates."""
    axes = [_axis(window_z, 1.0)] * group.dim_z + [_axis(window_q, 1.0)] * group.dim_q
    if not axes:
        raise ValueError("group has no coordinates")
    cols = _grid_rows(axes, "lattice").astype(np.int64)
    zc = cols[:, : group.dim_z]
    qc = cols[:, group.dim_z :]
    exact = ExactCoords.from_int_rows(zc, qc)
    return patch_from_exact(
        group=group,
        exact=exact,
        window_z=float(window_z),
        window_q=float(window_q),
        core_z=float(window_z) if core_z is None else float(core_z),
        core_q=float(window_q) if core_q is None else float(core_q),
        provenance=provenance or f"integer_lattice(window_z={window_z:g},window_q={window_q:g})",
    )


def _beta_rows(cocycle, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """cocycle.beta(v[r], w[r]) for (n, dim_q) row arrays, with the bits
    the all-pairs form cocycle.beta(v[:, None], w[None]) gives those
    pairs.  Coordinates first puts the rows on einsum's inner loop, which
    is several times faster, and each row still sums its terms in (i, j)
    order."""
    return np.einsum("kij,i...,j...->...k", cocycle.stack, np.ascontiguousarray(v.T), np.ascontiguousarray(w.T))


def _pair_products(
    p1: PointPatch, p2: PointPatch, x: np.ndarray, y: np.ndarray, exact_keys: bool
) -> tuple[np.ndarray, np.ndarray, Optional[ExactCoords]]:
    """z, q and, with exact_keys, exact coordinates of the products
    p1[x] * p2[y]."""
    g = p1.group
    mixed = g.dim_q and g.dim_z

    def rows(arrays, idx):
        # np.take gathers short rows far faster than indexing, but is slow
        # on zero-width blocks, which have nothing to gather.
        return [np.take(a, idx, axis=0) if a.shape[1] else np.empty((len(idx), 0), a.dtype) for a in arrays]

    (z1, q1), (z2, q2) = rows((p1.z, p1.q), x), rows((p2.z, p2.q), y)
    z = z1 + z2
    if mixed:
        z = z + _beta_rows(g.cocycle, q1, q2)
    if not exact_keys:
        return z, q1 + q2, None
    fields = ("za", "zb", "qa", "qb")
    za1, zb1, qa1, qb1 = rows([getattr(p1.exact, f) for f in fields], x)
    za2, zb2, qa2, qb2 = rows([getattr(p2.exact, f) for f in fields], y)
    beta = g.cocycle.beta_exact(qa1, qb1, qa2, qb2, p1.exact.d) if mixed else ()
    # Bound the sums in Python ints before forming them, so int64 never wraps.
    if _max_abs(za1, zb1, qa1, qb1) + _max_abs(za2, zb2, qa2, qb2) + _max_abs(*beta) > COEFF_LIMIT:
        raise CoefficientOverflowError("product coordinates exceed the safe limit")
    za, zb = za1 + za2, zb1 + zb2
    if mixed:
        za = za + beta[0]
        zb = zb + beta[1]
    return z, q1 + q2, ExactCoords(za=za, zb=zb, qa=qa1 + qa2, qb=qb1 + qb2, d=p1.exact.d)


_SEARCH_BLOCK = 1 << 18  # (p1 row, p2 fiber) tests per block of the candidate search
_PAIR_CHUNK = 1 << 16  # candidate pairs formed and deduplicated at a time


def _pair_pieces(counts: np.ndarray) -> list[tuple[int, int]]:
    """Slices [s, e) of consecutive ranges holding counts pairs each, cut
    where the running pair count passes a multiple of _PAIR_CHUNK."""
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(_PAIR_CHUNK, ends[-1] if len(ends) else 0, _PAIR_CHUNK), "right")
    return [(s, e) for s, e in zip(np.append(0, cuts), np.append(cuts, len(counts))) if e > s]


def _candidate_ranges(p1: PointPatch, p2: PointPatch, z_box: float, q_box: float):
    """Candidate pairs of p1 x p2 for products in the closed box |z_0| <=
    z_box, |q| <= q_box, as (order, pieces): each piece (x, lo, hi) of
    about _PAIR_CHUNK pairs matches row x[i] of p1 with the rows
    order[lo[i]:hi[i]] of p2.

    p2 is cut into q-fibers sorted by z_0.  A row x meets fiber j (head
    delta_j) when |q_x + delta_j| fits the q box, and then the z window
    |z_x + z_y + beta(q_x, delta_j)| <= z_box is one sorted search.  Rows
    of p1 are searched in blocks, so no array reaches n * m before the
    pairs are formed."""
    g = p1.group
    z0 = p2.z[:, 0] if g.dim_z else np.zeros(p2.n)
    order, starts, edge = _fiber_index(p2.q_key_matrix, z0)
    deltas = p2.q[order[starts]]
    step = max(1, _SEARCH_BLOCK // max(len(starts), 1))

    def pieces():
        for i0 in range(0, p1.n, step):
            qx = p1.q[i0 : i0 + step]
            xi, fj = np.nonzero(np.all(np.abs(qx[:, None, :] + deltas[None, :, :]) <= q_box, axis=2))
            x = i0 + xi
            z1 = p1.z[x, 0] + _beta_rows(g.cocycle, qx[xi], deltas[fj])[:, 0] if g.dim_z else np.zeros(len(x))
            lo = edge(fj, -z_box - z1, "left")
            hi = edge(fj, z_box - z1, "right")
            keep = hi > lo
            x, lo, hi = x[keep], lo[keep], hi[keep]
            for s, e in _pair_pieces(hi - lo):
                yield x[s:e], lo[s:e], hi[s:e]

    return order, pieces


def minkowski(p1: PointPatch, p2: PointPatch, z_box: float = math.inf, q_box: float = math.inf) -> PointPatch:
    """Pointwise product set {x*y : x in p1, y in p2}, clipped to the
    closed box |z| <= z_box, |q| <= q_box.

    With a finite bound the result is exactly
    minkowski(p1, p2).restrict(z_box, q_box), but only the candidate
    pairs that can land in the box are formed, a piece at a time, each
    piece deduplicated by key as it is formed; the default infinite box
    keeps the whole product.  The candidate count (n * m for an
    unclipped call) is checked against the "product" size cap before
    any pair array exists.

    The window grows by the cocycle drift; the trusted core follows
    core' = max(core(p1) - window(p2), 0) per block, which degenerates
    to zero for self-products.  Callers that need gap statistics on a
    meaningful region clip to the base patch core.
    """
    if p1.group != p2.group:
        raise ValueError("patches live in different groups")
    g = p1.group
    e1, e2 = p1.exact, p2.exact
    exact_keys = e1 is not None and e2 is not None and e1.d == e2.d and g.cocycle.is_integral
    # The search box is padded so that every row sharing a key with a row
    # in the box is formed, and make_patch keeps the same survivor: rows
    # of one exact key differ by rounding, which grows with the size of
    # the coordinates, rows of one quantized key (or p2 rows of one
    # quantized q-fiber) by up to QUANT, and a QUANT move of q_y shifts z
    # by the cocycle drift.
    fiber_spread = 0.0 if e2 is not None else QUANT
    spread = 0.0 if exact_keys else QUANT
    q1_max, q2_max = (float(np.abs(p.q).max(initial=0.0)) for p in (p1, p2))
    z_size = sum(float(np.abs(p.z).max(initial=0.0)) for p in (p1, p2)) + g.cocycle.box_drift(q1_max, q2_max)
    zb = z_box + BALL_PAD + SEARCH_PAD * (1 + z_size) + spread + g.cocycle.box_drift(q1_max, fiber_spread)
    qb = q_box + BALL_PAD + SEARCH_PAD * (1 + q1_max + q2_max) + spread + fiber_spread
    order, pieces = _candidate_ranges(p1, p2, zb if g.dim_z else math.inf, qb)
    # Count in a first search and form the pairs in a second, so no more
    # than one block of ranges is held before the cap is checked.
    check_size("product", sum(int((hi - lo).sum()) for _, lo, hi in pieces()))
    if exact_keys and max(e1.max_abs(), e2.max_abs()) > _PAIR_GUARD:
        raise CoefficientOverflowError("exact coordinates too large for pairwise products")
    kept = []
    for x, lo, hi in pieces():
        rows, cols = _expand_ranges(lo, hi)
        z, q, exact = _pair_products(p1, p2, x[rows], order[cols], exact_keys)
        keep = _key_survivors(z, q, _key_matrix(z, q, exact))
        kept.append((z[keep], q[keep], exact.take(keep) if exact_keys else None))
    none = np.zeros(0, dtype=np.int64)
    zs, qs, exacts = zip(*kept or [_pair_products(p1, p2, none, none, exact_keys)])
    drift = g.cocycle.box_drift(p1.window_q, p2.window_q)
    prod = make_patch(
        group=g,
        z=np.concatenate(zs),
        q=np.concatenate(qs),
        window_z=p1.window_z + p2.window_z + drift,
        window_q=p1.window_q + p2.window_q,
        core_z=max(p1.core_z - p2.window_z - drift, 0.0),
        core_q=max(p1.core_q - p2.window_q, 0.0),
        provenance=f"minkowski({_short(p1.provenance)},{_short(p2.provenance)})",
        exact=ExactCoords.concat(exacts) if exact_keys else None,
    )
    if z_box == math.inf and q_box == math.inf:
        return prod
    return prod.restrict(z_box, q_box)


def inverse_set(p: PointPatch) -> PointPatch:
    """{x^-1 : x in p}; inversion negates both blocks, windows are kept."""
    return make_patch(
        group=p.group,
        z=-p.z,
        q=-p.q,
        window_z=p.window_z,
        window_q=p.window_q,
        core_z=p.core_z,
        core_q=p.core_q,
        provenance=f"inverse({_short(p.provenance)})",
        exact=p.exact.neg() if p.exact is not None else None,
    )


def _is_symmetric_with_identity(p: PointPatch) -> bool:
    """Whether p contains the identity and is closed under inversion."""
    if (0,) * p.key_matrix.shape[1] not in p.key_set:
        return False
    return {tuple(row) for row in inverse_set(p).key_matrix.tolist()} == p.key_set


def translate(p: PointPatch, g_elt: GroupElement) -> PointPatch:
    """Left translate {g*x : x in p} with honest core shrinkage."""
    g = p.group
    exact_keys = (
        p.exact is not None
        and g_elt.is_exact
        and g.cocycle.is_integral
        and all(x.d == p.exact.d for x in g_elt.z_exact + g_elt.q_exact)
    )
    g_exact = None
    if exact_keys:
        # One row each of za, zb, qa, qb.
        blocks = ([[getattr(x, c) for x in xs]] for xs in (g_elt.z_exact, g_elt.q_exact) for c in "ab")
        g_exact = ExactCoords(*blocks, d=p.exact.d)
    shift_z = max(map(abs, g_elt.z), default=0.0)
    shift_q = max(map(abs, g_elt.q), default=0.0)
    one = PointPatch(g, [g_elt.z], [g_elt.q], shift_z, shift_q, shift_z, shift_q, exact=g_exact)
    z, q, exact = _pair_products(one, p, np.zeros(p.n, dtype=np.int64), np.arange(p.n), exact_keys)
    drift = g.cocycle.box_drift(shift_q, p.window_q)
    return make_patch(
        group=g,
        z=z,
        q=q,
        window_z=p.window_z + shift_z + drift,
        window_q=p.window_q + shift_q,
        core_z=max(p.core_z - shift_z - drift, 0.0),
        core_q=max(p.core_q - shift_q, 0.0),
        provenance=f"translate({_short(p.provenance)})",
        exact=exact,
    )


def _flat_min_gap(coords: np.ndarray) -> float:
    if len(coords) < 2:
        return math.inf
    if coords.shape[1] == 1:
        vals = np.sort(coords[:, 0])
        return float(np.min(np.diff(vals)))
    tree = cKDTree(coords)
    dist, _ = tree.query(coords, k=2)
    return float(np.min(dist[:, 1]))


def min_gap(p: PointPatch) -> float:
    """Minimum left-invariant distance gauge(x^-1 y) over distinct pairs."""
    if p.n < 2:
        return math.inf
    g = p.group
    if g.dim_q == 0:
        return _flat_min_gap(p.z)
    if g.dim_z == 0:
        return _flat_min_gap(p.q)
    check_size("mixed_gap", p.n)
    return float(_nearest_in_patch(p, p.z, p.q, exclude_self=True)[1].min())


@dataclass(frozen=True)
class CoveringReport:
    """Grid estimate of sup_x min_p d(x, p) over a probe box."""

    estimate: float
    grid_max: float
    slack: float
    h: float
    z_radius: float
    q_radius: float
    n_probes: int


def _axis(radius: float, step: float) -> tuple[int, int, float]:
    """(lo, hi, step) for the multiples of step in [-radius, radius].

    The step must be positive and finite and the radius finite.  When
    radius / step overflows a float the count is taken exactly, so the
    grid's size cap refuses it by name."""
    if not 0 < step < math.inf:
        raise ValueError(f"grid step must be positive and finite, got {step!r}")
    if not math.isfinite(radius):
        raise ValueError(f"grid radius must be finite, got {radius!r}")
    ratio = radius / step
    k = math.floor(ratio + SEARCH_PAD) if ratio < math.inf else math.floor(Fraction(radius) / Fraction(step))
    return -k, k, step


def _grid_size(axes: Sequence[tuple[int, int, float]]) -> int:
    return math.prod(max(hi - lo + 1, 0) for lo, hi, _ in axes)


def _grid_rows(axes: Sequence[tuple[int, int, float]], cap: str) -> np.ndarray:
    """Rows k * step, k = lo..hi, of the product grid of the (lo, hi, step)
    axes, last axis fastest.  The row count is checked against the size
    cap before any array exists."""
    check_size(cap, _grid_size(axes))
    grids = [np.arange(lo, hi + 1, dtype=float) * step for lo, hi, step in axes]
    return np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, len(axes))


def covering_radius(
    p: PointPatch,
    z_radius: Optional[float] = None,
    q_radius: Optional[float] = None,
    h: float = 0.01,
) -> CoveringReport:
    """Covering radius of the patch over a centered probe box, estimated
    on a grid of spacing h and padded by the grid slack.

    The probe box must sit inside the trusted core; outside it the patch
    may simply be missing points and the estimate would be meaningless.
    """
    g = p.group
    if p.n == 0:
        raise InsufficientWindowError("empty patch has no covering radius")
    z_radius = p.core_z if z_radius is None else float(z_radius)
    q_radius = p.core_q if q_radius is None else float(q_radius)
    if min(z_radius, q_radius) < 0:
        raise ValueError("probe radii must be non-negative")
    if z_radius > p.core_z + BOUNDARY_PAD or q_radius > p.core_q + BOUNDARY_PAD:
        raise BoundaryUnsoundError(
            f"probe box ({z_radius:.6g}, {q_radius:.6g}) exceeds the trusted core "
            f"({p.core_z:.6g}, {p.core_q:.6g})"
        )
    flat = g.dim_q == 0 or g.dim_z == 0
    # Mixed case: z probes step h^2 so the gauge offset stays O(h); a
    # square that underflows keeps the smallest step, so a tiny h meets
    # the size cap rather than reading as a zero step.
    hz = h if flat else max(h * h, math.ulp(0.0))
    axes = [_axis(z_radius, hz)] * g.dim_z + [_axis(q_radius, h)] * g.dim_q
    n_probes = _grid_size(axes)
    if not flat:
        check_size("mixed_probes", n_probes * p.n)
    probes = _grid_rows(axes, "probes")
    grid_max = float(_nearest_in_patch(p, probes[:, : g.dim_z], probes[:, g.dim_z :])[1].max())
    if flat:
        slack = h * math.sqrt(g.dim_z or g.dim_q) / 2.0
    else:
        # Probe offsets: q moves h*sqrt(dq)/2, z moves hz*sqrt(dz)/2 plus the
        # commutator drift from recentering at a probe with |q| <= q_radius.
        dz_off = hz * math.sqrt(g.dim_z) / 2.0
        dz_off += g.cocycle.box_drift(q_radius, h * math.sqrt(g.dim_q) / 2.0)
        slack = max(h * math.sqrt(g.dim_q) / 2.0, math.sqrt(dz_off))
    return CoveringReport(
        estimate=grid_max + slack,
        grid_max=grid_max,
        slack=slack,
        h=h,
        z_radius=z_radius,
        q_radius=q_radius,
        n_probes=n_probes,
    )


@dataclass(frozen=True)
class MeyerianReport:
    """Uniform-discreteness record for iterated difference sets."""

    gaps: tuple[float, ...]
    passed: bool
    k_max: int
    threshold: float
    core_z: float
    core_q: float
    counts: tuple[int, ...]


def check_meyerian(p: PointPatch, k_max: int = 3, threshold: float = 1e-6) -> MeyerianReport:
    """Min gaps of D, D^2, ..., D^k_max for D = p^-1 * p, measured on the
    base patch core.

    D^k is kept on the box core + (k_max - k) * window(D), which holds
    every factor of a point of D^k_max on the core, and each product
    D^(k+1) = D^k * D is formed only inside the next step's keep box
    (the core at the last step).
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if p.n < 2:
        raise InsufficientWindowError("need at least two points to form difference sets")
    diff = minkowski(inverse_set(p), p)

    def keep_box(k: int) -> tuple[float, float]:
        return p.core_z + (k_max - k) * diff.window_z, p.core_q + (k_max - k) * diff.window_q

    gaps: list[float] = []
    counts: list[int] = []
    current = diff.restrict(*keep_box(1))
    for k in range(1, k_max + 1):
        measured = current.restrict(z_box=p.core_z, q_box=p.core_q)
        if measured.n < 2:
            raise InsufficientWindowError(
                f"difference set D^{k} has {measured.n} points on the core; "
                f"generate the patch with a larger window"
            )
        gaps.append(min_gap(measured))
        counts.append(measured.n)
        if k < k_max:
            current = minkowski(current, diff, *keep_box(k + 1))
    return MeyerianReport(
        gaps=tuple(gaps),
        passed=all(g >= threshold for g in gaps),
        k_max=k_max,
        threshold=threshold,
        core_z=p.core_z,
        core_q=p.core_q,
        counts=tuple(counts),
    )


@dataclass(frozen=True)
class CoverReport:
    """Certificate that p*p sits inside p*F on the measurement region."""

    translators: PointPatch
    size: int
    max_residual: float
    cluster_radius: float
    n_covered: int


def _nearest_in_patch(
    p: PointPatch, z: np.ndarray, q: np.ndarray, exclude_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Index of the patch point x nearest to each query row y in the
    left-invariant distance gauge(x^-1 y), plus the distances.  With
    exclude_self the queries are the patch rows and row i skips point i."""
    g = p.group
    if not exclude_self and (g.dim_q == 0 or g.dim_z == 0):
        # One block only: the gauge is its Euclidean norm.
        pts, rows = (p.z, z) if g.dim_q == 0 else (p.q, q)
        dist, idx = cKDTree(pts).query(rows)
        return np.atleast_1d(idx), np.atleast_1d(dist)
    m = len(z)
    idx = np.empty(m, dtype=np.int64)
    dist = np.empty(m)
    block = max(1, 2_000_000 // max(p.n, 1))
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        rows = np.arange(i1 - i0)
        dq = q[i0:i1, None, :] - p.q[None, :, :]
        d = g.gauge_rows(z[i0:i1, None, :] - p.z[None, :, :] - g.cocycle.beta(p.q, dq), dq)
        if exclude_self:
            d[rows, rows + i0] = math.inf
        idx[i0:i1] = np.argmin(d, axis=1)
        dist[i0:i1] = d[rows, idx[i0:i1]]
    return idx, dist


def approximate_group_cover(p: PointPatch, cluster_radius: float = 1e-6) -> CoverReport:
    """Finite translator set F with p*p covered by p*F on the base core.

    Requires a symmetric patch containing the identity.  Each product
    point y gets quotient x^-1 y against its nearest patch point x; the
    quotients are clustered at cluster_radius and the representatives
    form F.  The reported residual is the largest snap distance.
    """
    g = p.group
    if not _is_symmetric_with_identity(p):
        raise ValueError("patch must be symmetric and contain the identity")
    prod = minkowski(p, p, p.core_z, p.core_q)
    if prod.n == 0:
        raise InsufficientWindowError("no product points on the core")
    if g.dim_q and g.dim_z:
        check_size("cover_search", prod.n * p.n)
    idx, dist = _nearest_in_patch(p, prod.z, prod.q)
    max_window_gauge = max(p.window_q, math.sqrt(p.window_z * max(p.dim_z, 1)))
    if float(dist.max()) > 2.0 * max_window_gauge:
        raise InsufficientWindowError("a product point is farther than the patch window")
    # Quotients r = x^-1 y, one per product point.
    rq = prod.q - p.q[idx]
    rz = prod.z - p.z[idx] - g.cocycle.beta(p.q[idx], rq)
    order = np.lexsort(
        tuple(rz[:, k] for k in range(g.dim_z - 1, -1, -1))
        + tuple(rq[:, k] for k in range(g.dim_q - 1, -1, -1))
    )
    reps: list[int] = []
    max_residual = 0.0
    for i in order:
        dq = rq[i] - rq[reps]
        dz = rz[i] - rz[reps] - g.cocycle.beta(rq[reps], dq)
        best = float(g.gauge_rows(dz, dq).min(initial=math.inf))
        if best > cluster_radius:
            reps.append(i)
        else:
            max_residual = max(max_residual, best)
    fz, fq = rz[reps], rq[reps]
    translators = make_patch(
        group=g,
        z=fz,
        q=fq,
        window_z=float(np.abs(fz).max()) if fz.size else 0.0,
        window_q=float(np.abs(fq).max()) if fq.size else 0.0,
        core_z=0.0,
        core_q=0.0,
        provenance=f"cover({_short(p.provenance)})",
    )
    return CoverReport(
        translators=translators,
        size=translators.n,
        max_residual=max_residual,
        cluster_radius=cluster_radius,
        n_covered=prod.n,
    )


def patch_density(p: PointPatch) -> float:
    """Points per unit volume counted on the core box."""
    vol = 1.0
    if p.dim_z:
        if p.core_z <= 0:
            raise InsufficientWindowError("core box has no z volume")
        vol *= (2.0 * p.core_z) ** p.dim_z
    if p.dim_q:
        if p.core_q <= 0:
            raise InsufficientWindowError("core box has no q volume")
        vol *= (2.0 * p.core_q) ** p.dim_q
    return float(np.count_nonzero(p.core_mask())) / vol
