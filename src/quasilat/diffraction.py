"""Finite-volume autocorrelation and central diffraction.

The autocorrelation of a patch accumulates the differences x^-1 y with
x running over a gauge ball and gauge(x^-1 y) capped at a range cutoff;
atoms are keyed by exact coordinates whenever the patch carries them,
so one Bragg atom never splits under float fuzz.  The central slice
(atoms over q = 0) is a positive-definite measure on the z block, and
its Wiener average against a character estimates the diffraction atom
at that frequency, which Palm coefficients must reproduce.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cutproject import fiber as extract_fiber
from .errors import CORE_PAD, DegenerateDensityError, InsufficientWindowError, check_core, check_radius
from .group import ball_volume, gauge_ball_volume
from .pointset import (
    BALL_PAD, QUANT, SEARCH_PAD, ExactCoords, PointPatch, group_rows,
    _SEARCH_BLOCK, _as_block, _dense_span, _expand_ranges, _fiber_index, _interleave, _mixed_radix, _pair_pieces,
    _quant_keys, _sum_radix, _trapezoid, _unpack,
)
from .spectral import (
    Character,
    SampledFunction,
    _check_palm_radii,
    _frequency_grid,
    _max_gap,
    palm_profile,
    twisted_density,
)


@dataclass(frozen=True)
class WeightedPointMeasure:
    """Finitely many weighted atoms in R^dim_z x R^dim_q."""

    dim_z: int
    dim_q: int
    z: np.ndarray
    q: np.ndarray
    weights: np.ndarray
    range_: float
    normalization: float
    exact: Optional[ExactCoords] = None

    def __post_init__(self) -> None:
        z = _as_block(self.z, self.dim_z)
        q = _as_block(self.q, self.dim_q)
        w = np.ascontiguousarray(self.weights, dtype=float).reshape(len(z))
        for arr in (z, q, w):
            arr.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "weights", w)
        if len(q) != len(z):
            raise ValueError("z and q atom blocks disagree")
        if self.exact is not None and self.exact.n != len(z):
            raise ValueError("exact keys disagree with atom count")

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def weight_at(self, z: Sequence[float], q: Sequence[float] = ()) -> float:
        zq = np.asarray(z, dtype=float).reshape(self.dim_z)
        qq = np.asarray(q, dtype=float).reshape(self.dim_q)
        mask = np.all(np.abs(self.z - zq[None, :]) <= QUANT, axis=1)
        if self.dim_q:
            mask &= np.all(np.abs(self.q - qq[None, :]) <= QUANT, axis=1)
        idx = np.flatnonzero(mask)
        return float(self.weights[idx].sum()) if len(idx) else 0.0


_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so multiplying by it permutes uint64


def _aggregate_keys(
    cols: Sequence[np.ndarray], counts: Optional[np.ndarray] = None, radix: Optional[tuple] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sum counts (one per row when omitted) over equal rows of the integer
    key columns; returns (unique rows in lexicographic order, summed counts).
    radix is (packed, lows, spans) when the caller has packed the columns.
    Packed keys are counted in a table when _dense_span accepts their
    span, and sorted otherwise."""
    radix = radix or _mixed_radix(cols)
    if radix is None:
        keys = np.column_stack(cols)
        order, starts = group_rows(keys)
        counts = np.ones(len(keys), dtype=np.int64) if counts is None else counts
        return keys[order[starts]], np.add.reduceat(counts[order], starts)
    packed, lo, spans = radix
    # The table spans the keys present, which a piece of pairs keeps narrow.
    dense = _dense_span(packed)
    if dense is not None:
        first, span = dense
        # Every count is positive, so the keys present are the nonzero bins.
        summed = np.bincount(packed - first, counts, span)
        packed = np.flatnonzero(summed)
        summed = summed[packed]
        packed += first
    elif counts is None:
        # np.unique needs no stable order, so it sorts the packed keys faster still.
        packed, summed = np.unique(packed, return_counts=True)
    else:
        packed, inverse = np.unique(packed, return_inverse=True)
        summed = np.bincount(inverse, weights=counts, minlength=len(packed))
    return _unpack(packed, lo, spans), summed.astype(np.int64)


def _norm(cols: Sequence[np.ndarray]) -> np.ndarray:
    """Euclidean norm of rows given as one array per coordinate; for one
    coordinate the square root of its square is its abs exactly."""
    return np.abs(cols[0]) if len(cols) == 1 else np.sqrt(sum(c * c for c in cols))


def _run_classes(starts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Class id per run of the integer rows, run r being rows[starts[r]:
    starts[r + 1]]: the first run of equal hash when the two hold equal
    rows in the same order, else r.  So runs share an id only when equal."""
    runs = np.arange(len(starts))
    sizes = np.diff(np.append(starts, len(rows)))
    # An odd multiplier per column and a xorshift-multiply mix, wrapping in uint64.
    h = rows.view(np.uint64) @ (np.arange(1, 2 * rows.shape[1], 2, dtype=np.uint64) * _MIX)
    _, first, inverse = np.unique(np.bitwise_xor.reduceat((h ^ (h >> np.uint64(31))) * _MIX, starts),
                                  return_index=True, return_inverse=True)
    lead = first[inverse]
    same = sizes == sizes[lead]
    cand = np.flatnonzero(same & (lead != runs))
    run, pos = _expand_ranges(starts[cand], starts[cand] + sizes[cand])
    same[cand[run[np.any(rows[pos] != rows[pos + (starts[lead] - starts)[cand][run]], axis=1)]]] = False
    return np.where(same, lead, runs)


def _window_autocorrelation(P: PointPatch, T: float, range_: float) -> WeightedPointMeasure:
    """Autocorrelation of a flat or mixed patch, any central dimension.

    Rows are grouped into fibers by q-key and sorted by z_0 inside each;
    a flat patch is one fiber.  The pairs of an x-fiber i (its rows in
    the ball) with a fiber j within range depend only on the x-class of
    i, the y-class of j (equal z bits and exact keys, row by row) and the
    shift beta(delta_i, delta_j), as float bits and exact value.  So one
    representative per (x-class, y-class, shift) forms its pairs, by one
    sorted-window search on z_0 over all of them, each window trimmed to
    the run with |dz_0| within range (dim_z >= 2 then filters by the norm
    of the whole z block).  They are counted by (representative, z-key),
    a piece of about _PAIR_CHUNK pairs at a time, with exact keys packed
    into one int64 unless their spans pass 2**62.  Every (i, j) then
    takes its representative's counts under its own q-key.
    """
    g = P.group
    n, dim_z = P.n, P.dim_z
    vol = gauge_ball_volume(dim_z, P.dim_q, T)
    # The gauge is |z| on a flat patch and max(|q|, sqrt|z|) on a mixed one.
    t_z, w = (T, range_) if P.dim_q == 0 else (T * T, range_ * range_)
    order, starts, window_edge = _fiber_index(P.q_key_matrix, P.z[:, 0])
    zs = [P.z[order, k] for k in range(dim_z)]
    heads = order[starts]
    deltas = P.q[heads]
    # The x rows, fiber by fiber: the rows in the ball of the fibers over it.
    in_ball = np.repeat(np.sqrt(np.sum(deltas * deltas, axis=1)) <= T + BALL_PAD, np.diff(np.append(starts, n)))
    in_ball &= _norm(zs) <= t_z + BALL_PAD
    xs = np.flatnonzero(in_ball)
    x_sizes = np.add.reduceat(in_ball.astype(np.int64), starts)
    x_first = np.cumsum(x_sizes) - x_sizes
    fx = np.flatnonzero(x_sizes)
    x_class, y_class = np.zeros(len(starts), dtype=np.int64), np.zeros(len(starts), dtype=np.int64)
    exact_mode = P.exact is not None and g.cocycle.is_integral
    if exact_mode:
        # One (a, b) pair per z coordinate, in the ExactCoords.key_matrix layout.
        zk = _interleave(P.exact.za, P.exact.zb)[order]
        zk0 = np.column_stack([np.zeros(n, dtype=np.int64), zk])
        qa, qb = P.exact.qa[heads], P.exact.qb[heads]
    # A flat patch is one fiber: one class, one combination, no fan-out.
    one = len(starts) == 1
    if not one:
        z_rows = np.hstack([P.z[order].view(np.int64)] + ([zk] if exact_mode else []))
        x_class[fx], y_class = _run_classes(x_first[fx], z_rows[xs]), _run_classes(starts, z_rows)
    width = 2 * (dim_z + P.dim_q) if exact_mode else dim_z + P.dim_q
    all_keys, all_counts = [np.zeros((0, width), dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    # Blocks of x-fibers, so no array reaches (x-fibers) * (fibers) at once.
    block = max(1, _SEARCH_BLOCK // len(starts))
    for i0 in range(0, len(fx), block):
        # Every (x-fiber, neighbour) combination (fi, cj) of the block.
        dq = deltas[None, :] - deltas[fx[i0 : i0 + block], None]
        fi, cj = np.nonzero(np.sqrt(np.sum(dq * dq, axis=2)) <= range_ + BALL_PAD)
        fi = fx[i0 + fi]
        beta = np.ascontiguousarray(g.cocycle.beta(deltas[fi], deltas[cj]))
        if exact_mode:
            shift = _interleave(*g.cocycle.beta_exact(qa[fi], qb[fi], qa[cj], qb[cj], P.exact.d))
            q_keys = P.q_key_matrix[heads[cj]] - P.q_key_matrix[heads[fi]]
        else:
            shift, q_keys = np.zeros((len(fi), 0), dtype=np.int64), _quant_keys(deltas[cj] - deltas[fi])
        # Combinations sorted by key (combo_order); the first of each run is the representative.
        combo_order, firsts = (np.zeros(1, dtype=np.int64),) * 2 if one else group_rows(
            np.column_stack([x_class[fi], y_class[cj], *beta.view(np.int64).T, *shift.T]))
        rep = combo_order[firsts]
        rep_x, rep_y, beta, shift = fi[rep], cj[rep], beta[rep], shift[rep]
        # A pair's key (slot, dz) is the sum of (0, zk[y]), (0, -zk[x]) and (slot, -shift[slot]).
        offsets = np.column_stack([np.arange(len(rep)), -shift])
        radix = _sum_radix(zk0, -zk0, offsets.min(0), offsets.max(0)) if exact_mode else None
        if radix is not None:
            pt, pt_x, offset, lows, spans = radix
        # One query per (representative, x row): its slot in rep and the x row src in zs.
        slot, xi = _expand_ranges(x_first[rep_x], x_first[rep_x] + x_sizes[rep_x])
        src = xs[xi]
        c = beta[slot]
        z0 = zs[0][src] + c[:, 0]
        lo = window_edge(rep_y[slot], z0 - w - SEARCH_PAD, "left")
        hi = window_edge(rep_y[slot], z0 + w + SEARCH_PAD, "right")
        # Step both ends of every window inwards past the pairs whose dz_0,
        # formed as below, is out of range: only points in the pad band.
        for end, off, step in ((lo, 0, 1), (hi, -1, -1)):
            act = np.flatnonzero(lo < hi)
            while len(act):
                act = act[~(np.abs(zs[0][end[act] + off] - zs[0][src[act]] - c[act, 0]) <= w + BALL_PAD)]
                end[act] += step
                act = act[lo[act] < hi[act]]
        if radix is not None:
            qo = offset(offsets)[slot] + pt_x[src]
        elif exact_mode:
            x_exact = zk[src] + shift[slot]
        hist, hist_counts = [], []
        for s, e in _pair_pieces(hi - lo):
            rows, cols = _expand_ranges(lo[s:e], hi[s:e])
            rows += s
            if dim_z > 1 or not exact_mode:
                dz = [zc[cols] - zc[src[rows]] - c[rows, k] for k, zc in enumerate(zs)]
            if dim_z > 1:
                keep = _norm(dz) <= w + BALL_PAD
                rows, cols, dz = rows[keep], cols[keep], [dk[keep] for dk in dz]
            if radix is not None:
                uniq, cnt = _aggregate_keys((), radix=(qo[rows] + pt[cols], lows, spans))
            elif exact_mode:
                uniq, cnt = _aggregate_keys([slot[rows], *(zk[cols] - x_exact[rows]).T])
            else:
                uniq, cnt = _aggregate_keys([slot[rows], *map(_quant_keys, dz)])
            hist.append(uniq)
            hist_counts.append(cnt)
        if not hist:
            continue
        # Queries, and so pieces, run slot by slot: each slot's (slot, z-key)
        # counts are one run of hist, which every combination of its key takes.
        hist, hist_counts = np.concatenate(hist), np.concatenate(hist_counts)
        if one:
            all_keys.append(np.column_stack([hist[:, 1:], np.repeat(q_keys, len(hist), axis=0)]))
            all_counts.append(hist_counts)
            continue
        bounds = np.searchsorted(hist[:, 0], np.arange(len(rep) + 1))
        combo_slot = np.repeat(np.arange(len(rep)), np.diff(np.append(firsts, len(fi))))
        combo, h = _expand_ranges(bounds[combo_slot], bounds[combo_slot + 1])
        combo = combo_order[combo]
        uniq, cnt = _aggregate_keys([*(k[h] for k in hist[:, 1:].T), *(k[combo] for k in q_keys.T)], hist_counts[h])
        all_keys.append(uniq)
        all_counts.append(cnt)
    keys, counts = _aggregate_keys(list(np.concatenate(all_keys).T), np.concatenate(all_counts))
    if exact_mode:
        exact = ExactCoords.from_key_matrix(keys, dim_z, P.exact.d)
        z_atoms, q_atoms = exact.embed_z(), exact.embed_q()
    else:
        exact = None
        z_atoms, q_atoms = keys[:, :dim_z] * QUANT, keys[:, dim_z:] * QUANT
    return WeightedPointMeasure(
        dim_z=dim_z, dim_q=P.dim_q, z=z_atoms, q=q_atoms,
        weights=counts / vol, range_=range_, normalization=vol, exact=exact,
    )


def autocorrelation(P: PointPatch, T: float, range_: float) -> WeightedPointMeasure:
    """eta_T = (1/vol(B_T)) sum_{x in P, gauge(x) <= T}
                sum_{y in P, gauge(x^-1 y) <= range} delta_{x^-1 y}.

    B_T is the gauge ball of the group.  The patch core must support
    every y reachable from the ball within the range cutoff.
    """
    if P.n == 0:
        raise InsufficientWindowError("empty patch")
    T = float(T)
    range_ = float(range_)
    check_radius("T", T)
    check_radius("range", range_)
    if P.dim_z == 0:
        raise ValueError("autocorrelation needs a central coordinate")
    if P.dim_q == 0:
        check_core("T + range", T + range_, P.core_z)
    else:
        check_core("T + range in q", T + range_, P.core_q)
        drift = P.group.cocycle.drift_bound
        check_core("T^2 + range^2 + drift T range in z", T * T + range_ * range_ + drift * T * range_, P.core_z)
    return _window_autocorrelation(P, T, range_)


def central_autocorrelation(eta: WeightedPointMeasure) -> WeightedPointMeasure:
    """Atoms of eta sitting over q = 0, as a measure on the z block."""
    if eta.dim_q == 0:
        return eta
    if eta.exact is not None:
        mask = np.all(eta.exact.qa == 0, axis=1) & np.all(eta.exact.qb == 0, axis=1)
    else:
        mask = np.all(np.abs(eta.q) <= QUANT, axis=1)
    idx = np.flatnonzero(mask)
    e = eta.exact.take(idx) if eta.exact is not None else None
    exact = ExactCoords(za=e.za, zb=e.zb, d=e.d) if e is not None else None
    return WeightedPointMeasure(
        dim_z=eta.dim_z,
        dim_q=0,
        z=eta.z[idx],
        q=np.zeros((len(idx), 0)),
        weights=eta.weights[idx],
        range_=eta.range_,
        normalization=eta.normalization,
        exact=exact,
    )


def diffraction_atom(eta_e: WeightedPointMeasure, xi: Character, T: float) -> float:
    """Wiener average (1/vol(B_T)) Re sum_z c_eta(z) conj(xi(z)) of the
    central autocorrelation, estimating the diffraction atom at xi."""
    if eta_e.dim_q != 0:
        raise ValueError("expected a central (q = 0) measure")
    check_radius("T", T)
    if eta_e.n_atoms == 0:
        return 0.0
    norms = np.sqrt(np.sum(eta_e.z * eta_e.z, axis=1))
    if not float(norms.max()) <= T + CORE_PAD:
        raise InsufficientWindowError(
            f"support reaches {norms.max():.6g}, beyond the Wiener radius {T:.6g}"
        )
    phases = xi.conj_values(eta_e.z)
    total = np.sum(eta_e.weights * phases)
    return float(total.real) / ball_volume(eta_e.dim_z, T)


@dataclass(frozen=True)
class BraggReport:
    thetas: np.ndarray
    c_values: np.ndarray
    peak_mask: np.ndarray
    c_1: float
    max_gap: float
    eps: float
    K: float
    h: float
    S: float
    T: float

    @property
    def peaks(self) -> np.ndarray:
        return self.thetas[self.peak_mask]


def bragg_scan(
    P: PointPatch,
    eps: float,
    K: float,
    h: float,
    S: float,
    T: float,
) -> BraggReport:
    """Scan c_xi over the frequency grid and keep theta with
    c_xi >= (1 - eps) * c_1."""
    if not (0 < eps < 1 and K >= 0):
        raise ValueError(f"need 0 < eps < 1 and K >= 0, got eps={eps!r}, K={K!r}")
    _check_palm_radii(P, S, T)  # before the grid exists
    grid = _frequency_grid(K, h, P.dim_z)
    c_values = palm_profile(P, grid, S, T)
    c1 = float(c_values[len(grid) // 2])  # the grid is symmetric, with theta = 0 in the middle
    if c1 < 1e-9:
        raise DegenerateDensityError(f"c_1 = {c1:.3g} is below 1e-9")
    mask = c_values >= (1.0 - eps) * c1
    return BraggReport(
        thetas=grid,
        c_values=c_values,
        peak_mask=mask,
        c_1=c1,
        max_gap=_max_gap(grid[mask], grid),
        eps=float(eps),
        K=float(K),
        h=float(h),
        S=float(S),
        T=float(T),
    )


@dataclass(frozen=True)
class ConsistencyReport:
    lhs: complex
    rhs: complex
    residual: float
    warning: Optional[str]


def projection_consistency(
    P: PointPatch,
    psi_grid: np.ndarray,
    psi_values: np.ndarray,
    phi: SampledFunction,
    xi: Character,
    T: float,
    h_z: float,
) -> ConsistencyReport:
    """Compare the quadrature projection
    (1/vol(F_T)) int_{F_T} conj(xi(z)) * sum_x psi(z_x - z) phi(q_x) dz
    against the closed form D_xi(identity fiber) * f_xi * sum phi(delta).
    """
    if P.dim_z != 1:
        raise NotImplementedError("consistency check implemented for one central dimension")
    psi_grid = np.asarray(psi_grid, dtype=float).reshape(-1)
    psi_values = np.asarray(psi_values, dtype=float).reshape(-1)
    if len(psi_grid) < 2 or len(psi_grid) != len(psi_values):
        raise ValueError("psi needs at least two samples on a uniform grid")
    spacing = float(psi_grid[1] - psi_grid[0])
    if not np.allclose(np.diff(psi_grid), spacing, rtol=0, atol=1e-12):
        raise ValueError("psi grid must be uniform")
    nodes, node_w, _ = _trapezoid(T, h_z)
    warning = None
    if h_z > spacing + 1e-15:
        warning = (
            f"quadrature step {h_z:.3g} is coarser than the psi sampling "
            f"{spacing:.3g}; the projection integral may under-resolve psi"
        )
    # Select the columns where phi is nonzero.
    if P.dim_q:
        phi_at_points = phi.lookup(P.q)
    else:
        phi_at_points = np.ones(P.n, dtype=complex)
    live = np.flatnonzero(phi_at_points != 0)
    lhs = 0.0 + 0.0j
    if len(live):
        zx = P.z[live, 0]
        amp = phi_at_points[live]
        block = max(1, 10_000_000 // max(len(live), 1))
        acc = np.zeros(len(nodes), dtype=complex)
        for i0 in range(0, len(nodes), block):
            chunk = nodes[i0 : i0 + block]
            args = zx[:, None] - chunk[None, :]
            vals = np.interp(args.ravel(), psi_grid, psi_values, left=0.0, right=0.0).reshape(args.shape)
            acc[i0 : i0 + block] = amp @ vals
        conj_phase = np.exp(-2j * math.pi * xi.theta[0] * nodes)
        lhs = complex(np.sum(node_w * conj_phase * acc)) / (2 * T)
    # Closed form.
    dens = twisted_density(extract_fiber(P, np.zeros(P.dim_q)), xi, [T], core=P.core_z)
    f_xi = complex(
        np.sum(psi_values * np.exp(2j * math.pi * xi.theta[0] * psi_grid)) * spacing
    )
    if P.dim_q:
        order, starts = group_rows(P.q_key_matrix)
        phi_sum = complex(np.sum(phi.lookup(P.q[order[starts]])))
    else:
        phi_sum = 1.0 + 0.0j
    rhs = dens.value * f_xi * phi_sum
    return ConsistencyReport(
        lhs=lhs,
        rhs=rhs,
        residual=abs(lhs - rhs),
        warning=warning,
    )
