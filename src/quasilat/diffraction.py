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

from .cutproject import MATCH_TOL
from .cutproject import fiber as extract_fiber
from .errors import DegenerateDensityError, InsufficientWindowError, WindowShortfallError
from .group import ball_volume, gauge_ball_volume
from .pointset import (
    BALL_PAD, CORE_PAD, QUANT, SEARCH_PAD, ExactCoords, PointPatch,
    _as_block, _expand_ranges, _fiber_index, _mixed_radix, _pair_pieces, _quant_keys, group_rows,
)
from .spectral import (
    Character,
    SampledFunction,
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

    def weight_at(self, z: Sequence[float], q: Sequence[float] = (), tol: float = MATCH_TOL) -> float:
        zq = np.asarray(z, dtype=float).reshape(self.dim_z)
        qq = np.asarray(q, dtype=float).reshape(self.dim_q)
        mask = np.all(np.abs(self.z - zq[None, :]) <= tol, axis=1)
        if self.dim_q:
            mask &= np.all(np.abs(self.q - qq[None, :]) <= tol, axis=1)
        idx = np.flatnonzero(mask)
        return float(self.weights[idx].sum()) if len(idx) else 0.0


def _aggregate_keys(
    cols: Sequence[np.ndarray], counts: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sum counts (one per row when omitted) over equal rows of the integer
    key columns; returns (unique rows in lexicographic order, summed counts)."""
    radix = _mixed_radix(cols)
    if radix is None:
        keys = np.column_stack(cols)
        order, starts = group_rows(keys)
        counts = np.ones(len(keys), dtype=np.int64) if counts is None else counts
        return keys[order[starts]], np.add.reduceat(counts[order], starts)
    # np.unique needs no stable order, so it sorts the packed keys faster still.
    packed, lo, spans = radix
    if counts is None:
        packed, summed = np.unique(packed, return_counts=True)
    else:
        packed, inverse = np.unique(packed, return_inverse=True)
        summed = np.bincount(inverse, weights=counts, minlength=len(packed))
    uniq = np.empty((len(packed), len(cols)), dtype=np.int64)
    for k in range(len(cols) - 1, -1, -1):
        packed, uniq[:, k] = np.divmod(packed, spans[k])
    return uniq + np.array(lo, dtype=np.int64), summed.astype(np.int64)


def _norm(cols: Sequence[np.ndarray]) -> np.ndarray:
    """Euclidean norm of rows given as one array per coordinate; for one
    coordinate the square root of its square is its abs exactly."""
    return np.abs(cols[0]) if len(cols) == 1 else np.sqrt(sum(c * c for c in cols))


def _window_autocorrelation(P: PointPatch, T: float, range_: float) -> WeightedPointMeasure:
    """Autocorrelation of a flat or mixed patch, any central dimension.

    Rows are grouped into fibers by q-key and sorted by z_0 inside each;
    a flat patch is one fiber.  Each x-fiber i pairs with every fiber j
    whose delta lies within range, through one sorted-window search on
    the first central coordinate around z_x + beta(delta_i, delta_j) over
    all of them at once (|dz_0| <= |dz|, so the window drops no pair).
    Pairs are kept by the norm of the whole z block and counted by
    (neighbour, z-key), a piece of about _PAIR_CHUNK pairs at a time,
    before the q-keys are attached, so memory stays per piece.
    """
    g = P.group
    n, dim_z = P.n, P.dim_z
    vol = gauge_ball_volume(dim_z, P.dim_q, T)
    # The gauge is |z| on a flat patch and max(|q|, sqrt|z|) on a mixed one.
    t_z, w = (T, range_) if P.dim_q == 0 else (T * T, range_ * range_)
    order, starts, window_edge = _fiber_index(P.q_key_matrix, P.z[:, 0])
    bounds = np.append(starts, n)
    zs = [P.z[order, k] for k in range(dim_z)]
    x_norms = _norm(zs)
    heads = order[starts]
    deltas = P.q[heads]
    exact_mode = P.exact is not None and g.cocycle.is_integral
    if exact_mode:
        # One (a, b) pair per z coordinate, in the ExactCoords.key_matrix layout.
        z_exact = [v[order, k] for k in range(dim_z) for v in (P.exact.za, P.exact.zb)]
        head_qa, head_qb = P.exact.qa[heads], P.exact.qb[heads]
        head_keys = P.q_key_matrix[heads]
    width = 2 * (dim_z + P.dim_q) if exact_mode else dim_z + P.dim_q
    all_keys = [np.zeros((0, width), dtype=np.int64)]
    all_counts = [np.zeros(0, dtype=np.int64)]
    for fi in np.flatnonzero(np.sqrt(np.sum(deltas * deltas, axis=1)) <= T + BALL_PAD):
        xs = np.arange(bounds[fi], bounds[fi + 1])
        xs = xs[x_norms[xs] <= t_z + BALL_PAD]
        dq = deltas - deltas[fi]
        nb = np.flatnonzero(np.sqrt(np.sum(dq * dq, axis=1)) <= range_ + BALL_PAD)
        # One query per (neighbour fiber, x point): the neighbour's slot in
        # nb and the x row src in zs.  Neighbour-major, so a piece of pairs
        # spans few neighbours and pieces share few (neighbour, z) keys.
        slot = np.repeat(np.arange(len(nb)), len(xs))
        src = np.tile(xs, len(nb))
        c = g.cocycle.beta(deltas[fi], deltas[nb])[slot]
        z0 = zs[0][src] + c[:, 0]
        lo = window_edge(nb[slot], z0 - w - SEARCH_PAD, "left")
        hi = window_edge(nb[slot], z0 + w + SEARCH_PAD, "right")
        if exact_mode:
            ca, cb = g.cocycle.beta_exact(head_qa[fi], head_qb[fi], head_qa[nb], head_qb[nb], P.exact.d)
            shift = [cv[slot, k] for k in range(dim_z) for cv in (ca, cb)]
            x_exact = [v[src] + sh for v, sh in zip(z_exact, shift)]
            q_keys = head_keys[nb] - head_keys[fi]
        else:
            q_keys = _quant_keys(dq[nb])
        for s, e in _pair_pieces(hi - lo):
            rows, cols = _expand_ranges(lo[s:e], hi[s:e])
            rows += s
            dz = [zk[cols] - zk[src[rows]] - c[rows, k] for k, zk in enumerate(zs)]
            keep = _norm(dz) <= w + BALL_PAD
            rows, cols = rows[keep], cols[keep]
            if exact_mode:
                z_keys = [v[cols] - x[rows] for v, x in zip(z_exact, x_exact)]
            else:
                z_keys = [_quant_keys(dk[keep]) for dk in dz]
            uniq, cnt = _aggregate_keys([slot[rows], *z_keys])
            all_keys.append(np.column_stack([uniq[:, 1:], q_keys[uniq[:, 0]]]))
            all_counts.append(cnt)
    keys, counts = _aggregate_keys(list(np.concatenate(all_keys).T), np.concatenate(all_counts))
    if exact_mode:
        m = 2 * dim_z
        exact = ExactCoords(za=keys[:, 0:m:2], zb=keys[:, 1:m:2], qa=keys[:, m::2], qb=keys[:, m + 1::2], d=P.exact.d)
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
    if T <= 0 or range_ <= 0:
        raise ValueError("T and range must be positive")
    if P.dim_z == 0:
        raise ValueError("autocorrelation needs a central coordinate")
    if P.dim_q == 0:
        need = T + range_
        if P.core_z + CORE_PAD < need:
            raise WindowShortfallError(
                f"averaging to T={T:.6g} with range {range_:.6g} needs core "
                f"{need:.6g}, patch has {P.core_z:.6g}"
            )
    else:
        drift = P.group.cocycle.drift_bound
        need_q = T + range_
        need_z = T * T + range_ * range_ + drift * T * range_
        if P.core_q + CORE_PAD < need_q or P.core_z + CORE_PAD < need_z:
            raise WindowShortfallError(
                f"averaging to T={T:.6g} with range {range_:.6g} needs cores "
                f"(z={need_z:.6g}, q={need_q:.6g}), patch has "
                f"(z={P.core_z:.6g}, q={P.core_q:.6g})"
            )
    return _window_autocorrelation(P, T, range_)


def central_autocorrelation(eta: WeightedPointMeasure) -> WeightedPointMeasure:
    """Atoms of eta sitting over q = 0, as a measure on the z block."""
    if eta.dim_q == 0:
        return eta
    if eta.exact is not None:
        mask = np.all(eta.exact.qa == 0, axis=1) & np.all(eta.exact.qb == 0, axis=1)
    else:
        mask = np.all(np.abs(eta.q) <= MATCH_TOL, axis=1)
    idx = np.flatnonzero(mask)
    exact = None
    if eta.exact is not None:
        e = eta.exact.take(idx)
        exact = ExactCoords(
            za=e.za, zb=e.zb,
            qa=np.zeros((len(idx), 0), dtype=np.int64),
            qb=np.zeros((len(idx), 0), dtype=np.int64),
            d=e.d,
        )
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
    if eta_e.n_atoms == 0:
        return 0.0
    norms = np.sqrt(np.sum(eta_e.z * eta_e.z, axis=1))
    if float(norms.max()) > T + CORE_PAD:
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
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    m = P.dim_z
    grid = _frequency_grid(K, h, m)
    c1 = float(palm_profile(P, np.zeros((1, m)), S, T)[0])
    if c1 < 1e-9:
        raise DegenerateDensityError(f"c_1 = {c1:.3g} is below 1e-9")
    c_values = palm_profile(P, grid, S, T)
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
    n_steps = int(round(2 * T / h_z))
    step = 2 * T / n_steps
    nodes = -T + step * np.arange(n_steps + 1)
    node_w = np.full(len(nodes), step)
    node_w[0] *= 0.5
    node_w[-1] *= 0.5
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
