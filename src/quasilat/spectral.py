"""Twisted densities along Folner balls and their Palm averages.

The basic object is the approximant

    D_xi(fiber, T) = (1/vol(B_T)) * sum_{z in fiber, |z| <= T} conj(xi(z))

over Euclidean balls in the central block.  Palm coefficients average
|D_xi|^2 over the projected points in a q-ball; for split lattices the
twisted periodization operator is evaluated directly from its closed
form.  All summation runs in sorted order (by |z|, then lexicographic)
so repeated runs produce identical bits.  Phases are formed in blocks of
about 32,768 (point, theta) entries, 512 KB, which stay in cache.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .cutproject import fiber as extract_fiber
from .cutproject import project
from .errors import check_core, check_radius, check_size
from .group import Cocycle, GroupElement, ball_volume
from .pointset import BALL_PAD, PointPatch, _axis, _find_rows, _flat_patch, _grid_rows, _nearest_distance
from .pointset import _quant_keys, _trapezoid, group_rows, translate

CONVERGENCE_ABS = 1e-3
CONVERGENCE_REL = 0.05
_PHASE_BLOCK = 32_768  # (point, theta) entries formed at once


def _theta_block(n_points: int) -> int:
    """Thetas per block: about _PHASE_BLOCK entries, and at least 20."""
    return max(20, _PHASE_BLOCK // max(n_points, 1))


def _fold(z: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(distinct |z| column, each row's index in it, sign-bit rows) when dim_z = 1;
    None otherwise, as BLAS sums <z, theta> in a shape-dependent order."""
    if z.shape[1] != 1:
        return None
    mags, inv = np.unique(np.abs(z[:, 0]), return_inverse=True)
    return mags.reshape(-1, 1), inv.reshape(-1), np.signbit(z)


def _phase_columns(z: np.ndarray, thetas: np.ndarray, fold: Optional[tuple], twin: bool = True) -> np.ndarray:
    """exp(-2 pi i <z, theta>), one column per theta row.  numpy sums a
    lone column pairwise but several columns row by row, so a lone theta
    gets a twin column: every theta is then summed in the same order.
    Callers that only cumsum pass twin=False: BLAS forms one column of
    z @ theta in another order than two when dim_z >= 2.

    With fold = _fold(z), exp runs on the distinct |z| only: (-z) * theta
    is -(z * theta) exactly and exp of a negated argument is the exact
    conjugate, so 0 - imag at the sign-bit rows gives the unfolded bits;
    @ makes every zero product +0, and 0 - (+0) keeps it +0."""
    th = np.repeat(thetas, 1 + (twin and len(thetas) == 1), axis=0).T
    if fold is None:
        return np.exp(-2j * math.pi * (z @ th))
    mags, inv, neg = fold
    out = np.exp(-2j * math.pi * (mags @ th))[inv]
    np.subtract(0.0, out.imag, out=out.imag, where=neg)
    return out


@dataclass(frozen=True)
class Character:
    """xi_theta(z) = exp(2 pi i <theta, z>) on the central block."""

    theta: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))

    def value(self, z: Sequence[float]) -> complex:
        return cmath.exp(2j * math.pi * float(np.dot(self.theta, z)))

    def conj_values(self, z: np.ndarray) -> np.ndarray:
        """conj(xi(z)) for an (n, dim) array of z rows."""
        phase = z @ np.asarray(self.theta)
        return np.exp(-2j * math.pi * phase)


def character(*theta: float) -> Character:
    return Character(theta=tuple(theta))


def default_schedule(T_max: float, ratio: float = 1.3) -> tuple[float, ...]:
    """Geometric T-schedule ending exactly at T_max: T_max / ratio**k for
    every k with T_max / ratio**k >= 1, and T_max alone when T_max < 1."""
    check_radius("T_max", T_max)
    if not 1 < ratio < math.inf:
        raise ValueError(f"ratio must exceed 1 and be finite, got ratio={ratio!r}")
    check_size("schedule", max(0, math.floor(math.log(T_max) / math.log(ratio))) + 1)
    out = [float(T_max)]
    while out[-1] / ratio >= 1.0:
        out.append(out[-1] / ratio)
    return tuple(reversed(out))


@dataclass(frozen=True)
class DensityEstimate:
    value: complex
    T_final: float
    partials: tuple[tuple[float, complex], ...]
    cauchy_tail: float
    converged: bool
    n_points: int


def _as_rows(fiber: Union[np.ndarray, Sequence]) -> np.ndarray:
    arr = np.asarray(fiber, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError("fiber must be a sequence of z-vectors")
    return arr


def twisted_density(
    fiber: Union[np.ndarray, Sequence],
    xi: Character,
    T_schedule: Sequence[float],
    core: Optional[float] = None,
) -> DensityEstimate:
    """Ball-averaged twisted sums of the fiber at each T of the schedule.

    The caller vouches for the fiber through `core`: the largest radius
    on which the fiber is complete.  Defaults to the largest point norm,
    which is only safe when the fiber was cut to exactly that ball.
    """
    return _twisted_densities(fiber, np.array([xi.theta]), T_schedule, core)[0]


def _twisted_densities(
    fiber: Union[np.ndarray, Sequence],
    thetas: np.ndarray,
    T_schedule: Sequence[float],
    core: Optional[float],
) -> list[DensityEstimate]:
    """twisted_density for every row of thetas, sorting the fiber once:
    the phases are summed along the sorted rows and cut at the schedule."""
    z = _as_rows(fiber)
    schedule = [float(t) for t in T_schedule]
    if not schedule or not all(b > a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("T_schedule must be nonempty and strictly increasing")
    check_radius("T", schedule[0])
    check_radius("T", schedule[-1])
    norms = np.sqrt(np.sum(z * z, axis=1))
    if core is None:
        core = float(norms.max()) if len(norms) else 0.0
    check_core("T", schedule[-1], core)
    m = z.shape[1]
    order = np.lexsort(tuple(z[:, k] for k in range(m - 1, -1, -1)) + (norms,))
    cuts = np.searchsorted(norms[order], np.array(schedule) + BALL_PAD, side="right")
    z_sorted = z[order[: cuts[-1]]]  # rows past the last cut never reach a sum
    vols = [ball_volume(m, T) for T in schedule]
    start = min((3 * len(schedule)) // 4, len(schedule) - 1)
    out = []
    block, fold = _theta_block(len(z_sorted)), _fold(z_sorted)
    for b0 in range(0, len(thetas), block):
        phases = _phase_columns(z_sorted, thetas[b0 : b0 + block], fold, twin=False)
        sums = np.concatenate([np.zeros((1, phases.shape[1])), np.cumsum(phases, axis=0)])[cuts]
        for col in sums.T:
            partials = tuple((T, complex(total) / vol) for T, total, vol in zip(schedule, col, vols))
            value = partials[-1][1]
            tail = max(abs(v - value) for _, v in partials[start:])
            out.append(DensityEstimate(
                value=value,
                T_final=schedule[-1],
                partials=partials,
                cauchy_tail=tail,
                converged=bool(tail < max(CONVERGENCE_REL * abs(value), CONVERGENCE_ABS)),
                n_points=len(z),
            ))
    return out


def equivariance_residual(
    P: PointPatch,
    g: GroupElement,
    delta: Sequence[float],
    xi: Character,
    T: float,
) -> float:
    """|D_xi(g*P, q_g + delta, T) - conj(xi(z_g)) conj(xi(beta(q_g, delta))) D_xi(P, delta, T)|.

    The exact identity holds for infinite sets; on patches it decays
    like the boundary term of the ball, so residuals shrink along T.
    """
    delta_arr = np.asarray(delta, dtype=float).reshape(P.dim_q)
    shifted = translate(P, g)
    f_shift = extract_fiber(shifted, np.asarray(g.q) + delta_arr)
    f_base = extract_fiber(P, delta_arr)
    d_shift = twisted_density(f_shift.reshape(-1, P.dim_z), xi, [T], core=shifted.core_z)
    d_base = twisted_density(f_base.reshape(-1, P.dim_z), xi, [T], core=P.core_z)
    beta = P.group.cocycle.beta(np.asarray(g.q), delta_arr)
    phase = (xi.value(g.z) * xi.value(beta)).conjugate()
    return abs(d_shift.value - phase * d_base.value)


def fiber_partition(P: PointPatch) -> tuple[np.ndarray, np.ndarray]:
    """Order the patch rows by (q-key, |z|, z) and return (order, bounds);
    rows order[bounds[i]:bounds[i+1]] form one fiber."""
    znorm = np.sqrt(np.sum(P.z * P.z, axis=1))
    order, starts = group_rows(P.q_key_matrix, (znorm,) + tuple(P.z.T))
    bounds = np.append(starts, len(order))
    return order, bounds


def _check_palm_radii(P: PointPatch, S: float, T: float) -> None:
    check_radius("T", T)
    if P.dim_q:
        check_radius("S", S)
        check_core("S", S, P.core_q)
    check_core("T", T, P.core_z)


def palm_profile(
    P: PointPatch,
    thetas: np.ndarray,
    S: float,
    T: float,
) -> np.ndarray:
    """c_xi estimates for a whole batch of frequencies at once.

    Returns one nonnegative real per row of thetas; computation matches
    palm_coefficient exactly (same ordering and partial sums).  thetas
    has shape (n, dim_z); a 1-d array is taken as a column when dim_z = 1.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1 and P.dim_z == 1:
        thetas = thetas.reshape(-1, 1)
    if thetas.ndim != 2 or thetas.shape[1] != P.dim_z:
        raise ValueError(f"thetas of shape {thetas.shape} do not have dim_z = {P.dim_z} columns")
    _check_palm_radii(P, S, T)
    inv = slice(None)
    if P.dim_z == 1:
        # One column per |theta|: z * (-theta) = -(z * theta) exactly (BLAS sums
        # break this for dim_z >= 2) and exp conjugates the phase, unseen by |.|^2.
        thetas, inv = np.unique(np.abs(thetas[:, 0]), return_inverse=True)
        thetas, inv = thetas.reshape(-1, 1), inv.reshape(-1)
    return _palm_columns(P, thetas, S, T)[inv]


def _palm_columns(P: PointPatch, thetas: np.ndarray, S: float, T: float) -> np.ndarray:
    """palm_profile for checked (n, dim_z) thetas, one phase column each."""
    if P.dim_q == 0:
        norms = np.sqrt(np.sum(P.z * P.z, axis=1))
        zm = P.z[norms <= T + BALL_PAD]
        vol = ball_volume(P.dim_z, T)
        out = np.empty(len(thetas))
        block, fold = _theta_block(len(zm)), _fold(zm)
        for b0 in range(0, len(thetas), block):
            th = thetas[b0 : b0 + block]
            vals = _phase_columns(zm, th, fold)
            out[b0 : b0 + block] = (np.abs(vals.sum(axis=0) / vol) ** 2)[: len(th)]
            del vals  # one block of phases alive at a time
        return out
    order, bounds = fiber_partition(P)
    heads, sizes = order[bounds[:-1]], np.diff(bounds)
    kept = np.sqrt(np.sum(P.q[heads] * P.q[heads], axis=1)) <= S + BALL_PAD
    if not kept.any():
        return np.zeros(len(thetas))
    starts = np.append(0, np.cumsum(sizes[kept])[:-1])
    # Lattice-like patches repeat z across fibers, so each distinct z gets
    # one phase.  A lexsort finds them ten times faster than np.unique(axis=0).
    zk = P.z[order[np.repeat(kept, sizes)]]
    srt = np.lexsort(zk.T[::-1])
    new = np.append(True, np.any(zk[srt[1:]] != zk[srt[:-1]], axis=1))
    uniq, inv = zk[srt[new]], np.empty(len(zk), dtype=np.int64)
    inv[srt] = np.cumsum(new) - 1
    # Rows beyond T stay in the sums as zeros: dropping them would change
    # the order in which numpy sums the rest of their fiber.
    inside = np.sqrt(np.sum(uniq * uniq, axis=1)) <= T + BALL_PAD
    vol_z = ball_volume(P.dim_z, T)
    vol_q = ball_volume(P.dim_q, S)
    out = np.empty(len(thetas))
    block, fold = _theta_block(P.n), _fold(uniq)
    for b0 in range(0, len(thetas), block):
        th = thetas[b0 : b0 + block]
        phases = (_phase_columns(uniq, th, fold) * inside[:, None])[inv]
        dens = np.abs(np.add.reduceat(phases, starts, axis=0) / vol_z) ** 2
        out[b0 : b0 + block] = (dens.sum(axis=0) / vol_q)[: len(th)]
        del phases, dens  # one block of phases alive at a time
    return out


def palm_coefficient(P: PointPatch, xi: Character, S: float, T: float) -> float:
    """Palm-averaged central diffraction coefficient

        c_xi = (1/vol(B_S)) * sum_{delta in projection, |delta| <= S}
               |D_xi(fiber(P, delta), T)|^2,

    the spatial-orbit surrogate for the ensemble average.  In the
    absolute case (dim_q = 0) this is just |D_xi(P, T)|^2.
    """
    return float(palm_profile(P, np.array([xi.theta]), S, T)[0])


@dataclass(frozen=True)
class SampledFunction:
    """Function on Q known through samples at finitely many points, no two with one key."""

    points: np.ndarray
    values: np.ndarray
    support_radius: float

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        pts = pts.reshape(len(pts), -1)
        vals = np.asarray(self.values, dtype=complex).reshape(len(pts))
        pts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "support_radius", float(self.support_radius))
        if not 0 <= self.support_radius < math.inf:
            raise ValueError(f"support radius must be finite and non-negative, got {self.support_radius!r}")
        if len(group_rows(_quant_keys(pts))[1]) < len(pts):
            raise ValueError("sample points repeat a quantized key")

    @classmethod
    def indicator(cls, point: Sequence[float]) -> "SampledFunction":
        pt = np.asarray(point, dtype=float).reshape(1, -1)
        radius = float(np.abs(pt).max()) if pt.size else 0.0
        return cls(points=pt, values=np.ones(1, dtype=complex), support_radius=radius)

    def lookup(self, queries: np.ndarray) -> np.ndarray:
        """Values at query rows; unmatched points give 0."""
        q = np.asarray(queries, dtype=float).reshape(-1, self.points.shape[1])
        return np.append(self.values, 0.0)[_find_rows(_quant_keys(self.points), _quant_keys(q))]


@dataclass(frozen=True)
class SplitLatticeData:
    """What the periodization formula needs from a split lattice: the
    central fiber Xi, the projection Delta (both flat patches), the
    cocycle, and the twisted density of the identity fiber."""

    Xi: PointPatch
    Delta: PointPatch
    cocycle: Cocycle
    D_xi_e: complex


def split_data(P: PointPatch, xi: Character, T: float) -> SplitLatticeData:
    """Extract split-lattice data from a patch (all fibers translates)."""
    ident = extract_fiber(P, np.zeros(P.dim_q))
    dens = twisted_density(ident, xi, [T], core=P.core_z)
    Xi = _flat_patch(ident, P.window_z, P.core_z, "split_xi")
    return SplitLatticeData(Xi=Xi, Delta=project(P), cocycle=P.group.cocycle, D_xi_e=dens.value)


def twisted_periodization(
    split: SplitLatticeData,
    phi: SampledFunction,
    xi: Character,
    at: GroupElement,
) -> complex:
    """P_xi phi at the point (z, q):

        D_xi(Lambda, e) * sum_{delta in Delta} phi(q + delta)
                          * conj(xi(z + beta(q, delta)))
    """
    q = np.asarray(at.q, dtype=float)
    z = np.asarray(at.z, dtype=float)
    if not (np.isfinite(q).all() and np.isfinite(z).all()):
        raise ValueError(f"periodization point must be finite, got z={at.z}, q={at.q}")
    check_core("|q| + support radius", float(np.abs(q).max(initial=0.0)) + phi.support_radius, split.Delta.core_z)
    deltas = split.Delta.z  # Delta is flat: its z block holds q coordinates
    vals = phi.lookup(q[None, :] + deltas)
    live = np.flatnonzero(vals != 0)
    if len(live) == 0:
        return 0.0 + 0.0j
    beta = split.cocycle.beta(q, deltas[live])
    phases = np.exp(-2j * math.pi * ((z[None, :] + beta) @ np.asarray(xi.theta)))
    return complex(split.D_xi_e * np.sum(vals[live] * phases))


def _frequency_grid(K: float, h: float, dim: int = 1) -> np.ndarray:
    """Rows of the grid h*Z^dim inside [-K, K]^dim, last coordinate fastest."""
    return _grid_rows([_axis(K, h)] * dim, "frequencies")


def _max_gap(picked: np.ndarray, grid: np.ndarray) -> float:
    """Widest hole of the picked grid rows: the largest spacing in one
    dimension, twice the covering radius of the grid otherwise."""
    if len(picked) < 2:
        return math.inf
    if grid.shape[1] == 1:
        return float(np.max(np.diff(np.sort(picked[:, 0]))))
    return 2.0 * float(_nearest_distance(picked, grid).max())


@dataclass(frozen=True)
class EpsilonDualReport:
    thetas: np.ndarray
    residuals: np.ndarray
    max_gap: float
    eps: float
    K: float
    h: float
    n_grid: int


def epsilon_dual(Xi: PointPatch, eps: float, K: float, h: float) -> EpsilonDualReport:
    """Grid frequencies theta in [-K, K]^dim_z with
    max_{z in Xi} |xi_theta(z) - 1| < eps, with their sup-residuals.

    |e^{i a} - 1| = 2 |sin(a/2)|, so the residual is
    2 * max_z |sin(pi <theta, z>)|.
    """
    if not (0 < eps <= 2):
        raise ValueError("eps must lie in (0, 2]")
    if h <= 0 or K <= 0:
        raise ValueError("K and h must be positive")
    if Xi.dim_q:
        raise ValueError("epsilon_dual expects a flat patch")
    if Xi.n == 0:
        raise ValueError("empty patch")
    grid = _frequency_grid(K, h, Xi.dim_z)
    res = np.empty(len(grid))
    block = _theta_block(Xi.n)
    for i0 in range(0, len(grid), block):
        phase = grid[i0 : i0 + block] @ Xi.z.T
        res[i0 : i0 + block] = 2.0 * np.abs(np.sin(math.pi * phase)).max(axis=1)
    keep = res < eps
    thetas = grid[keep]
    residuals = res[keep]
    return EpsilonDualReport(
        thetas=thetas,
        residuals=residuals,
        max_gap=_max_gap(thetas, grid),
        eps=float(eps),
        K=float(K),
        h=float(h),
        n_grid=len(grid),
    )


@dataclass(frozen=True)
class SandwichReport:
    """Counts |Xi sandwiching the smoothed Folner integral."""

    count_inner: int
    integral: float
    count_outer: int
    T: float
    T_K: float
    h: float
    lower_ok: bool
    upper_ok: bool
    tolerance: float


def sandwich_check(
    Xi: PointPatch,
    T: float,
    T_K: float = 1.0,
    h: float = 1e-3,
    tolerance: float = 1e-3,
) -> SandwichReport:
    """|Xi cap B_T|  <=  int_{B_{T+T_K}} sum_x rho(x - n) dn  <=  |Xi cap B_{T+2T_K}|
    for the unit-mass quartic bump rho supported in [-T_K, T_K],
    evaluated by trapezoid quadrature at step h.
    """
    if Xi.dim_q or Xi.dim_z != 1:
        raise ValueError("sandwich_check expects a one dimensional flat patch")
    check_radius("T", T)
    check_radius("T_K", T_K)
    check_core("T + 2 T_K", T + 2 * T_K, Xi.core_z)
    zs = Xi.z[:, 0]
    count_inner = int(np.count_nonzero(np.abs(zs) <= T + BALL_PAD))
    count_outer = int(np.count_nonzero(np.abs(zs) <= T + 2 * T_K + BALL_PAD))
    nodes, weights, step = _trapezoid(T + T_K, h)
    heights = np.zeros(len(nodes))
    coef = 15.0 / (16.0 * T_K)
    for x in zs[np.abs(zs) <= T + 2 * T_K + BALL_PAD]:
        lo = np.searchsorted(nodes, x - T_K)
        hi = np.searchsorted(nodes, x + T_K, side="right")
        u = (nodes[lo:hi] - x) / T_K
        heights[lo:hi] += coef * (1.0 - u * u) ** 2
    integral = float(np.dot(heights, weights))
    return SandwichReport(
        count_inner=count_inner,
        integral=integral,
        count_outer=count_outer,
        T=float(T),
        T_K=float(T_K),
        h=float(step),
        lower_ok=bool(integral >= count_inner - tolerance),
        upper_ok=bool(integral <= count_outer + tolerance),
        tolerance=float(tolerance),
    )
