"""Central extensions of R^dim_q by a central R^dim_z.

The group is R^dim_z x R^dim_q with product

    (z1, q1) * (z2, q2) = (z1 + z2 + beta(q1, q2), q1 + q2)

for an antisymmetric bilinear cocycle beta.  dim_q = 0 recovers the
abelian case, dim_z = 1 with the standard symplectic form on R^2 gives
the Heisenberg group.  The homogeneous gauge is max(|q|, |z|^(1/2)),
which is |q| when there is no z block; with no q block it is |z|, so
gauge balls of the abelian cases match ordinary balls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import CoefficientOverflowError, RadicandMismatchError
from .ring import COEFF_LIMIT, QuadInt

Matrix = Sequence[Sequence[float]]


def _max_abs(*arrays: np.ndarray) -> int:
    """Largest |entry| as a Python int; np.abs would leave -2**63 negative."""
    return max((max(int(a.max()), -int(a.min())) for a in arrays if a.size), default=0)


@dataclass(frozen=True)
class Cocycle:
    """Antisymmetric bilinear map beta: R^dim_q x R^dim_q -> R^dim_z.

    Stored as one dim_q x dim_q matrix per central coordinate, so
    beta(v, w)[k] = v . matrices[k] . w.
    """

    dim_z: int
    dim_q: int
    matrices: tuple[tuple[tuple[float, ...], ...], ...]
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim_z < 0 or self.dim_q < 0:
            raise ValueError("dimensions must be nonnegative")
        if len(self.matrices) != self.dim_z:
            raise ValueError(f"expected {self.dim_z} matrices, got {len(self.matrices)}")
        stack = np.zeros((self.dim_z, self.dim_q, self.dim_q))
        for k, m in enumerate(self.matrices):
            arr = np.asarray(m, dtype=float)
            if self.dim_q == 0:
                arr = arr.reshape(0, 0)
            if arr.shape != (self.dim_q, self.dim_q):
                raise ValueError(f"matrix {k} has shape {arr.shape}, wanted ({self.dim_q}, {self.dim_q})")
            if not np.array_equal(arr, -arr.T):
                raise ValueError(f"matrix {k} is not antisymmetric")
            stack[k] = arr
        object.__setattr__(self, "_stack", stack)
        self._stack.setflags(write=False)

    @classmethod
    def from_matrices(cls, matrices: Sequence[Matrix], dim_q: int) -> "Cocycle":
        mats = tuple(tuple(tuple(float(x) for x in row) for row in m) for m in matrices)
        return cls(dim_z=len(mats), dim_q=dim_q, matrices=mats)

    @property
    def stack(self) -> np.ndarray:
        return self._stack

    @property
    def is_integral(self) -> bool:
        return bool(np.array_equal(self._stack, np.round(self._stack)))

    @property
    def drift_bound(self) -> float:
        """max_k |matrices[k]|_2, so |beta(v, w)| <= bound * |v| * |w|."""
        if self.dim_z == 0 or self.dim_q == 0:
            return 0.0
        return float(max(np.linalg.norm(self._stack[k], 2) for k in range(self.dim_z)))

    def box_drift(self, w1: float, w2: float) -> float:
        """Sup-norm bound on beta(v, w) over |v|_inf <= w1, |w|_inf <= w2."""
        if self.dim_z == 0 or self.dim_q == 0:
            return 0.0
        return float(np.abs(self._stack).sum(axis=(1, 2)).max()) * w1 * w2

    def beta(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """beta of (..., dim_q) arrays as a (..., dim_z) array, broadcasting
        over the leading axes: one pair, rows against rows, or all pairs
        via v[:, None] and w[None]."""
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        if self.dim_z == 0 or self.dim_q == 0:
            return np.zeros(np.broadcast_shapes(v.shape[:-1], w.shape[:-1]) + (self.dim_z,))
        return _bilinear(self._stack, v, w)

    def beta_exact(
        self, va: np.ndarray, vb: np.ndarray, wa: np.ndarray, wb: np.ndarray, d: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact beta(va + vb*sqrt(d), wa + wb*sqrt(d)) of an integral cocycle
        as integer pairs (a, b), broadcasting over the leading axes of the
        (..., dim_q) inputs.  The size bound is checked before any product
        is formed, so int64 never wraps."""
        va, vb, wa, wb = (np.asarray(x, dtype=np.int64) for x in (va, vb, wa, wb))
        if max(self.exact_bounds((_max_abs(va), _max_abs(vb)), (_max_abs(wa), _max_abs(wb)), d)) > COEFF_LIMIT:
            raise CoefficientOverflowError("exact cocycle products would exceed the safe limit")
        M = self._stack.astype(np.int64)
        # (a1 + b1 rt)(a2 + b2 rt) = (a1 a2 + d b1 b2) + (a1 b2 + b1 a2) rt
        return _bilinear(M, va, wa) + d * _bilinear(M, vb, wb), _bilinear(M, va, wb) + _bilinear(M, vb, wa)

    def exact_bounds(self, v: tuple[int, int], w: tuple[int, int], d: int) -> tuple[int, int]:
        """Bounds on |a| and |b| of beta_exact over inputs whose a and b
        parts are bounded by v and w, in Python ints."""
        weight = int(np.abs(self._stack.astype(np.int64)).sum(axis=(1, 2)).max(initial=0))
        (av, bv), (aw, bw) = v, w
        return (av * aw + d * bv * bw) * weight, (av * bw + bv * aw) * weight


def _bilinear(M: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . M[k] . y over the last axes of x and y, broadcasting the leading
    ones.  Coordinates first puts the rows on einsum's inner loop, which is
    several times faster, and each row still sums its terms in (i, j) order."""
    x, y = (np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in (x, y))
    return np.einsum("kij,i...,j...->...k", M, x, y)


def abelian_cocycle(dim_z: int, dim_q: int = 0) -> Cocycle:
    zero = tuple(tuple(tuple(0.0 for _ in range(dim_q)) for _ in range(dim_q)) for _ in range(dim_z))
    return Cocycle(dim_z=dim_z, dim_q=dim_q, matrices=zero)


def heisenberg_cocycle() -> Cocycle:
    """Standard symplectic form on R^2: beta(v, w) = v1*w2 - v2*w1."""
    return Cocycle.from_matrices([[[0.0, 1.0], [-1.0, 0.0]]], dim_q=2)


@dataclass(frozen=True)
class GroupElement:
    """A single group element with optional exact quadratic coordinates."""

    z: tuple[float, ...]
    q: tuple[float, ...]
    z_exact: Optional[tuple[QuadInt, ...]] = None
    q_exact: Optional[tuple[QuadInt, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        if self.z_exact is not None and len(self.z_exact) != len(self.z):
            raise ValueError("exact z coordinates have wrong length")
        if self.q_exact is not None and len(self.q_exact) != len(self.q):
            raise ValueError("exact q coordinates have wrong length")

    @property
    def is_exact(self) -> bool:
        return self.z_exact is not None and self.q_exact is not None


def _radicand(entries: Sequence[QuadInt], default: int) -> int:
    """The one radicand of the entries with b != 0, or default when every
    entry is an integer, which lies in every Z[sqrt d]."""
    ds = {x.d for x in entries if x.b}
    if len(ds) > 1:
        raise RadicandMismatchError(f"mixed radicands {sorted(ds)} in exact coordinates")
    return ds.pop() if ds else default


def element_from_ints(z: Sequence[int], q: Sequence[int], d: int = 2) -> GroupElement:
    return GroupElement(
        z=tuple(float(v) for v in z),
        q=tuple(float(v) for v in q),
        z_exact=tuple(QuadInt(int(v), 0, d) for v in z),
        q_exact=tuple(QuadInt(int(v), 0, d) for v in q),
    )


@dataclass(frozen=True)
class CentralExtensionGroup:
    """R^dim_z x_beta R^dim_q with the homogeneous dilation structure."""

    cocycle: Cocycle

    @property
    def dim_z(self) -> int:
        return self.cocycle.dim_z

    @property
    def dim_q(self) -> int:
        return self.cocycle.dim_q

    @property
    def is_abelian(self) -> bool:
        return self.dim_q == 0 or self.dim_z == 0 or not np.any(self.cocycle.stack != 0.0)

    @property
    def is_nondegenerate(self) -> bool:
        """Whether q -> beta(q, .) is injective (needed for lattice towers)."""
        if self.dim_q == 0:
            return True
        if self.dim_z == 0:
            return False
        flat = self.cocycle.stack.reshape(self.dim_z * self.dim_q, self.dim_q)
        return int(np.linalg.matrix_rank(flat)) == self.dim_q

    def identity(self) -> GroupElement:
        """The identity; its integer exact coordinates fit any radicand."""
        return element_from_ints((0,) * self.dim_z, (0,) * self.dim_q)

    def element(self, z: Sequence[float], q: Sequence[float]) -> GroupElement:
        z = tuple(float(v) for v in z)
        q = tuple(float(v) for v in q)
        if len(z) != self.dim_z or len(q) != self.dim_q:
            raise ValueError(f"element dims ({len(z)}, {len(q)}) do not match group ({self.dim_z}, {self.dim_q})")
        return GroupElement(z=z, q=q)

    def _check(self, g: GroupElement) -> None:
        if len(g.z) != self.dim_z or len(g.q) != self.dim_q:
            raise ValueError("element does not belong to this group")

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        self._check(g)
        self._check(h)
        bz = self.cocycle.beta(g.q, h.q)
        z = tuple(g.z[k] + h.z[k] + bz[k] for k in range(self.dim_z))
        q = tuple(g.q[i] + h.q[i] for i in range(self.dim_q))
        z_exact = q_exact = None
        if g.is_exact and h.is_exact and self.cocycle.is_integral:
            entries = g.z_exact + g.q_exact + h.z_exact + h.q_exact
            d = _radicand(entries, entries[0].d if entries else 2)
            ba, bb = self.cocycle.beta_exact(*([[getattr(x, c) for x in e.q_exact]] for e in (g, h) for c in "ab"), d)
            z_sums = zip(g.z_exact, h.z_exact, ba[0], bb[0])
            z_exact = tuple(QuadInt(x.a + y.a + int(a), x.b + y.b + int(b), d) for x, y, a, b in z_sums)
            q_exact = tuple(QuadInt(x.a + y.a, x.b + y.b, d) for x, y in zip(g.q_exact, h.q_exact))
        return GroupElement(z=z, q=q, z_exact=z_exact, q_exact=q_exact)

    def inv(self, g: GroupElement) -> GroupElement:
        # beta(q, -q) = 0 by antisymmetry, so inversion is plain negation.
        self._check(g)
        z_exact = tuple(-x for x in g.z_exact) if g.z_exact is not None else None
        q_exact = tuple(-x for x in g.q_exact) if g.q_exact is not None else None
        return GroupElement(
            z=tuple(-v for v in g.z),
            q=tuple(-v for v in g.q),
            z_exact=z_exact,
            q_exact=q_exact,
        )

    def commutator(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """[g, h] = g h g^-1 h^-1 = (2*beta(q_g, q_h), 0), computed directly."""
        return self.mul(self.mul(g, h), self.inv(self.mul(h, g)))

    def gauge(self, g: GroupElement) -> float:
        self._check(g)
        zn = math.sqrt(sum(v * v for v in g.z))
        qn = math.sqrt(sum(v * v for v in g.q))
        if self.dim_q == 0:
            return zn
        return max(qn, math.sqrt(zn))

    def distance(self, g: GroupElement, h: GroupElement) -> float:
        """Left-invariant distance gauge(g^-1 h)."""
        return self.gauge(self.mul(self.inv(g), h))

    def dilation(self, t: float, g: GroupElement) -> GroupElement:
        """delta_t(z, q) = (t^2 z, t q); an automorphism for every t."""
        self._check(g)
        t = float(t)
        return GroupElement(
            z=tuple(t * t * v for v in g.z),
            q=tuple(t * v for v in g.q),
        )

    # Array variant used by the patch machinery; rows are elements.

    def gauge_rows(self, z: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Gauge of the elements of (..., dim_z), (..., dim_q) coordinate
        arrays, coordinates along the last axis."""
        zn = np.sqrt(np.sum(z * z, axis=-1))
        if self.dim_q == 0:
            return zn
        qn = np.sqrt(np.sum(q * q, axis=-1))
        return np.maximum(qn, np.sqrt(zn))


def abelian_group(dim_z: int, dim_q: int = 0) -> CentralExtensionGroup:
    return CentralExtensionGroup(abelian_cocycle(dim_z, dim_q))


def heisenberg_group() -> CentralExtensionGroup:
    return CentralExtensionGroup(heisenberg_cocycle())


def ball_volume(dim: int, radius: float) -> float:
    """Lebesgue volume of the Euclidean dim-ball; the empty product is 1."""
    if dim == 0:
        return 1.0
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * radius ** dim


def gauge_ball_volume(dim_z: int, dim_q: int, T: float) -> float:
    """Volume of {gauge <= T}: q-ball of radius T times z-ball of radius T^2,
    or the plain z-ball of radius T when there is no q block."""
    if dim_q == 0:
        return ball_volume(dim_z, T)
    return ball_volume(dim_q, T) * ball_volume(dim_z, T * T)
