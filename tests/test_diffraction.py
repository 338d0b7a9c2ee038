"""Autocorrelation measures and diffraction estimates against brute force."""

import hashlib
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasilat as ql
import quasilat.diffraction as df
import quasilat.pointset as pointset
import quasilat.spectral as sp
from quasilat.errors import (
    DegenerateDensityError,
    InsufficientWindowError,
    WindowShortfallError,
)
from quasilat.pointset import BALL_PAD, QUANT, SEARCH_PAD, ExactCoords, _quant_keys

S2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def h3_eta():
    H = ql.heisenberg_group()
    P = ql.integer_lattice_patch(H, window_z=10.0, window_q=4.0)
    return H, P, df.autocorrelation(P, 2.0, 1.5)


def test_flat_integer_lattice_matches_pair_counts():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=20.0)
    eta = df.autocorrelation(Z, 10.0, 5.0)
    assert eta.n_atoms == 11
    assert eta.normalization == pytest.approx(20.0)
    # every difference d with |d| <= 5 is realized from each of the 21 centers
    for d in range(-5, 6):
        assert eta.weight_at([float(d)]) == pytest.approx(21 / 20)
    assert eta.weight_at([0.5]) == 0.0
    assert eta.exact is not None


def test_flat_silver_matches_brute_force():
    t = ql.model_set_1d(1, 30.0)
    eta = df.autocorrelation(t, 20.0, 3.0)
    brute = Counter()
    for i in range(t.n):
        if abs(t.z[i, 0]) <= 20.0 + 1e-12:
            for j in range(t.n):
                if abs(t.z[j, 0] - t.z[i, 0]) <= 3.0 + 1e-12:
                    brute[(
                        int(t.exact.za[j, 0] - t.exact.za[i, 0]),
                        int(t.exact.zb[j, 0] - t.exact.zb[i, 0]),
                    )] += 1
    keys = {(int(a), int(b)) for a, b in zip(eta.exact.za[:, 0], eta.exact.zb[:, 0])}
    assert keys == set(brute)
    for (a, b), cnt in brute.items():
        assert eta.weight_at([a + b * S2]) == pytest.approx(cnt / 40.0)


def test_flat_two_dimensional_matches_brute_force():
    Z2 = ql.integer_lattice_patch(ql.abelian_group(2, 0), window_z=6.0)
    eta = df.autocorrelation(Z2, 3.0, 2.0)
    brute = Counter()
    for i in range(Z2.n):
        if math.hypot(*Z2.z[i]) <= 3.0 + 1e-12:
            for j in range(Z2.n):
                dx, dy = Z2.z[j] - Z2.z[i]
                if math.hypot(dx, dy) <= 2.0 + 1e-12:
                    brute[(round(dx), round(dy))] += 1
    assert eta.n_atoms == len(brute) == 13
    vol = ql.ball_volume(2, 3.0)
    for (x, y), cnt in brute.items():
        assert eta.weight_at([float(x), float(y)]) == pytest.approx(cnt / vol)
    assert eta.exact is not None
    assert {tuple(k) for k in eta.exact.za.tolist()} == set(brute) and not eta.exact.zb.any()
    _assert_float_atoms(df.autocorrelation(_float_keyed(Z2), 3.0, 2.0), _quantized_pair_counts(Z2, 3.0, 2.0))


def test_mixed_h3_matches_group_operation_loop(h3_eta):
    H, P, eta = h3_eta
    T, range_ = 2.0, 1.5
    brute = Counter()
    for i in range(P.n):
        x = ql.GroupElement(z=tuple(P.z[i]), q=tuple(P.q[i]))
        if H.gauge(x) > T + 1e-12:
            continue
        x_inv = H.inv(x)
        for j in range(P.n):
            y = ql.GroupElement(z=tuple(P.z[j]), q=tuple(P.q[j]))
            d = H.mul(x_inv, y)
            if H.gauge(d) <= range_ + 1e-12:
                brute[tuple(round(v) for v in d.z + d.q)] += 1
    assert eta.n_atoms == len(brute) == 45
    assert eta.normalization == pytest.approx(ql.gauge_ball_volume(1, 2, T))
    for key, cnt in brute.items():
        got = eta.weight_at([key[0]], key[1:])
        assert got == pytest.approx(cnt / eta.normalization, abs=1e-12)
    got_keys = {
        (round(z[0]), round(q[0]), round(q[1])) for z, q in zip(eta.z, eta.q)
    }
    assert got_keys == set(brute)
    # full lattice: every admissible difference is reached from each center
    assert set(brute.values()) == {117}


def _silver_product():
    D1 = ql.model_set_1d(1, 4.8)
    return ql.symplectic_product(ql.model_set_1d(1, 18.0), ql.cartesian_flat(D1, D1), ql.heisenberg_group(), k=3)


def test_mixed_silver_product_matches_exact_group_law():
    # Columns (1 + sqrt2, 1) and (1, 1 + sqrt2) are within the range of each
    # other, so the cocycle products carry d*qb*qb and qa*qb + qb*qa terms.
    H = ql.heisenberg_group()
    P = _silver_product()
    T, range_ = 2.7, 2.1
    eta = df.autocorrelation(P, T, range_)
    brute = Counter()
    for i in range(P.n):
        x = P.element(i)
        if H.gauge(x) > T + 1e-12:
            continue
        x_inv = H.inv(x)
        # the float box only prunes; membership is decided on the exact product
        for j in np.flatnonzero(np.abs(P.q - P.q[i]).max(axis=1) <= range_ + 1e-6):
            d = H.mul(x_inv, P.element(int(j)))
            if H.gauge(d) <= range_ + 1e-12:
                brute[tuple(v for c in d.z_exact + d.q_exact for v in (c.a, c.b))] += 1
    keys = [tuple(row) for row in eta.exact.key_matrix().tolist()]
    assert len(keys) == len(set(keys)) and set(keys) == set(brute)
    assert [brute[k] / eta.normalization for k in keys] == eta.weights.tolist()
    assert any(k[1] for k in keys) and any(k[3] or k[5] for k in keys)


def _float_keyed(P, z=None, q=None, pad=0.0):
    """P's points (or the given ones) as a float-key patch; pad widens
    the windows beyond the cores."""
    return ql.make_patch(group=P.group, z=P.z if z is None else z, q=P.q if q is None else q,
                         window_z=P.core_z + pad, window_q=P.core_q + pad,
                         core_z=P.core_z, core_q=P.core_q, provenance="float keys")


def _quantized_pair_counts(P, T, range_):
    """Counts of x^-1 y, quantized at QUANT, over gauge(x) <= T and
    gauge(x^-1 y) <= range, by the scalar group law."""
    G = P.group
    brute = Counter()
    for i in range(P.n):
        x = G.element(P.z[i], P.q[i])
        if G.gauge(x) > T + 1e-12:
            continue
        x_inv = G.inv(x)
        # the q box only prunes; membership is decided by the gauge
        for j in np.flatnonzero(np.abs(P.q - P.q[i]).max(axis=1, initial=0) <= range_ + 1e-6):
            d = G.mul(x_inv, G.element(P.z[j], P.q[j]))
            if G.gauge(d) <= range_ + 1e-12:
                brute[tuple(round(v / QUANT) for v in d.z + d.q)] += 1
    return brute


def _assert_float_atoms(eta, brute):
    assert eta.exact is None
    got = {
        tuple(round(v / QUANT) for v in (*z, *q)): w
        for z, q, w in zip(eta.z, eta.q, eta.weights)
    }
    assert got == {k: c / eta.normalization for k, c in brute.items()}


@pytest.mark.parametrize("case", ["h3_lattice", "h3_perturbed", "silver"])
def test_float_key_autocorrelation_matches_group_law(case):
    rng = np.random.default_rng(7)
    if case == "silver":
        P, T, range_ = _float_keyed(ql.model_set_1d(1, 30.0)), 20.0, 3.0
    else:
        L = ql.integer_lattice_patch(ql.heisenberg_group(), window_z=7.0, window_q=3.0)
        P, T, range_ = _float_keyed(L), 1.5, 1.5
        if case == "h3_perturbed":
            # every point its own fiber
            P = _float_keyed(L, L.z + 1e-6 * rng.standard_normal(L.z.shape),
                             L.q + 1e-6 * rng.standard_normal(L.q.shape), pad=0.5)
            assert len({tuple(r) for r in P.q_key_matrix.tolist()}) == P.n
    eta = df.autocorrelation(P, T, range_)
    brute = _quantized_pair_counts(P, T, range_)
    assert len(brute) > 5
    _assert_float_atoms(eta, brute)


def _far_boundary_patch(offsets=(0.0,)):
    """30 fibers over a z window of 2e6: a float offset of fiber * span
    would have an ulp above the 1e-9 search pad.  Each neighbour fiber
    holds points at |dz - c| = range^2 + offset from every x point, for
    each offset.  Returns (patch, T, range)."""
    H = ql.heisenberg_group()
    T, range_ = 1.0, 2.1
    fibers = [(a, b) for a in range(-2, 3) for b in range(-2, 4)]
    pts = {f: [1e6 - 0.5 * f[0], -1e6 + 0.25 * f[1]] for f in fibers}
    for qi in fibers:
        if math.hypot(*qi) > T:
            continue
        for z1 in (-0.9, -0.7, -0.3, 0.1, 0.3, 0.6):
            pts[qi].append(z1)
            for qj in fibers:
                if math.hypot(qj[0] - qi[0], qj[1] - qi[1]) <= range_:
                    c = float(H.cocycle.beta(np.array(qi, float), np.array(qj, float))[0])
                    pts[qj] += [z1 + c + s * (range_ ** 2 + o) for o in offsets for s in (-1, 1)]
    z = np.array([[v] for f in fibers for v in pts[f]])
    q = np.array([f for f in fibers for _ in pts[f]], dtype=float)
    P = ql.make_patch(group=H, z=z, q=q, window_z=2e6, window_q=3.1,
                      core_z=2e6, core_q=3.1, provenance="boundary pairs")
    return P, T, range_


def test_window_search_is_exact_far_from_the_origin():
    P, T, range_ = _far_boundary_patch()
    brute = _quantized_pair_counts(P, T, range_)
    assert sum(brute.values()) > 2 * 30 * 13
    _assert_float_atoms(df.autocorrelation(P, T, range_), brute)


def _h3_core(T, range_):
    """The H3 lattice patch with the smallest cores autocorrelation accepts."""
    H = ql.heisenberg_group()
    wz = math.ceil(T * T + range_ * range_ + H.cocycle.drift_bound * T * range_)
    return ql.integer_lattice_patch(H, float(wz), T + range_)


# sha256 of the atoms (z, q, weights, exact columns) on four dim_z = 1
# cases, which pins their bits.  The atoms are integer keys and pair counts
# over a volume, with no libm call, so the digests do not depend on the
# numpy build.
PINNED_ATOMS = {
    "h3_core": (lambda: (_h3_core(3.5, 4.25), 3.5, 4.25),
                "f281d0f9429f8e774ab62372f3eca8c18434d2a1449b173451c8a232b23f7b53"),
    "silver": (lambda: (ql.model_set_1d(1, 2100), 1000, 45),
               "2aa88f6c1c88605b4536a130d5ffd41732ba6e974b3d17cc3e47acd3e46e87ad"),
    "silver_float": (lambda: (_float_keyed(ql.model_set_1d(1, 2100)), 1000, 45),
                     "44f800ec85a86684a14ee47a7cd1458cfb6914ce1ed02b922ba8afd294d381b3"),
    "silver_product": (lambda: (_silver_product(), 2.7, 2.1),
                       "57d55ea7f312e7ef341de19a2027b99cfa6fb36246c41fec2df419aa8906b34b"),
}


@pytest.mark.parametrize("case", sorted(PINNED_ATOMS))
def test_one_central_dimension_atoms_are_pinned(case):
    build, want = PINNED_ATOMS[case]
    eta = df.autocorrelation(*build())
    e = eta.exact
    h = hashlib.sha256()
    for a in [eta.z, eta.q, eta.weights] + ([] if e is None else [e.za, e.zb, e.qa, e.qb]):
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    assert h.hexdigest() == want


def test_autocorrelation_pairs_are_formed_a_piece_at_a_time():
    # A flat patch is one x-fiber; at range 400 it holds about 2M pairs.
    P = ql.model_set_1d(1, 3000)
    tracemalloc.start()
    try:
        eta = df.autocorrelation(P, 2500, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    with patch.object(pointset, "_PAIR_CHUNK", 1 << 40):
        whole = df.autocorrelation(P, 2500, 400)
    for a, b in [(eta.z, whole.z), (eta.weights, whole.weights), (eta.exact.za, whole.exact.za),
                 (eta.exact.zb, whole.exact.zb)]:
        assert a.tobytes() == b.tobytes()


def _lex_count(keys, counts):
    """Unique rows of an integer key matrix, by a plain lexsort, with
    their summed counts."""
    if not len(keys):
        return keys, counts
    order = np.lexsort(keys.T[::-1])
    keys, counts = keys[order], counts[order]
    starts = np.flatnonzero(np.append(True, np.any(keys[1:] != keys[:-1], axis=1)))
    return keys[starts], np.add.reduceat(counts, starts)


def _reference_autocorrelation(P, T, range_):
    """The per-pair filter the kernel's trimmed windows and packed keys
    replace: every pair of each window is formed, kept by the norm of its
    dz and keyed by one column per coordinate, then counted by lexsort."""
    g, dim_z = P.group, P.dim_z
    t_z, w = (T, range_) if P.dim_q == 0 else (T * T, range_ * range_)
    order, starts, window_edge = pointset._fiber_index(P.q_key_matrix, P.z[:, 0])
    bounds = np.append(starts, P.n)
    zs = [P.z[order, k] for k in range(dim_z)]
    x_norms = df._norm(zs)
    heads = order[starts]
    deltas = P.q[heads]
    exact_mode = P.exact is not None and g.cocycle.is_integral
    if exact_mode:
        z_exact = [v[order, k] for k in range(dim_z) for v in (P.exact.za, P.exact.zb)]
        head_qa, head_qb = P.exact.qa[heads], P.exact.qb[heads]
        head_keys = P.q_key_matrix[heads]
    width = 2 * (dim_z + P.dim_q) if exact_mode else dim_z + P.dim_q
    keys, counts = [np.zeros((0, width), dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for fi in np.flatnonzero(np.sqrt(np.sum(deltas * deltas, axis=1)) <= T + BALL_PAD):
        xs = np.arange(bounds[fi], bounds[fi + 1])
        xs = xs[x_norms[xs] <= t_z + BALL_PAD]
        dq = deltas - deltas[fi]
        nb = np.flatnonzero(np.sqrt(np.sum(dq * dq, axis=1)) <= range_ + BALL_PAD)
        slot = np.repeat(np.arange(len(nb)), len(xs))
        src = np.tile(xs, len(nb))
        c = g.cocycle.beta(deltas[fi], deltas[nb])[slot]
        z0 = zs[0][src] + c[:, 0]
        lo = window_edge(nb[slot], z0 - w - SEARCH_PAD, "left")
        hi = window_edge(nb[slot], z0 + w + SEARCH_PAD, "right")
        rows, cols = pointset._expand_ranges(lo, hi)
        dz = [zk[cols] - zk[src[rows]] - c[rows, k] for k, zk in enumerate(zs)]
        keep = df._norm(dz) <= w + BALL_PAD
        rows, cols = rows[keep], cols[keep]
        if exact_mode:
            ca, cb = g.cocycle.beta_exact(head_qa[fi], head_qb[fi], head_qa[nb], head_qb[nb], P.exact.d)
            shift = [cv[:, k] for k in range(dim_z) for cv in (ca, cb)]
            z_keys = [v[cols] - v[src[rows]] - sh[slot[rows]] for v, sh in zip(z_exact, shift)]
            q_keys = head_keys[nb] - head_keys[fi]
        else:
            z_keys = [_quant_keys(dk[keep]) for dk in dz]
            q_keys = _quant_keys(dq[nb])
        uniq, cnt = _lex_count(np.column_stack([*z_keys, q_keys[slot[rows]]]), np.ones(len(rows), dtype=np.int64))
        keys.append(uniq)
        counts.append(cnt)
    keys, counts = _lex_count(np.concatenate(keys), np.concatenate(counts))
    if exact_mode:
        m = 2 * dim_z
        exact = ExactCoords(za=keys[:, 0:m:2], zb=keys[:, 1:m:2], qa=keys[:, m::2], qb=keys[:, m + 1::2], d=P.exact.d)
        z_atoms, q_atoms = exact.embed_z(), exact.embed_q()
    else:
        exact, z_atoms, q_atoms = None, keys[:, :dim_z] * QUANT, keys[:, dim_z:] * QUANT
    vol = ql.gauge_ball_volume(dim_z, P.dim_q, T)
    return df.WeightedPointMeasure(dim_z=dim_z, dim_q=P.dim_q, z=z_atoms, q=q_atoms, weights=counts / vol,
                                   range_=range_, normalization=vol, exact=exact)


def _atom_bytes(eta):
    e = eta.exact
    arrays = [eta.z, eta.q, eta.weights] + ([] if e is None else [e.za, e.zb, e.qa, e.qb])
    return [(a.shape, a.tobytes()) for a in arrays]


def _float_key_h3_square():
    """A float-key H3 patch squared and clipped to its boxes: its q floats
    differ in the last bit within most fibers."""
    H = ql.heisenberg_group()
    q_axis = 0.1 * np.arange(-3, 4)
    zs, q0, q1 = np.meshgrid(np.arange(-8, 9), q_axis, q_axis, indexing="ij")
    P = ql.make_patch(group=H, z=zs.reshape(-1, 1).astype(float), q=np.stack([q0.ravel(), q1.ravel()], axis=1),
                      window_z=8.0, window_q=0.3, core_z=8.0, core_q=0.3)
    square = ql.minkowski(P, P, P.window_z, P.window_q)
    return square.take(np.arange(square.n), core_z=min(P.core_z, square.window_z),
                       core_q=min(P.core_q, square.window_q))


def _big_coefficient_silver_square():
    """A flat 2-d silver set whose exact coefficients reach 5e5 while its
    points stay sparse: the packed pair keys would span past 2**62."""
    S = ql.model_set_1d(Fraction(1, 10**4), 10**6)
    return ql.cartesian_flat(S, S)


def _h3_core_thinned():
    """_h3_core(3.5, 4.25) less about 1% of its rows: most fibers keep the
    class they share, and the ones that lost a row fall out of it."""
    P = _h3_core(3.5, 4.25)
    return P.take(np.flatnonzero(np.random.default_rng(22).random(P.n) >= 0.01))


KERNEL_CASES = {
    "h3_core_3_4": lambda: (_h3_core(3.0, 4.0), 3.0, 4.0),
    "h3_core_3.5_4.25": lambda: (_h3_core(3.5, 4.25), 3.5, 4.25),
    "h3_core_thinned": lambda: (_h3_core_thinned(), 3.5, 4.25),
    "h3_core_thinned_float": lambda: (_float_keyed(_h3_core_thinned()), 3.5, 4.25),
    "h3_core_4_4.5": lambda: (_h3_core(4.0, 4.5), 4.0, 4.5),
    "h3_float_keys": lambda: (_float_keyed(_h3_core(2.0, 2.5)), 2.0, 2.5),
    "h3_float_square": lambda: (_float_key_h3_square(), 0.12, 0.17),
    "silver": lambda: (ql.model_set_1d(1, 2100), 1000, 45),
    "silver_float": lambda: (_float_keyed(ql.model_set_1d(1, 2100)), 1000, 45),
    "silver_product": lambda: (_silver_product(), 2.7, 2.1),
    "abelian_2_0": lambda: (ql.integer_lattice_patch(ql.abelian_group(2, 0), 9.0), 5.0, 4.0),
    "abelian_3_0": lambda: (ql.integer_lattice_patch(ql.abelian_group(3, 0), 5.0), 2.5, 2.5),
    "abelian_2_1": lambda: (ql.integer_lattice_patch(ql.abelian_group(2, 1), 12.0, 4.0), 2.0, 2.0),
    "far_boundary": _far_boundary_patch,
    # kept (within BALL_PAD), rejected inside the search pad, and outside it
    "pad_band": lambda: _far_boundary_patch((0.0, 5e-13, 3e-12, 5e-10, 2e-9)),
    "packed_span_past_2_62": lambda: (_big_coefficient_silver_square(), 1e5, 5e4),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_equals_the_per_pair_filter(case):
    P, T, range_ = KERNEL_CASES[case]()
    radices = []
    sum_radix = df._sum_radix
    with patch.object(df, "_sum_radix", lambda *a: radices.append(sum_radix(*a)) or radices[-1]):
        eta = df.autocorrelation(P, T, range_)
    assert eta.n_atoms > 1
    assert _atom_bytes(eta) == _atom_bytes(_reference_autocorrelation(P, T, range_))
    # exact keys are packed into one column unless their spans pass 2**62
    exact_mode = P.exact is not None and P.group.cocycle.is_integral
    assert [r is not None for r in radices] == ([case != "packed_span_past_2_62"] if exact_mode else [])


@pytest.mark.parametrize("case", ["h3_core_thinned", "h3_core_thinned_float", "h3_float_square", "abelian_2_1"])
def test_blocks_of_x_fibers_count_the_same_atoms(case):
    # One x-fiber per block: classes are shared across blocks, representatives are not.
    P, T, range_ = KERNEL_CASES[case]()
    whole = df.autocorrelation(P, T, range_)
    with patch.object(df, "_SEARCH_BLOCK", 1):
        blocked = df.autocorrelation(P, T, range_)
    assert _atom_bytes(blocked) == _atom_bytes(whole)


@pytest.mark.parametrize("case", ["h3_core_thinned", "h3_core_thinned_float"])
def test_fiber_classes_are_checked_row_by_row(case):
    # With every run hash equal, only the row-by-row check keeps unequal fibers apart.
    P, T, range_ = KERNEL_CASES[case]()
    with patch.object(df, "_MIX", np.uint64(0)):
        eta = df.autocorrelation(P, T, range_)
    assert _atom_bytes(eta) == _atom_bytes(_reference_autocorrelation(P, T, range_))


@pytest.mark.parametrize("case", ["h3_core_3.5_4.25", "h3_float_keys", "silver", "silver_float", "silver_product",
                                  "far_boundary", "pad_band"])
def test_one_central_dimension_forms_only_the_pairs_it_counts(case):
    # The window search forms the pairs of one (x-class, y-class, shift)
    # representative each, and every combination sharing it counts them.
    P, T, range_ = KERNEL_CASES[case]()
    formed = []
    pieces = df._pair_pieces
    with patch.object(df, "_pair_pieces", lambda counts: formed.append(int(counts.sum())) or pieces(counts)):
        eta = df.autocorrelation(P, T, range_)
    counted = int(np.rint(eta.weights * eta.normalization).astype(np.int64).sum())
    assert 0 < sum(formed) <= counted
    if case in ("silver", "silver_float"):  # one fiber, one representative
        assert sum(formed) == counted
    if case == "h3_core_3.5_4.25":  # every fiber shares one class
        assert sum(formed) <= 0.05 * counted


def _sign_rt2(a, b):
    """Sign of a + b*sqrt(2), in Python ints."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    return sb if sa == 0 or 2 * b * b > a * a else sa


def _at_most(v, bound):
    """|v| <= bound for v = (a, b) meaning a + b*sqrt(2) and an int bound."""
    return _sign_rt2(bound - v[0], -v[1]) >= 0 and _sign_rt2(bound + v[0], v[1]) >= 0


def _mul_rt2(v, w):
    return v[0] * w[0] + 2 * v[1] * w[1], v[0] * w[1] + v[1] * w[0]


def _exact_pair_counts(P, t_z, t_q2, r_z, r_q2):
    """Counts of the exact keys of x^-1 y = (z_y - z_x - beta(q_x, q_y),
    q_y - q_x) over x with |z_x| <= t_z, |q_x|^2 <= t_q2 and pairs with
    |dz| <= r_z, |dq|^2 <= r_q2: the bounds are ints and every test runs in
    Python ints over Z[sqrt 2].  One central coordinate; floats only prune."""
    assert P.dim_z == 1 and P.exact.d == 2
    e = P.exact
    M = P.group.cocycle.stack[0].astype(int).tolist()
    pts = [((za[0], zb[0]), list(zip(qa, qb)))
           for za, zb, qa, qb in zip(e.za.tolist(), e.zb.tolist(), e.qa.tolist(), e.qb.tolist())]

    def beta(v, w):
        terms = [(M[i][j] * a, M[i][j] * b) for i, vi in enumerate(v) for j, wj in enumerate(w)
                 for a, b in [_mul_rt2(vi, wj)]]
        return sum(t[0] for t in terms), sum(t[1] for t in terms)

    def norm2_at_most(q, bound2):
        a, b = (sum(_mul_rt2(v, v)[s] for v in q) for s in (0, 1))
        return _sign_rt2(bound2 - a, -b) >= 0

    brute = Counter()
    pad = 1e-6
    for i in np.flatnonzero((np.abs(P.z[:, 0]) <= t_z + pad) & (np.sum(P.q * P.q, axis=1) <= t_q2 + pad)):
        zx, qx = pts[i]
        if not (_at_most(zx, t_z) and norm2_at_most(qx, t_q2)):
            continue
        c = P.group.cocycle.beta(P.q[i], P.q)[:, 0]
        near = (np.abs(P.z[:, 0] - P.z[i, 0] - c) <= r_z + pad) & (np.sum((P.q - P.q[i]) ** 2, axis=1) <= r_q2 + pad)
        for j in np.flatnonzero(near):
            zy, qy = pts[j]
            b = beta(qx, qy)
            dz = (zy[0] - zx[0] - b[0], zy[1] - zx[1] - b[1])
            dq = [(y[0] - x[0], y[1] - x[1]) for x, y in zip(qx, qy)]
            if _at_most(dz, r_z) and norm2_at_most(dq, r_q2):
                brute[(*dz, *(c for v in dq for c in v))] += 1
    return brute


def _assert_exact_atoms(eta, brute):
    assert brute
    got = dict(zip(map(tuple, eta.exact.key_matrix().tolist()), eta.weights.tolist()))
    assert got == {k: c / eta.normalization for k, c in brute.items()}


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 4), k=st.integers(1, 6), extra_z=st.integers(0, 2), extra_q=st.integers(0, 1),
       keep=st.sampled_from([1.0, 0.9, 0.6]), seed=st.integers(0, 2**16))
def test_h3_lattice_box_atoms_match_python_int_group_law(m, k, extra_z, extra_q, keep, seed):
    # T = sqrt(m) and range = sqrt(k): pairs at |dz| = range^2, |dq|^2 =
    # range^2 and x points at |z| = T^2, |q| = T sit on the trimmed edges.
    H = ql.heisenberg_group()
    T, range_ = math.sqrt(m), math.sqrt(k)
    L = ql.integer_lattice_patch(H, math.ceil(m + k + T * range_) + extra_z, math.ceil(T + range_) + extra_q)
    P = L.take(np.flatnonzero(np.random.default_rng(seed).random(L.n) < keep))
    _assert_exact_atoms(df.autocorrelation(P, T, range_), _exact_pair_counts(P, m, m, k, k))


@settings(max_examples=25, deadline=None)
@given(R=st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2), 2]), t=st.integers(1, 30), r=st.integers(1, 8),
       extra=st.integers(0, 4))
def test_silver_window_atoms_match_python_int_group_law(R, t, r, extra):
    # Integer radii: x and x + r both lie in the set when 2R >= r, so pairs
    # sit exactly on the range.
    P = ql.model_set_1d(R, t + r + extra)
    _assert_exact_atoms(df.autocorrelation(P, t, r), _exact_pair_counts(P, t, 0, r, 0))


@settings(max_examples=12, deadline=None)
@given(m=st.integers(1, 2), k=st.integers(1, 4), R=st.sampled_from([1, 2]))
def test_silver_product_atoms_match_python_int_group_law(m, k, R):
    # The cores of _silver_product cover T = sqrt(2) with range 2.
    D1 = ql.model_set_1d(1, 4.8)
    P = ql.symplectic_product(ql.model_set_1d(R, 18.0), ql.cartesian_flat(D1, D1), ql.heisenberg_group(), k=3)
    _assert_exact_atoms(df.autocorrelation(P, math.sqrt(m), math.sqrt(k)), _exact_pair_counts(P, m, m, k, k))

def test_mixed_weights_symmetric_under_inversion(h3_eta):
    H, P, eta = h3_eta
    for z, q, w in zip(eta.z, eta.q, eta.weights):
        assert eta.weight_at(-z, -q) == pytest.approx(w)


def test_central_autocorrelation_column(h3_eta):
    H, P, eta = h3_eta
    ce = df.central_autocorrelation(eta)
    assert ce.dim_q == 0
    assert np.array_equal(np.sort(ce.z[:, 0]), np.arange(-2.0, 3.0))
    for z in ce.z:
        assert df.central_autocorrelation(eta).weight_at(z) == pytest.approx(
            eta.weight_at(z, [0.0, 0.0]))
    # flat measures pass through unchanged
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=10.0)
    ez = df.autocorrelation(Z, 5.0, 2.0)
    assert df.central_autocorrelation(ez) is ez


def test_central_autocorrelation_float_keys_match_exact():
    # need_z = 3^2 + 4^2 + 3 * 4 = 37 <= 40 and need_q = 3 + 4 = 7
    P = ql.integer_lattice_patch(ql.heisenberg_group(), window_z=40.0, window_q=7.0)
    exact = df.central_autocorrelation(df.autocorrelation(P, 3.0, 4.0))
    floats = df.central_autocorrelation(df.autocorrelation(_float_keyed(P), 3.0, 4.0))
    assert exact.exact is not None and floats.exact is None
    assert floats.n_atoms == exact.n_atoms == 33
    assert np.array_equal(floats.weights, exact.weights)
    assert np.abs(floats.z - exact.z).max() <= QUANT


def test_singleton_autocorrelation():
    A = ql.abelian_group(1, 0)
    P = ql.make_patch(group=A, z=np.zeros((1, 1)), q=np.zeros((1, 0)),
                      window_z=10.0, window_q=0.0, core_z=10.0, core_q=0.0,
                      provenance="one point")
    eta = df.autocorrelation(P, 5.0, 5.0)
    assert eta.n_atoms == 1
    assert eta.weight_at([0.0]) == pytest.approx(1 / 10.0)


def test_autocorrelation_window_prechecks():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=10.0)
    with pytest.raises(WindowShortfallError):
        df.autocorrelation(Z, 8.0, 5.0)
    with pytest.raises(ValueError):
        df.autocorrelation(Z, -1.0, 2.0)
    with pytest.raises(ValueError):
        df.autocorrelation(Z, 2.0, 0.0)
    H = ql.heisenberg_group()
    small = ql.integer_lattice_patch(H, window_z=5.0, window_q=4.0)
    with pytest.raises(WindowShortfallError):
        df.autocorrelation(small, 2.0, 1.5)


def test_two_central_dimensions_match_group_law():
    # The free two-step nilpotent group on three generators:
    # beta(v, w) = (v1 w2 - v2 w1, v1 w3 - v3 w1).
    G = ql.CentralExtensionGroup(ql.Cocycle.from_matrices(
        [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]], dim_q=3))
    P = ql.integer_lattice_patch(G, window_z=6.0, window_q=2.5)
    T, range_ = 1.0, 1.5
    eta = df.autocorrelation(P, T, range_)
    brute = _quantized_pair_counts(P, T, range_)
    assert eta.n_atoms == len(brute) == 399
    e = eta.exact
    assert not e.zb.any() and not e.qb.any()
    assert np.array_equal(eta.z, e.za) and np.array_equal(eta.q, e.qa)
    got = {
        tuple(round(v / QUANT) for v in (*za, *qa)): w
        for za, qa, w in zip(e.za.tolist(), e.qa.tolist(), eta.weights)
    }
    assert got == {k: c / eta.normalization for k, c in brute.items()}
    _assert_float_atoms(df.autocorrelation(_float_keyed(P), T, range_), brute)
    # need_z = T^2 + range^2 + drift * T * range = 4.75
    with pytest.raises(WindowShortfallError):
        df.autocorrelation(ql.integer_lattice_patch(G, window_z=4.0, window_q=2.5), T, range_)


def test_diffraction_atom_matches_manual_average():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=20.0)
    eta = df.autocorrelation(Z, 10.0, 5.0)
    for theta in (0.0, 0.5, 0.3):
        manual = sum(
            w * math.cos(2 * math.pi * theta * z)
            for (z,), w in zip(eta.z, eta.weights)
        ) / 10.0
        got = df.diffraction_atom(eta, sp.character(theta), 5.0)
        assert got == pytest.approx(manual)
    with pytest.raises(InsufficientWindowError):
        df.diffraction_atom(eta, sp.character(0.0), 4.0)
    empty = df.WeightedPointMeasure(dim_z=1, dim_q=0, z=np.zeros((0, 1)), q=np.zeros((0, 0)),
                                    weights=np.zeros(0), range_=5.0, normalization=20.0)
    assert df.diffraction_atom(empty, sp.character(0.5), 5.0) == 0.0
    H3 = ql.heisenberg_group()
    P = ql.integer_lattice_patch(H3, window_z=10.0, window_q=4.0)
    with pytest.raises(ValueError):
        df.diffraction_atom(df.autocorrelation(P, 2.0, 1.5), sp.character(0.0), 3.0)


def test_bragg_scan_integer_lattice():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=60.0)
    rep = df.bragg_scan(Z, eps=0.5, K=2.5, h=0.01, S=1.0, T=60.0)
    assert rep.c_1 == pytest.approx((121 / 120) ** 2)
    assert np.array_equal(rep.peaks[:, 0], [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert rep.max_gap == pytest.approx(1.0)
    assert rep.peak_mask.sum() == 5
    assert len(rep.thetas) == len(rep.c_values) == 501
    assert np.all(rep.c_values[rep.peak_mask] >= 0.5 * rep.c_1)


def test_bragg_scan_validation():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=30.0)
    with pytest.raises(ValueError):
        df.bragg_scan(Z, eps=0.0, K=1.0, h=0.01, S=1.0, T=30.0)
    with pytest.raises(ValueError):
        df.bragg_scan(Z, eps=1.0, K=1.0, h=0.01, S=1.0, T=30.0)
    far = ql.make_patch(group=ql.abelian_group(1, 0), z=np.array([[30.0]]),
                        q=np.zeros((1, 0)), window_z=30.0, window_q=0.0,
                        core_z=30.0, core_q=0.0, provenance="far point")
    with pytest.raises(DegenerateDensityError, match="is below 1e-9"):
        df.bragg_scan(far, eps=0.5, K=1.0, h=0.01, S=1.0, T=20.0)
    with pytest.raises(ValueError, match="K >= 0"):
        df.bragg_scan(Z, eps=0.5, K=-1.0, h=0.01, S=1.0, T=30.0)


@pytest.mark.parametrize("make, K, h, S, T", [
    (lambda: ql.model_set_1d(1, 300.0), 2.0, 1e-3, 0.0, 300.0),
    (lambda: ql.integer_lattice_patch(ql.heisenberg_group(), 40.0, 12.0), 1.0, 0.01, 10.0, 6.0),
    (lambda: ql.integer_lattice_patch(ql.abelian_group(2), 12.0), 1.0, 0.1, 0.0, 12.0),
], ids=["silver", "h3", "z2"])
def test_bragg_scan_reads_c1_from_its_grid(make, K, h, S, T):
    # The grid is symmetric about theta = 0, so its middle row is the zero frequency.
    P = make()
    rep = df.bragg_scan(P, 0.5, K, h, S, T)
    direct = float(sp.palm_profile(P, np.zeros((1, P.dim_z)), S, T)[0])
    assert not rep.thetas[len(rep.thetas) // 2].any()
    assert rep.c_1.hex() == direct.hex()


@pytest.fixture(scope="module")
def split_for_consistency():
    H = ql.heisenberg_group()
    Xi = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=10.0)
    De = ql.integer_lattice_patch(ql.abelian_group(2, 0), window_z=2.0)
    P = ql.symplectic_product(Xi, De, H, k=2)
    g = np.arange(-1.0, 1.0 + 1e-12, 1e-3)
    return P, g, (1 - g * g) ** 2


def test_projection_consistency_identity_fiber(split_for_consistency):
    P, grid, psi = split_for_consistency
    phi = sp.SampledFunction.indicator([0.0, 0.0])
    rep = df.projection_consistency(P, grid, psi, phi, sp.character(0.0), 8.0, 1e-3)
    # rhs: D = 17/16 on the identity fiber, psi-hat(0) = 16/15
    assert rep.rhs == pytest.approx((17 / 16) * (16 / 15))
    # lhs: 15 whole bumps plus two halves over the averaging window
    assert rep.lhs == pytest.approx((15 + 1) * (16 / 15) / 16, abs=1e-6)
    assert rep.residual == pytest.approx(1 / 15, abs=1e-6)
    assert rep.warning is None


def test_projection_consistency_quarter_frequency(split_for_consistency):
    P, grid, psi = split_for_consistency
    phi = sp.SampledFunction.indicator([0.0, 0.0])
    rep = df.projection_consistency(P, grid, psi, phi, sp.character(0.25), 8.0, 1e-3)
    assert abs(rep.lhs) == pytest.approx(0.0, abs=1e-9)
    assert rep.residual == pytest.approx(5.569303427e-2, abs=1e-8)


def test_projection_consistency_zero_phi(split_for_consistency):
    P, grid, psi = split_for_consistency
    phi = sp.SampledFunction.indicator([0.5, 0.5])
    rep = df.projection_consistency(P, grid, psi, phi, sp.character(0.0), 8.0, 1e-3)
    assert rep.lhs == 0j and rep.rhs == 0j and rep.residual == 0.0


def test_projection_consistency_validation(split_for_consistency):
    P, grid, psi = split_for_consistency
    phi = sp.SampledFunction.indicator([0.0, 0.0])
    coarse = df.projection_consistency(P, grid, psi, phi, sp.character(0.0), 8.0, 0.01)
    assert coarse.warning is not None
    with pytest.raises(ValueError):
        df.projection_consistency(P, grid[:1], psi[:1], phi, sp.character(0.0), 8.0, 1e-3)
    bad = np.concatenate([grid[:100], grid[101:]])
    with pytest.raises(ValueError):
        df.projection_consistency(P, bad, psi[:-1], phi, sp.character(0.0), 8.0, 1e-3)
    Z2 = ql.integer_lattice_patch(ql.abelian_group(2, 0), window_z=4.0)
    with pytest.raises(NotImplementedError):
        df.projection_consistency(Z2, grid, psi, phi, sp.character(0.0, 0.0), 3.0, 1e-3)


def test_projection_consistency_flat_case():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=20.0)
    g = np.arange(-0.5, 0.5 + 1e-12, 1e-3)
    psi = np.cos(math.pi * g) ** 2
    rep = df.projection_consistency(Z, g, psi, sp.SampledFunction.indicator([]),
                                    sp.character(0.0), 16.0, 1e-3)
    # flat case: phi plays no role, rhs = D * psi-hat(0)
    assert rep.rhs == pytest.approx((33 / 32) * 0.5, abs=1e-6)
    assert rep.residual < 0.02


def test_weighted_measure_container(h3_eta):
    H, P, eta = h3_eta
    with pytest.raises(ValueError):
        df.WeightedPointMeasure(
            dim_z=1, dim_q=0, z=np.zeros((2, 1)), q=np.zeros((3, 0)),
            weights=np.ones(2), range_=1.0, normalization=1.0)
    assert eta.weight_at(eta.z[0] + 5e-10, eta.q[0]) == pytest.approx(eta.weights[0])
    assert eta.weight_at(eta.z[0] + 1e-6, eta.q[0]) == 0.0


def test_projection_consistency_counts_each_float_fiber_once():
    H = ql.heisenberg_group()

    def patch(jitter):
        # no exact coordinates: fibers are the quantized q keys, and the two
        # points over (0.5, 0) differ in q by far less than QUANT
        q = np.array([[0.5, 0.0], [0.5 + jitter, 0.0], [0.0, 0.0]])
        return ql.make_patch(group=H, z=np.array([[0.0], [1.0], [0.0]]), q=q,
                             window_z=1.0, window_q=1.0, core_z=1.0, core_q=1.0)

    grid = np.linspace(-0.5, 0.5, 101)
    psi = np.ones_like(grid)
    phi = sp.SampledFunction.indicator([0.5, 0.0])
    jittered = df.projection_consistency(patch(1e-12), grid, psi, phi, sp.character(0.0), 1.0, 0.01)
    clean = df.projection_consistency(patch(0.0), grid, psi, phi, sp.character(0.0), 1.0, 0.01)
    assert clean.rhs == pytest.approx(0.505)
    assert jittered.rhs == clean.rhs
