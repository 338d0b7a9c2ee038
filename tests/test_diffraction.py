"""Autocorrelation measures and diffraction estimates against brute force."""

import math
from collections import Counter

import numpy as np
import pytest

import quasilat as ql
import quasilat.diffraction as df
import quasilat.spectral as sp
from quasilat.errors import (
    DegenerateDensityError,
    InsufficientWindowError,
    WindowShortfallError,
)
from quasilat.pointset import QUANT

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


def test_mixed_silver_product_matches_exact_group_law():
    # Columns (1 + sqrt2, 1) and (1, 1 + sqrt2) are within the range of each
    # other, so the cocycle products carry d*qb*qb and qa*qb + qb*qa terms.
    H = ql.heisenberg_group()
    D1 = ql.model_set_1d(1, 4.8)
    P = ql.symplectic_product(ql.model_set_1d(1, 18.0), ql.cartesian_flat(D1, D1), H, k=3)
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


def test_window_search_is_exact_far_from_the_origin():
    # 30 fibers over a z window of 2e6: a float offset of fiber * span
    # would have an ulp above the 1e-9 search pad.  Each neighbour fiber
    # holds points exactly at |dz - c| = range^2 from every x point.
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
                    pts[qj] += [z1 + c - range_ ** 2, z1 + c + range_ ** 2]
    z = np.array([[v] for f in fibers for v in pts[f]])
    q = np.array([f for f in fibers for _ in pts[f]], dtype=float)
    P = ql.make_patch(group=H, z=z, q=q, window_z=2e6, window_q=3.1,
                      core_z=2e6, core_q=3.1, provenance="boundary pairs")
    brute = _quantized_pair_counts(P, T, range_)
    assert sum(brute.values()) > 2 * 30 * 13
    _assert_float_atoms(df.autocorrelation(P, T, range_), brute)


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


def test_mixed_higher_central_dimension_unsupported():
    G = ql.abelian_group(2, 1)
    P = ql.integer_lattice_patch(G, window_z=4.0, window_q=4.0)
    with pytest.raises(NotImplementedError):
        df.autocorrelation(P, 1.0, 1.0)


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
    with pytest.raises(DegenerateDensityError):
        df.bragg_scan(far, eps=0.5, K=1.0, h=0.01, S=1.0, T=20.0)


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
