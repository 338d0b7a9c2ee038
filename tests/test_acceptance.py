"""Acceptance gate: one test per criterion, frozen oracle values inline.

Each test states its tolerance next to the assertion.  Wall-clock limits
are asserted where the criterion carries one; the margins observed on the
reference machine are wide (>5x), so the limits only catch order-of-
magnitude regressions.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import quasilat as ql
from quasilat import QuadInt, SampledFunction

S2 = math.sqrt(2.0)


def test_ac01_model_set_matches_enumeration_oracle():
    t0 = time.monotonic()
    small = ql.generate_model_set(ql.silver_scheme(-1, 1), 3.0)
    assert small.n == 5
    np.testing.assert_allclose(
        small.z[:, 0], [-1 - S2, -1.0, 0.0, 1.0, 1 + S2], atol=1e-12
    )

    big = ql.generate_model_set(ql.silver_scheme(-1, 1), 10_000.0)
    # Oracle: walk every b with |b*sqrt2| <= T + 1, list the at most two
    # integers a with |a - b*sqrt2| <= 1, keep those with |a + b*sqrt2| <= T.
    # Nonzero elements of Z[sqrt2] stay >= 3e-5 away from the boundaries
    # at this scale (their algebraic norm is a nonzero integer), so float
    # comparison with a 1e-9 margin is exact here.
    T = 10_000.0
    expected = set()
    for b in range(-7072, 7073):
        center = b * S2
        for a in range(math.ceil(center - 1 - 1e-9), math.floor(center + 1 + 1e-9) + 1):
            if abs(a - center) <= 1 + 1e-9 and abs(a + center) <= T + 1e-9:
                expected.add((a, b))
    got = {(int(a), int(b)) for a, b in zip(big.exact.za[:, 0], big.exact.zb[:, 0])}
    assert got == expected
    density = big.n / (2 * T)
    assert abs(density - 1 / S2) / (1 / S2) <= 0.01
    assert time.monotonic() - t0 < 5.0


def test_ac02_meyer_axiom_suite():
    t0 = time.monotonic()
    t50 = ql.generate_model_set(ql.silver_scheme(-1, 1), 50.0)
    rep = ql.check_meyerian(t50, k_max=3)
    assert rep.passed
    assert all(g >= 0.1 for g in rep.gaps)
    # gaps are sqrt2 - 1 and (sqrt2 - 1)^2 for the nested difference sets
    np.testing.assert_allclose(rep.gaps, [S2 - 1, 3 - 2 * S2, 3 - 2 * S2], atol=1e-9)

    # Theta_1 - Theta_1 inside Theta_2, compared on exact integer keys.
    diffs = ql.minkowski(ql.inverse_set(t50), t50)
    theta2 = ql.generate_model_set(ql.silver_scheme(-2, 2), 100.0)
    assert set(map(tuple, diffs.key_matrix.tolist())) <= set(
        map(tuple, theta2.key_matrix.tolist())
    )

    # A uniform random patch is not even close to uniformly discrete once
    # differences are taken: ~1e6 difference points in a 2000-wide box.
    rng = np.random.default_rng(7)
    z = np.sort(rng.uniform(-500.0, 500.0, 1000)).reshape(-1, 1)
    rand = ql.make_patch(
        group=ql.abelian_group(1, 0),
        z=z,
        q=np.zeros((1000, 0)),
        window_z=500.0,
        window_q=0.0,
        core_z=500.0,
        core_q=0.0,
        provenance="uniform sample",
    )
    rrep = ql.check_meyerian(rand, k_max=1)
    assert not rrep.passed
    assert rrep.gaps[0] < rrep.threshold
    assert time.monotonic() - t0 < 30.0


def test_ac03_group_law_exactness():
    H = ql.heisenberg_group()
    rng = np.random.default_rng(31415)
    coords = rng.integers(-100, 101, size=(10_000, 3, 3))
    t = 1 + S2
    max_dilation_residual = 0.0
    for i in range(10_000):
        g, h, k = (
            ql.element_from_ints(coords[i, j, :1].tolist(), coords[i, j, 1:].tolist())
            for j in range(3)
        )
        assert H.mul(H.mul(g, h), k) == H.mul(g, H.mul(h, k))
        e = H.mul(g, H.inv(g))
        assert e.z == (0.0,) and e.q == (0.0, 0.0)
        c = H.commutator(g, h)
        b = H.cocycle.beta(np.asarray(g.q), np.asarray(h.q))
        assert c.q == (0.0, 0.0) and c.z == (2.0 * float(b[0]),)
        if i < 2000:
            lhs = H.dilation(t, H.mul(g, h))
            rhs = H.mul(H.dilation(t, g), H.dilation(t, h))
            r = max(abs(a - b2) for a, b2 in zip(lhs.z + lhs.q, rhs.z + rhs.q))
            max_dilation_residual = max(max_dilation_residual, r)
    assert max_dilation_residual <= 1e-9


def test_ac04_twisted_density_convergence(theta1_10k):
    t0 = time.monotonic()
    zf = np.arange(-100, 101, dtype=float)
    d0 = ql.twisted_density(zf, ql.character(0.0), ql.default_schedule(100.0))
    assert abs(d0.value - 1.0) <= 1e-2
    assert d0.converged
    dh = ql.twisted_density(zf, ql.character(0.5), ql.default_schedule(100.0))
    assert abs(dh.value) <= 2e-2

    sched = [625.0 * 2**k for k in range(5)]
    est = ql.twisted_density(
        theta1_10k.z[:, 0], ql.character(0.0), sched, core=theta1_10k.core_z
    )
    assert abs(est.value.real - 1 / S2) / (1 / S2) <= 0.02
    vals = np.array([v for _, v in est.partials])
    np.testing.assert_allclose(
        vals.real, [0.7080, 0.7068, 0.7070, 0.7071, 0.70715], atol=1e-9
    )
    # Suffix Cauchy tails: sup over later pairs must strictly shrink.
    tails = [
        float(np.abs(vals[k:, None] - vals[None, k:]).max())
        for k in range(len(vals) - 1)
    ]
    np.testing.assert_allclose(tails, [1.2e-3, 3.5e-4, 1.5e-4, 5.0e-5], atol=1e-9)
    assert all(a > b for a, b in zip(tails, tails[1:]))
    assert time.monotonic() - t0 < 60.0


def test_ac05_equivariance_residuals_decrease(heisenberg):
    P = ql.integer_lattice_patch(heisenberg, window_z=240.0, window_q=6.0)
    rng = np.random.default_rng(20260814)
    Ts = [25.0, 50.0, 100.0, 200.0]
    residuals = np.zeros((50, len(Ts)))
    for i in range(50):
        zg = int(rng.integers(-2, 3))
        qg = rng.integers(-2, 3, size=2)
        delta = rng.integers(-2, 3, size=2).astype(float)
        xi = ql.character(float(rng.uniform(-0.5, 0.5)))
        g = ql.element_from_ints([zg], qg.tolist())
        for j, T in enumerate(Ts):
            residuals[i, j] = ql.equivariance_residual(P, g, delta, xi, T)
    maxima = residuals.max(axis=0)
    np.testing.assert_allclose(
        maxima, [0.107048, 0.064558, 0.026641, 0.011923], atol=5e-6
    )
    assert all(a > b for a, b in zip(maxima, maxima[1:]))
    assert maxima[-1] <= 5e-2


def test_ac06_central_diffraction_coefficients(theta1_10k, palm_patch):
    c0 = ql.palm_coefficient(theta1_10k, ql.character(0.0), 0.0, 10_000.0)
    assert abs(c0 - 0.5) / 0.5 <= 0.03
    grid = (np.arange(-200, 201, dtype=float) * 0.01).reshape(-1, 1)
    profile = ql.palm_profile(theta1_10k, grid, 0.0, 10_000.0)
    assert profile.min() >= 0.0
    assert profile.max() <= 1.02 * c0

    c1 = ql.palm_coefficient(palm_patch, ql.character(1.0), 50.0, 101.0)
    assert abs(c1 - 1.0) <= 0.02
    np.testing.assert_allclose(c1, 1.0087705698, atol=1e-8)
    c_half = ql.palm_coefficient(palm_patch, ql.character(0.5), 50.0, 101.0)
    assert c_half <= 2e-2
    gridh = (np.arange(-40, 41, dtype=float) * 0.05).reshape(-1, 1)
    profh = ql.palm_profile(palm_patch, gridh, 50.0, 101.0)
    assert profh.min() >= 0.0
    assert profh.max() <= 1.02 * c1


def test_ac07_bragg_peaks_relatively_dense():
    t0 = time.monotonic()
    t500 = ql.generate_model_set(ql.silver_scheme(-1, 1), 500.0)
    rep = ql.bragg_scan(t500, eps=0.5, K=10.0, h=1e-3, S=0.0, T=500.0)
    n_peaks = int(rep.peak_mask.sum())
    assert n_peaks == 19
    assert 0 < rep.max_gap <= 4.0
    np.testing.assert_allclose(rep.max_gap, 1.707, atol=1e-9)

    theta2 = ql.generate_model_set(ql.silver_scheme(-2, 2), 200.0)
    dual = ql.epsilon_dual(theta2, eps=0.5, K=10.0, h=1e-3)
    np.testing.assert_allclose(dual.thetas[:, 0], [-4.975, 0.0, 4.975], atol=1e-9)
    # Same grid on both scans, so membership is integer comparison.
    peak_ints = set(
        np.round(rep.thetas[rep.peak_mask][:, 0] / 1e-3).astype(np.int64).tolist()
    )
    dual_ints = set(np.round(dual.thetas[:, 0] / 1e-3).astype(np.int64).tolist())
    assert dual_ints <= peak_ints
    assert time.monotonic() - t0 < 600.0


def test_ac08_atoms_match_palm_coefficients(theta1_10k, heisenberg, palm_patch):
    thetas = (0.0, 0.5, 1.0)

    Zp = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=5000.0)
    eta_z = ql.autocorrelation(Zp, T=4950.0, range_=49.0)
    c1_z = ql.palm_coefficient(Zp, ql.character(1.0), 0.0, 4950.0)
    for th in thetas:
        atom = ql.diffraction_atom(eta_z, ql.character(th), 49.5)
        palm = ql.palm_coefficient(Zp, ql.character(th), 0.0, 4950.0)
        assert abs(atom - palm) <= 0.05 * c1_z

    eta_t = ql.autocorrelation(theta1_10k, T=9954.0, range_=45.0)
    c1_t = ql.palm_coefficient(theta1_10k, ql.character(0.0), 0.0, 9954.0)
    atom0 = ql.diffraction_atom(eta_t, ql.character(0.0), 45.5)
    np.testing.assert_allclose(atom0, 0.495428, atol=1e-5)
    for th in thetas:
        atom = ql.diffraction_atom(eta_t, ql.character(th), 45.5)
        palm = ql.palm_coefficient(theta1_10k, ql.character(th), 0.0, 9954.0)
        assert abs(atom - palm) <= 0.05 * c1_t

    Hp = ql.integer_lattice_patch(heisenberg, window_z=128.0, window_q=13.04)
    eta_h = ql.central_autocorrelation(ql.autocorrelation(Hp, T=6.0, range_=7.04))
    c1_h = ql.palm_coefficient(palm_patch, ql.character(1.0), 50.0, 101.0)
    atom0_h = ql.diffraction_atom(eta_h, ql.character(0.0), 49.5)
    np.testing.assert_allclose(atom0_h, 1.013016, atol=1e-5)
    for th in thetas:
        atom = ql.diffraction_atom(eta_h, ql.character(th), 49.5)
        palm = ql.palm_coefficient(palm_patch, ql.character(th), 50.0, 101.0)
        assert abs(atom - palm) <= 0.05 * c1_h


def test_ac09_counting_sandwich():
    Zs = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=45.0)
    T1s = ql.generate_model_set(ql.silver_scheme(-1, 1), 45.0)
    frozen = {
        ("Z", 10.0): (21, 22.0, 25),
        ("Z", 20.0): (41, 42.0, 45),
        ("Z", 40.0): (81, 82.0, 85),
        ("Theta1", 10.0): (15, 16.671476, 19),
        ("Theta1", 20.0): (31, 31.0, 31),
        ("Theta1", 40.0): (59, 59.0, 59),
    }
    for name, patch in (("Z", Zs), ("Theta1", T1s)):
        for T in (10.0, 20.0, 40.0):
            rep = ql.sandwich_check(patch, T, T_K=1.0, h=1e-3)
            assert rep.lower_ok and rep.upper_ok, (name, T)
            inner, integral, outer = frozen[(name, T)]
            assert (rep.count_inner, rep.count_outer) == (inner, outer)
            np.testing.assert_allclose(rep.integral, integral, atol=1e-5)


def test_ac10_pisot_salem_suite(heisenberg):
    t0 = time.monotonic()
    silver = QuadInt(1, 1, 2)
    mp = ql.min_poly_quadratic(silver)
    assert mp.coefficients == (1, -2, -1)
    assert str(mp) == "X^2 -2X -1"

    cls = ql.classify_real(silver)
    assert cls.kind == "Pisot"
    assert abs(cls.conjugates[0] - 0.41421356) <= 1e-8

    lehmer = ql.IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    salem = ql.classify_pisot_salem(lehmer, 1.17628)
    assert salem.kind == "Salem"
    np.testing.assert_allclose(salem.designated.real, 1.176280818259916, atol=1e-12)

    theta1_30 = ql.generate_model_set(ql.silver_scheme(-1, 1), 30.0)
    good = ql.dilation_invariance(theta1_30, silver)
    assert good.holds and good.mode == "abelian" and good.n_tested == 19
    bad = ql.dilation_invariance(theta1_30, 2)
    assert not bad.holds
    assert bad.witness.z == (1.0,)

    d3 = ql.generate_model_set(ql.silver_scheme(-1, 1), 3.0)
    Delta = ql.cartesian_flat(d3, d3)
    prod = ql.symplectic_product(theta1_30, Delta, heisenberg, k=4)
    assert "beta_cond=ok" in prod.provenance
    strat = ql.dilation_invariance(prod, silver, mode="stratified2")
    assert strat.holds and strat.n_tested == 81
    assert time.monotonic() - t0 < 5.0


def test_ac11_uniform_fibers_break_and_repair(split_product):
    full = ql.alignment_report(split_product, 1.0)
    assert full.uniformly_large
    assert len(full.fibers) == 25
    assert full.essential_fraction == 1.0
    assert full.projection_min_gap == 1.0

    # Reduce the fibers over +/-(1, 0) to the singleton {0}; the patch
    # stays symmetric with identity so the repair step accepts it.
    hit = np.all(np.abs(np.abs(split_product.q) - np.array([1.0, 0.0])) < 1e-9, axis=1)
    keep = ~(hit & (np.abs(split_product.z[:, 0]) > 1e-9))
    reduced = split_product.take(np.flatnonzero(keep))
    assert reduced.n == split_product.n - 40
    damaged = ql.alignment_report(reduced, 1.0)
    assert not damaged.uniformly_large
    inessential = {f.delta for f in damaged.fibers if not f.essential}
    assert inessential == {(1.0, 0.0), (-1.0, 0.0)}

    repaired = ql.enforce_uniform_fibers(reduced, 1.0)
    again = ql.alignment_report(repaired, 1.0)
    assert again.uniformly_large
    assert len(again.fibers) == 25


def test_ac12_deterministic_outputs(tmp_path):
    env = dict(os.environ, QUASILAT_THREADS="1")

    def run_pipeline(tag):
        d = tmp_path / tag
        d.mkdir()
        patch = d / "patch.json"
        peaks = d / "peaks.csv"
        for cmd in (
            ["generate", "--scheme", "silver", "--R", "1", "--T", "60", "-o", str(patch)],
            ["bragg", "--in", str(patch), "--eps", "0.5", "--K", "5",
             "--h", "0.001", "--T", "50", "-o", str(peaks)],
        ):
            subprocess.run(
                [sys.executable, "-m", "quasilat.cli"] + cmd,
                check=True, env=env, capture_output=True,
            )
        return patch.read_bytes(), peaks.read_bytes()

    first = run_pipeline("a")
    second = run_pipeline("b")
    assert first[0] == second[0]
    assert first[1] == second[1]

    blocks = [np.array([[2.0, 1.0], [0.0, 3.0]]), np.array([[6.0]])]
    t1 = ql.tower_spectrum_check(blocks, seed=11)
    t2 = ql.tower_spectrum_check(blocks, seed=11)
    assert t1.completion_residual == t2.completion_residual
    assert t1.spectrum == t2.spectrum
