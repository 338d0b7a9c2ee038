"""Twisted densities, Palm averages, dual scans, periodization."""

import cmath
import math
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

import quasilat as ql
import quasilat.spectral as sp
from quasilat.errors import DegenerateBallError, InsufficientWindowError
from quasilat.pointset import BALL_PAD

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def split_patch():
    H = ql.heisenberg_group()
    Xi = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=10.0)
    De = ql.integer_lattice_patch(ql.abelian_group(2, 0), window_z=2.0)
    return ql.symplectic_product(Xi, De, H, k=2)


@pytest.fixture(scope="module")
def h3_lattice():
    return ql.integer_lattice_patch(ql.heisenberg_group(), 40.0, 12.0)


def brute_density(zs, theta, T, dim=1):
    total = sum(cmath.exp(-2j * math.pi * theta * z) for z in zs if abs(z) <= T + 1e-12)
    return total / ql.ball_volume(dim, T)


def test_twisted_density_matches_direct_sum():
    fib = np.arange(-30.0, 31.0).reshape(-1, 1)
    est = sp.twisted_density(fib, sp.character(0.25), [5.0, 10.0, 20.0, 30.0])
    for T, val in est.partials:
        assert val == pytest.approx(brute_density(fib[:, 0], 0.25, T), abs=1e-12)
    assert est.value == est.partials[-1][1]
    assert est.n_points == 61


def test_twisted_density_euclidean_ball_2d():
    g = np.stack(np.meshgrid(np.arange(-6, 7), np.arange(-6, 7)), -1).reshape(-1, 2)
    pts = g[np.sqrt((g * g).sum(1)) <= 5.0].astype(float)
    th = (0.2, -0.3)
    est = sp.twisted_density(pts, sp.character(*th), [3.0, 5.0], core=5.0)
    brute = sum(
        cmath.exp(-2j * math.pi * (th[0] * x + th[1] * y))
        for x, y in pts
        if math.hypot(x, y) <= 3.0 + 1e-12
    ) / ql.ball_volume(2, 3.0)
    assert est.partials[0][1] == pytest.approx(brute, abs=1e-12)


def test_twisted_density_schedule_validation():
    fib = np.arange(-5.0, 6.0).reshape(-1, 1)
    with pytest.raises(ValueError):
        sp.twisted_density(fib, sp.character(0.0), [])
    with pytest.raises(ValueError):
        sp.twisted_density(fib, sp.character(0.0), [2.0, 2.0])
    with pytest.raises(ValueError):
        sp.twisted_density(fib, sp.character(0.0), [-1.0, 2.0])
    with pytest.raises(InsufficientWindowError):
        sp.twisted_density(fib, sp.character(0.0), [9.0])
    # explicit core overrides the max-norm default
    est = sp.twisted_density(fib, sp.character(0.0), [9.0], core=10.0)
    assert est.value == pytest.approx(11 / 18)


def test_cauchy_tail_is_last_quartile_spread():
    fib = np.arange(-128.0, 129.0).reshape(-1, 1)
    sched = [2.0 ** k for k in range(8)]
    est = sp.twisted_density(fib, sp.character(1 / 3), sched)
    vals = [v for _, v in est.partials]
    assert est.cauchy_tail == pytest.approx(max(abs(v - vals[-1]) for v in vals[6:]))


def test_default_schedule_shape():
    sched = sp.default_schedule(100.0, ratio=2.0, T_min=1.0)
    assert sched[-1] == 100.0
    assert 1.0 <= sched[0] < 2.0
    assert all(b == pytest.approx(2.0 * a) for a, b in zip(sched, sched[1:]))


def test_fiber_partition_reconstructs_fibers(split_patch):
    P = split_patch
    order, bounds = sp.fiber_partition(P)
    assert bounds[0] == 0 and bounds[-1] == P.n
    seen = set()
    for a, b in zip(bounds[:-1], bounds[1:]):
        rows = P.q[order[a:b]]
        assert np.all(rows == rows[0])
        seen.add(tuple(rows[0]))
    assert len(seen) == 25
    # z values inside each fiber arrive sorted by norm
    first = P.z[order[bounds[0]:bounds[1]], 0]
    assert np.all(np.diff(np.abs(first)) >= 0)


def test_palm_profile_matches_double_loop(split_patch):
    P = split_patch
    S, T = 1.5, 8.0
    fib = defaultdict(list)
    for (z,), q in zip(P.z, P.q):
        fib[tuple(q)].append(z)
    for theta in (0.0, 0.3):
        tot = 0.0
        for qk, zs in fib.items():
            if math.hypot(*qk) <= S + 1e-12:
                s = sum(cmath.exp(-2j * math.pi * theta * z)
                        for z in zs if abs(z) <= T + 1e-12)
                tot += abs(s / ql.ball_volume(1, T)) ** 2
        tot /= ql.ball_volume(2, S)
        assert sp.palm_coefficient(P, sp.character(theta), S, T) == pytest.approx(tot)
    prof = sp.palm_profile(P, np.array([0.0, 0.3]), S, T)
    assert prof[0] == pytest.approx(
        sp.palm_coefficient(P, sp.character(0.0), S, T))


def plain_phases(z, thetas):
    """exp(-2 pi i <z, theta>) without the +-z fold, a lone theta twinned
    as in _phase_columns so that numpy sums it in the same order."""
    th = np.repeat(thetas, 1 + (len(thetas) == 1), axis=0)
    return np.exp(-2j * math.pi * (z @ th.T))


def fold_cases():
    """(z, thetas) pairs; the first has over a million arguments."""
    rng = np.random.default_rng(17)
    z = rng.uniform(-300.0, 300.0, (1000, 1))
    z = np.concatenate([z, -z, [[0.0], [-0.0]]])
    th = np.concatenate([rng.uniform(-10.0, 10.0, (500, 1)), [[0.0], [-0.0]]])
    line = rng.uniform(-100.0, 100.0, (3000, 1)) * math.sqrt(2.0)
    zeros = np.array([[0.0], [-0.0], [-0.0], [2.5], [-2.5]])
    return {
        "mirrored rows and signed zeros": (z, th),
        "lone theta": (z, th[:1]),
        "lone zero theta": (z, np.array([[-0.0]])),
        "float line without mirror pairs": (line, th[:40]),
        "only signed zeros": (zeros, np.array([[0.0], [-0.0], [0.25], [-0.25]])),
    }


@pytest.mark.parametrize("case", list(fold_cases()))
def test_folded_phases_keep_every_byte(case):
    z, th = fold_cases()[case]
    want = plain_phases(z, th)
    for twin in (True, False):
        got = sp._phase_columns(z, th, sp._fold(z), twin=twin)
        assert got.tobytes() == (want if twin else want[:, : len(th)]).tobytes()


def test_silver_bragg_scan_forms_exp_on_half_the_rows(monkeypatch):
    # The silver set is symmetric under z -> -z, so each column needs exp at
    # one row per distinct |z| only.
    P = ql.model_set_1d(1, 400.0)
    T = 300.0
    n = np.count_nonzero(np.abs(P.z[:, 0]) <= T + BALL_PAD)
    rows = []
    exp = np.exp

    def counting(x, *args, **kw):
        rows.append(np.shape(x)[0])
        return exp(x, *args, **kw)

    monkeypatch.setattr(np, "exp", counting)
    ql.bragg_scan(P, 0.5, 1.0, 0.01, 0.0, T)
    assert rows and max(rows) <= math.ceil(n / 2) + 1


def test_phase_blocks_stay_small():
    # Blocks of 32,768 entries keep the phase table in cache; at 1,000,000
    # entries each call below peaked above 30 MB.
    P = ql.model_set_1d(1, 8000.0)
    peaks = []
    for call in (lambda: ql.bragg_scan(P, 0.5, 10.0, 1e-3, 0.0, 300.0),
                 lambda: sp.palm_profile(P, np.linspace(-1.0, 1.0, 401), 0.0, 7000.0)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 8 * 2**20 and peaks[1] < 12 * 2**20


def per_row_palm(P, thetas, S, T):
    """Reference for fibered palm_profile: one phase per row, rows with
    |z| > T masked to zero, reduceat over every fiber, then the fibers
    within S kept."""
    order, bounds = sp.fiber_partition(P)
    z = P.z[order]
    zmask = np.sqrt(np.sum(z * z, axis=1)) <= T + BALL_PAD
    heads = order[bounds[:-1]]
    sel = np.sqrt(np.sum(P.q[heads] * P.q[heads], axis=1)) <= S + BALL_PAD
    phases = plain_phases(z, thetas) * zmask[:, None]
    sums = np.add.reduceat(phases, bounds[:-1], axis=0)
    dens = np.abs(sums / ql.ball_volume(P.dim_z, T)) ** 2
    return (dens[sel].sum(axis=0) / ql.ball_volume(P.dim_q, S))[: len(thetas)]


@pytest.mark.parametrize("S, T", [(12.0, 40.0), (12.0, 31.0), (5.0, 17.3), (12.0, 1.0), (1.0, 3.0)])
def test_palm_profile_is_bit_identical_to_per_row_phases(h3_lattice, S, T):
    thetas = np.linspace(-1.0, 1.0, 41).reshape(-1, 1)
    assert np.array_equal(sp.palm_profile(h3_lattice, thetas, S, T), per_row_palm(h3_lattice, thetas, S, T))
    one = np.array([[0.37]])
    assert np.array_equal(sp.palm_profile(h3_lattice, one, S, T), per_row_palm(h3_lattice, one, S, T))


@pytest.mark.parametrize("dim_z, dim_q, wz, wq", [(2, 1, 6.0, 4.0), (3, 1, 3.0, 3.0), (2, 2, 5.0, 3.0)])
def test_palm_profile_bit_identity_on_abelian_extensions(dim_z, dim_q, wz, wq):
    P = ql.integer_lattice_patch(ql.abelian_group(dim_z, dim_q), wz, wq)
    thetas = np.random.default_rng(dim_z + dim_q).uniform(-1.0, 1.0, (23, dim_z))
    for S, T in ((wq, wz), (wq - 1.5, wz - 1.7), (1.0, 2.0)):
        for th in (thetas, thetas[:1]):
            assert np.array_equal(sp.palm_profile(P, th, S, T), per_row_palm(P, th, S, T))


def test_palm_profile_without_a_fiber_within_S_is_zero():
    q = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 2.0], [-2.0, 0.0]])
    z = np.array([[0.0], [1.0], [0.0], [2.0]])
    P = ql.make_patch(group=ql.heisenberg_group(), z=z, q=q, window_z=2.0, window_q=2.0,
                      core_z=2.0, core_q=2.0)
    thetas = np.array([[0.0], [0.25]])
    got = sp.palm_profile(P, thetas, 1.0, 2.0)
    assert np.array_equal(got, np.zeros(2))
    assert np.array_equal(got, per_row_palm(P, thetas, 1.0, 2.0))


def lattice_palm(theta, S, T):
    """c_theta on the H3 integer lattice: each of the N_S fibers over the
    S-disk holds every integer n with |n| <= T."""
    r = math.floor(S)
    n_s = sum(1 for a in range(-r, r + 1) for b in range(-r, r + 1) if a * a + b * b <= S * S)
    twisted = 1.0 + 2.0 * math.fsum(math.cos(TWO_PI * theta * n) for n in range(1, math.floor(T) + 1))
    return n_s * twisted ** 2 / ((2.0 * T) ** 2 * math.pi * S * S)


@pytest.mark.parametrize("S, T", [(12.0, 40.0), (5.0, 17.3), (7.5, 31.0), (1.0, 3.0)])
def test_palm_profile_matches_the_h3_lattice_closed_form(h3_lattice, S, T):
    thetas = np.array([0.0, 0.1, 0.25, 0.5, 1.0, -2.0])
    for theta, c in zip(thetas, sp.palm_profile(h3_lattice, thetas, S, T)):
        assert c == pytest.approx(lattice_palm(theta, S, T), rel=1e-12)


def z2_palm(theta, T):
    """c_theta on the flat lattice Z^2, the horizontal half of H3(Z): the
    points n with |n| <= T are counted in Python ints, and the phase sum is
    real since the disk is symmetric under n -> -n."""
    r, t2 = math.floor(T), T * T
    pts = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1) if a * a + b * b <= t2]
    total = math.fsum(math.cos(TWO_PI * (theta[0] * a + theta[1] * b)) for a, b in pts)
    return total ** 2 / (math.pi * T * T) ** 2


@pytest.mark.parametrize("T", [5.0, 10.3, 17.7, 24.0])
def test_flat_palm_profile_matches_the_z2_closed_form(T):
    # T = 5 and 24 put lattice points on the circle |n| = T, such as (3, 4).
    Z2 = ql.integer_lattice_patch(ql.abelian_group(2, 0), window_z=25.0)
    thetas = np.array([[0.0, 0.0], [1.0, -2.0], [0.5, 0.0], [0.1, 0.2], [0.25, 0.25], [0.3, 0.7], [0.03, 0.0]])
    for theta, c in zip(thetas, sp.palm_profile(Z2, thetas, 0.0, T)):
        assert c == pytest.approx(z2_palm(theta, T), rel=1e-12)
    assert sp.palm_profile(Z2, thetas[:1], 0.0, T)[0] == pytest.approx(1.0, abs=2.0 / T)


def test_fibered_palm_forms_one_phase_per_distinct_z(h3_lattice, monkeypatch):
    sizes = []
    phase_columns = sp._phase_columns

    def counting(z, thetas, *args):
        sizes.append(len(z))
        return phase_columns(z, thetas, *args)

    monkeypatch.setattr(sp, "_phase_columns", counting)
    sp.palm_profile(h3_lattice, np.linspace(-1.0, 1.0, 41), 12.0, 40.0)
    assert sizes and max(sizes) <= 81


def full_palm(P, thetas, S, T):
    """Reference for palm_profile: one phase column for every theta row,
    all in one block; fibered patches go through per_row_palm."""
    thetas = np.asarray(thetas, dtype=float).reshape(-1, P.dim_z)
    if P.dim_q:
        return per_row_palm(P, thetas, S, T)
    zm = P.z[np.sqrt(np.sum(P.z * P.z, axis=1)) <= T + BALL_PAD]
    vals = plain_phases(zm, thetas)
    return (np.abs(vals.sum(axis=0) / ql.ball_volume(P.dim_z, T)) ** 2)[: len(thetas)]


def float_line(n, seed):
    """n random irrational points on the line, as a flat patch."""
    z = np.random.default_rng(seed).uniform(-100.0, 100.0, (n, 1)) * math.sqrt(2.0)
    return ql.make_patch(group=ql.abelian_group(1, 0), z=z, q=np.zeros((n, 0)),
                         window_z=150.0, window_q=0.0, core_z=140.0, core_q=0.0)


@pytest.fixture(scope="module")
def line_scans():
    """(patch, S, T) for the one-dimensional scans."""
    return {
        "silver": (ql.model_set_1d(1, 500.0), 0.0, 480.0),
        "h3": (ql.integer_lattice_patch(ql.heisenberg_group(), 20.0, 5.0), 5.0, 17.3),
        "float": (float_line(3000, 5), 0.0, 130.0),
    }


MIRROR_THETAS = {
    "symmetric": sp._frequency_grid(1.0, 0.01)[:, 0],
    "no mirror pairs": np.random.default_rng(7).uniform(0.01, 2.0, 37) * (-1.0) ** np.arange(37),
    "repeated": np.array([0.3, 0.3, -0.3, 0.7, 0.3, -0.7, 0.7]),
    "lone": np.array([0.37]),
    "one pair": np.array([-0.37, 0.37]),
    "signed zero": np.array([-0.0, 0.0, 0.25, -0.0]),
}


@pytest.mark.parametrize("case", list(MIRROR_THETAS))
@pytest.mark.parametrize("name", ["silver", "h3", "float"])
def test_palm_profile_per_abs_theta_keeps_every_byte(line_scans, name, case):
    P, S, T = line_scans[name]
    thetas = MIRROR_THETAS[case]
    assert sp.palm_profile(P, thetas, S, T).tobytes() == full_palm(P, thetas, S, T).tobytes()


@pytest.mark.parametrize("name", ["silver", "h3", "float"])
def test_palm_profile_last_block_of_one_abs_theta(line_scans, name, monkeypatch):
    P, S, T = line_scans[name]
    thetas = np.linspace(-1.0, 1.0, 17)  # 9 distinct |theta|
    blocks = []
    phase_columns = sp._phase_columns

    def recording(z, th, *args, **kw):
        blocks.append(len(th))
        return phase_columns(z, th, *args, **kw)

    monkeypatch.setattr(sp, "_theta_block", lambda n: 4)
    monkeypatch.setattr(sp, "_phase_columns", recording)
    got = sp.palm_profile(P, thetas, S, T)
    assert blocks == [4, 4, 1]
    assert got.tobytes() == full_palm(P, thetas, S, T).tobytes()


def test_one_d_scans_form_only_the_columns_and_rows_they_use(line_scans, monkeypatch):
    shapes = []
    phase_columns = sp._phase_columns

    def recording(z, th, *args, **kw):
        shapes.append((len(z), len(th)))
        return phase_columns(z, th, *args, **kw)

    monkeypatch.setattr(sp, "_phase_columns", recording)
    k = 20
    grid = sp._frequency_grid(1.0, 1.0 / k)  # 2k + 1 thetas, mirrored exactly
    for name in ("silver", "h3"):
        P, S, T = line_scans[name]
        shapes.clear()
        sp.palm_profile(P, grid, S, T)
        assert shapes and sum(cols for _, cols in shapes) <= k + 1
    silver = line_scans["silver"][0]
    schedule = sp.default_schedule(100.0)
    shapes.clear()
    sp._twisted_densities(silver.z, grid, schedule, silver.core_z)
    inside = np.count_nonzero(np.abs(silver.z[:, 0]) <= schedule[-1] + BALL_PAD)
    assert shapes and max(rows for rows, _ in shapes) <= inside < silver.n


def untrimmed_densities(fiber, thetas, schedule):
    """Reference for _twisted_densities: phases for every row of the
    fiber and every theta in one block, partial sums cut at the schedule.
    Returns (partials, cauchy_tail, converged, n_points) per theta."""
    z = np.asarray(fiber, dtype=float)
    norms = np.sqrt(np.sum(z * z, axis=1))
    order = np.lexsort(tuple(z.T[::-1]) + (norms,))
    phases = np.exp(-2j * math.pi * (z[order] @ thetas.T))
    cuts = np.searchsorted(norms[order], np.array(schedule) + BALL_PAD, side="right")
    sums = np.concatenate([np.zeros((1, len(thetas))), np.cumsum(phases, axis=0)])[cuts]
    vols = [ql.ball_volume(z.shape[1], T) for T in schedule]
    start = min(3 * len(schedule) // 4, len(schedule) - 1)
    out = []
    for col in sums.T:
        partials = [complex(total) / vol for total, vol in zip(col, vols)]
        tail = max(abs(v - partials[-1]) for v in partials[start:])
        conv = tail < max(sp.CONVERGENCE_REL * abs(partials[-1]), sp.CONVERGENCE_ABS)
        out.append((partials, tail, conv, len(z)))
    return out


def density_cases():
    rng = np.random.default_rng(11)
    silver = ql.model_set_1d(1, 300.0)
    line = float_line(3000, 3).z
    plane = rng.uniform(-40.0, 40.0, (2000, 2))
    spectrum_grid = sp._frequency_grid(1.0, 0.05)
    return {
        "silver spectrum, trimmed": (silver.z, spectrum_grid, sp.default_schedule(100.0), silver.core_z),
        "silver spectrum, whole": (silver.z, spectrum_grid, sp.default_schedule(300.0), silver.core_z),
        "float line": (line, rng.uniform(-2.0, 2.0, (40, 1)), sp.default_schedule(50.0), 140.0),
        "float line, lone theta": (line, np.array([[-0.61]]), sp.default_schedule(50.0), 140.0),
        "plane": (plane, rng.uniform(-1.0, 1.0, (30, 2)), sp.default_schedule(20.0), 40.0),
        "plane, lone theta": (plane, np.array([[0.3, -0.7]]), sp.default_schedule(20.0), 40.0),
        "-0.0 row, negative theta": (np.array([[-0.0], [1.0], [-1.0], [2.5]]), np.array([[-0.25]]), [0.5, 1.0, 3.0], 3.0),
        "no row within the schedule": (np.array([[50.0], [-60.0]]), np.array([[0.2], [-0.2]]), [1.0, 2.0], 70.0),
    }


@pytest.mark.parametrize("case", list(density_cases()))
def test_twisted_densities_match_the_untrimmed_sums(case):
    fiber, thetas, schedule, core = density_cases()[case]
    got = sp._twisted_densities(fiber, thetas, schedule, core)
    ref = untrimmed_densities(fiber, thetas, schedule)
    assert len(got) == len(ref)
    for est, (partials, tail, conv, n_points) in zip(got, ref):
        vals = np.array([est.value] + [v for _, v in est.partials])
        want = np.array([partials[-1]] + partials)
        assert vals.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(vals.view(float)), np.signbit(want.view(float)))
        assert [T for T, _ in est.partials] == list(schedule) and est.T_final == schedule[-1]
        assert np.float64(est.cauchy_tail).tobytes() == np.float64(tail).tobytes()
        assert est.converged == conv and est.n_points == n_points


def test_twisted_densities_keep_a_positive_zero_at_negative_theta():
    # The symmetric silver patch cancels every imaginary sum exactly.  Taking
    # D at -theta as the conjugate of D at |theta| would turn these +0 into
    # -0, and CLI spectrum would print im_D as -0.
    P = ql.model_set_1d(1, 20.0)
    grid = sp._frequency_grid(1.0, 0.05)
    ests = sp._twisted_densities(P.z, grid, sp.default_schedule(20.0), P.core_z)
    imag = np.array([e.value.imag for e, theta in zip(ests, grid[:, 0]) if theta < 0])
    assert len(imag) == 20 and np.all(imag == 0.0) and not np.signbit(imag).any()


def test_palm_profile_checks_the_theta_width(h3_lattice):
    with pytest.raises(ValueError):
        sp.palm_coefficient(h3_lattice, sp.character(0.3, 0.7), 3.0, 10.0)
    P2 = ql.integer_lattice_patch(ql.abelian_group(2, 1), 3.0, 2.0)
    flat2 = ql.integer_lattice_patch(ql.abelian_group(2, 0), 3.0)
    for P, S in ((P2, 1.0), (flat2, 0.0)):
        for thetas in (np.zeros((4, 1)), np.zeros(4), np.zeros((2, 3)), np.zeros((2, 2, 1))):
            with pytest.raises(ValueError):
                sp.palm_profile(P, thetas, S, 2.0)
    # A 1-d array is a column of thetas on one central coordinate.
    col = np.array([0.0, 0.3])
    assert np.array_equal(sp.palm_profile(h3_lattice, col, 3.0, 10.0),
                          sp.palm_profile(h3_lattice, col.reshape(-1, 1), 3.0, 10.0))


def test_palm_refuses_zero_radii(split_patch):
    flat = ql.model_set_1d(1, 20.0)
    for P, S, T in ((split_patch, 0.0, 8.0), (split_patch, -1.0, 8.0),
                    (split_patch, 1.5, 0.0), (flat, 0.0, 0.0)):
        with pytest.raises(DegenerateBallError):
            sp.palm_profile(P, np.array([0.0, 0.5]), S, T)


def test_results_do_not_depend_on_the_theta_blocks(split_patch, monkeypatch):
    flat = ql.model_set_1d(1, 60.0)
    Xi = ql.integer_lattice_patch(ql.abelian_group(2, 0), window_z=3.0)
    thetas = np.linspace(-1.0, 1.0, 41)
    cases = ((flat, 0.0, 60.0), (split_patch, 1.5, 8.0))

    def results():
        eps = sp.epsilon_dual(Xi, 0.5, 1.5, 0.1)
        return [sp.palm_profile(P, thetas, S, T) for P, S, T in cases] + [eps.thetas, eps.residuals]

    want = results()
    cuts = [0, 1, 3, 10, 41]
    for (P, S, T), whole in zip(cases, want):
        pieces = [sp.palm_profile(P, thetas[a:b], S, T) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(whole, np.concatenate(pieces))
        assert whole[0] == sp.palm_coefficient(P, sp.character(thetas[0]), S, T)
    # One theta per block, then a few thetas per block.
    for width in (1, 7):
        monkeypatch.setattr(sp, "_theta_block", lambda n, width=width: width)
        for got, ref in zip(results(), want):
            assert np.array_equal(got, ref)


def test_palm_flat_case_is_density_squared():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=50.0)
    c = sp.palm_coefficient(Z, sp.character(0.0), S=1.0, T=50.0)
    assert c == pytest.approx((101 / 100) ** 2)
    with pytest.raises(InsufficientWindowError):
        sp.palm_coefficient(Z, sp.character(0.0), S=1.0, T=51.0)


def test_palm_window_checks(split_patch):
    P = split_patch
    with pytest.raises(InsufficientWindowError):
        sp.palm_coefficient(P, sp.character(0.0), S=3.0, T=8.0)
    with pytest.raises(InsufficientWindowError):
        sp.palm_coefficient(P, sp.character(0.0), S=1.0, T=11.0)


def test_equivariance_residual_identity_is_zero(split_patch):
    P = split_patch
    e = P.group.identity()
    assert sp.equivariance_residual(P, e, [0.0, 0.0], sp.character(0.3), 8.0) == 0.0


def test_equivariance_residual_matches_formula(split_patch):
    P = split_patch
    H = P.group
    g = ql.element_from_ints([1], [0, 0])
    theta, T = 0.3, 4.0
    # central shift: both fibers stay complete, so the residual reduces
    # to |1 - xi(z_g)| times the base density
    base = brute_density(np.arange(-4.0, 5.0), theta, T)
    shift = brute_density(np.arange(-4.0, 5.0) + 0.0, theta, T)
    # shifted fiber holds z+1 for z in the original fiber
    shift = sum(cmath.exp(-2j * math.pi * theta * z)
                for z in np.arange(-10.0, 11.0) + 1.0
                if abs(z) <= T + 1e-12) / ql.ball_volume(1, T)
    phase = cmath.exp(-2j * math.pi * theta * 1.0)
    want = abs(shift - phase * base)
    got = sp.equivariance_residual(P, g, [0.0, 0.0], sp.character(theta), T)
    assert got == pytest.approx(want, abs=1e-12)


def test_epsilon_dual_matches_direct_residuals():
    Xi = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=12.0)
    rep = sp.epsilon_dual(Xi, eps=0.5, K=2.5, h=0.01)
    grid = np.arange(-round(2.5 / 0.01), round(2.5 / 0.01) + 1) * 0.01
    res = np.array([
        (2.0 * np.abs(np.sin(math.pi * th * Xi.z[:, 0]))).max() for th in grid
    ])
    want = grid[res <= 0.5]
    found = np.sort(rep.thetas[:, 0])
    assert np.allclose(found, want)
    assert rep.n_grid == len(grid)
    assert np.all(rep.residuals <= 0.5)
    # integer frequencies are exact peaks
    for k in (-2, -1, 0, 1, 2):
        assert np.any(np.abs(found - k) < 1e-12)
    assert rep.max_gap == pytest.approx(np.diff(found).max())


def test_epsilon_dual_validation():
    Xi = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=5.0)
    with pytest.raises(ValueError):
        sp.epsilon_dual(Xi, eps=-0.1, K=1.0, h=0.01)
    with pytest.raises(ValueError):
        sp.epsilon_dual(Xi, eps=0.5, K=1.0, h=0.0)


def test_sandwich_check_integer_lattice_counts():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=8.0)
    rep = sp.sandwich_check(Z, T=5.0)
    assert rep.count_inner == 11
    assert rep.count_outer == 15
    # mollified count: full mass on |x|<=5, half mass at x = +-6
    assert rep.integral == pytest.approx(12.0, abs=1e-3)
    assert rep.lower_ok and rep.upper_ok
    with pytest.raises(InsufficientWindowError):
        sp.sandwich_check(Z, T=8.0)


def test_split_data_and_periodization(split_patch):
    P = split_patch
    H = P.group
    s0 = sp.split_data(P, sp.character(0.0), 10.0)
    assert s0.D_xi_e == pytest.approx(21 / 20)
    assert s0.Xi.n == 21 and s0.Delta.n == 25
    phi = sp.SampledFunction.indicator([0.0, 0.0])
    assert sp.twisted_periodization(s0, phi, sp.character(0.0), H.identity()) \
        == pytest.approx(21 / 20)

    xi = sp.character(0.25)
    s = sp.split_data(P, xi, 10.0)
    g = ql.element_from_ints([1], [1, 0])
    phi_m = sp.SampledFunction.indicator([-1.0, 0.0])
    got = sp.twisted_periodization(s, phi_m, xi, g)
    beta = H.cocycle.beta(np.array([1.0, 0.0]), np.array([-2.0, 0.0]))
    want = s.D_xi_e * cmath.exp(-2j * math.pi * 0.25 * (1.0 + beta[0]))
    assert got == pytest.approx(want)
    # phi support shifted outside the projection core is refused
    with pytest.raises(InsufficientWindowError):
        sp.twisted_periodization(s, phi, xi, ql.element_from_ints([0], [3, 0]))
    # empty overlap gives exactly zero
    assert sp.twisted_periodization(
        s, sp.SampledFunction.indicator([0.5, 0.5]), xi, H.identity()) == 0j


def test_periodization_is_central_eigenfunction(split_patch):
    P = split_patch
    xi = sp.character(0.3)
    s = sp.split_data(P, xi, 10.0)
    phi = sp.SampledFunction(points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0]]),
                             values=[1.0, 0.5j, -2.0], support_radius=1.0)
    q = (1.0, -1.0)
    base = sp.twisted_periodization(s, phi, xi, ql.GroupElement(z=(0.25,), q=q))
    assert base != 0j
    for dz in (1.0, -2.5, 0.125):
        shifted = sp.twisted_periodization(
            s, phi, xi, ql.GroupElement(z=(0.25 + dz,), q=q))
        assert shifted == pytest.approx(
            cmath.exp(-2j * math.pi * 0.3 * dz) * base)


def test_sampled_function_container():
    f = sp.SampledFunction(points=np.array([[0.0, 0.0], [1.0, 2.0]]), values=[1.0, 2j], support_radius=2.0)
    vals = f.lookup(np.array([[1.0, 2.0], [0.0, 0.0], [9.0, 9.0]]))
    assert vals[0] == 2j and vals[1] == 1.0 and vals[2] == 0.0
    ind = sp.SampledFunction.indicator([3.0, -4.0])
    assert ind.support_radius == 4.0
    assert ind.lookup(np.array([[3.0, -4.0]]))[0] == 1.0


@pytest.mark.parametrize("P, S, T", [
    (ql.model_set_1d(1, 2000.0), 0.0, 1900.0),
    (ql.integer_lattice_patch(ql.heisenberg_group(), 40.0, 12.0), 10.0, 35.0),
], ids=["flat", "fibered"])
def test_palm_profile_holds_one_theta_block_at_a_time(P, S, T):
    # Many blocks may not need more memory than one: each block's phases
    # are freed before the next block forms its own.  The thetas have
    # distinct magnitudes, so palm_profile forms a column for each.
    block = sp._theta_block(P.n)
    peaks = []
    for n_blocks in (1, 4):
        thetas = np.linspace(0.0, 1.0, n_blocks * block)
        tracemalloc.start()
        try:
            sp.palm_profile(P, thetas, S, T)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]
