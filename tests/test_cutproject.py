"""Cut-and-project schemes, symplectic products, fibers, alignment."""

import numpy as np
import pytest

import quasilat as ql
import quasilat.cutproject as cp
import quasilat.pointset as ps
from quasilat.errors import (
    SIZE_CAPS,
    BoundaryUnsoundError,
    InsufficientWindowError,
    SizeLimitError,
    ThresholdTooSmallError,
)


@pytest.fixture(scope="module")
def split():
    H = ql.heisenberg_group()
    Xi = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=10.0)
    De = ql.integer_lattice_patch(ql.abelian_group(2, 0), window_z=2.0)
    return H, Xi, De, ql.symplectic_product(Xi, De, H, k=2)


def even_integer_line(window=16.0):
    z = np.arange(-window, window + 1.0, 2.0).reshape(-1, 1)
    return ql.make_patch(
        group=ql.abelian_group(1, 0), z=z, q=np.zeros((len(z), 0)),
        window_z=window, window_q=0.0, core_z=window, core_q=0.0,
        provenance="even integers",
    )


def test_silver_scheme_matches_shorthand():
    a = ql.generate_model_set(ql.silver_scheme(-1.0, 1.0), 6.0)
    b = ql.model_set_1d(1, 6.0)
    assert a.n == b.n == 11
    assert np.array_equal(a.exact.za, b.exact.za)
    assert np.array_equal(a.exact.zb, b.exact.zb)


def test_matrix_scheme_produces_sublattice():
    # internal coordinate of (m, n) under [[1,1],[1,-1]] is m - n; the
    # narrow window keeps only m = n, so the physical points are even
    s = ql.matrix_scheme([[1.0, 1.0], [1.0, -1.0]], physical_dim=1,
                         window=[(-0.5, 0.5)])
    m = ql.generate_model_set(s, 5.0)
    assert np.allclose(np.sort(m.z[:, 0]), [-4.0, -2.0, 0.0, 2.0, 4.0])


def test_symplectic_product_full_grid(split):
    H, Xi, De, P = split
    assert P.n == Xi.n * De.n == 525
    assert "beta_cond=ok(k=2)" in P.provenance
    want = {
        (float(z), float(q1), float(q2))
        for z in Xi.z[:, 0]
        for q1, q2 in De.z
    }
    got = {(float(z), float(q1), float(q2)) for (z,), (q1, q2) in zip(P.z, P.q)}
    assert got == want


def test_condition_report_holds(split):
    H, Xi, De, P = split
    rep = ql.check_symplectic_condition(Xi, De, H.cocycle, 2)
    assert rep.holds and rep.witness is None
    assert rep.n_checked == De.n ** 3 == 15625
    assert rep.max_abs_beta == 16.0
    assert rep.coverage == 20.0
    assert rep.k == 2


def test_condition_float_path_agrees(split):
    H, Xi, De, P = split
    z = np.arange(-8.0, 8.25, 0.25).reshape(-1, 1)
    Xif = ql.make_patch(group=ql.abelian_group(1, 0), z=z,
                        q=np.zeros((len(z), 0)), window_z=8.0, window_q=0.0,
                        core_z=8.0, core_q=0.0, provenance="quarter grid")
    assert Xif.exact is None
    rep = ql.check_symplectic_condition(Xif, De, H.cocycle, 2)
    assert rep.holds and rep.n_checked == 15625


def test_condition_failure_names_missing_value(split):
    H, Xi, De, P = split
    rep = ql.check_symplectic_condition(even_integer_line(), De, H.cocycle, 2)
    assert not rep.holds
    # witness is a beta value (odd) absent from sums of even integers
    assert rep.witness == (-11.0,)
    tagged = ql.symplectic_product(even_integer_line(), De, H, k=2)
    assert "beta_cond=fail(k=2)" in tagged.provenance


def test_condition_requires_coverage(split):
    H, Xi, De, P = split
    small = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=4.0)
    with pytest.raises(InsufficientWindowError):
        ql.check_symplectic_condition(small, De, H.cocycle, 2)
    zero = ql.make_patch(group=ql.abelian_group(1, 0), z=np.zeros((1, 1)),
                         q=np.zeros((1, 0)), window_z=0.0, window_q=0.0,
                         core_z=0.0, core_q=0.0, provenance="origin")
    with pytest.raises(InsufficientWindowError):
        ql.check_symplectic_condition(zero, De, H.cocycle, 2)


def test_symplectic_product_dimension_check(split):
    H, Xi, De, P = split
    with pytest.raises(ValueError):
        ql.symplectic_product(De, De, H, k=2)


def test_symplectic_product_requires_symmetric_factors(split):
    H, Xi, De, P = split
    lopsided = Xi.take(np.flatnonzero(Xi.z[:, 0] < Xi.z[:, 0].max()))
    with pytest.raises(ValueError, match="symmetric"):
        ql.symplectic_product(lopsided, De, H, k=2)
    with pytest.raises(ValueError, match="symmetric"):
        ql.symplectic_product(Xi, De.take(np.flatnonzero(De.z[:, 0] != 0.0)), H, k=2)


def test_project_drops_fiber_coordinates(split):
    H, Xi, De, P = split
    pr = ql.project(P)
    assert pr.n == De.n == 25
    assert pr.group.dim_z == 2 and pr.group.dim_q == 0
    assert np.array_equal(pr.key_matrix, De.key_matrix)
    flat = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=3.0)
    with pytest.raises(ValueError):
        ql.project(flat)


def test_fiber_extraction(split):
    H, Xi, De, P = split
    f = ql.fiber(P, [1.0, -1.0])
    assert np.array_equal(np.sort(f.ravel()), np.arange(-10.0, 11.0))
    # lookup tolerates tiny float error in delta
    f2 = ql.fiber(P, [1.0 + 5e-10, -1.0])
    assert len(f2) == len(f)
    assert ql.fiber(P, [9.0, 9.0]).shape == (0, 1)


def test_alignment_report_full_product(split):
    H, Xi, De, P = split
    rep = ql.alignment_report(P, 1.0)
    assert rep.uniformly_large
    assert len(rep.fibers) == 25
    assert rep.essential_fraction == 1.0
    assert rep.projection_min_gap == 1.0
    assert all(f.essential and f.cardinality == 21 for f in rep.fibers)
    assert all(f.covering_estimate <= 1.0 for f in rep.fibers)


def one_point_fibers(P):
    """P with the fibers over (+-2, 0) hollowed out to the single point z = 0."""
    hit = (np.abs(np.abs(P.q[:, 0]) - 2.0) < 1e-9) & (
        np.abs(P.q[:, 1]) < 1e-9) & (np.abs(P.z[:, 0]) > 1e-9)
    return P.take(np.flatnonzero(~hit))


def test_enforce_uniform_fibers_restores_alignment(split, monkeypatch):
    H, Xi, De, P = split
    reduced = one_point_fibers(P)
    assert not ql.alignment_report(reduced, 1.0).uniformly_large
    calls, core_fibers = [], cp._core_fibers
    monkeypatch.setattr(cp, "_core_fibers", lambda Q: calls.append(Q) or core_fibers(Q))
    repaired = ql.enforce_uniform_fibers(reduced, 1.0)
    # the report and the rows it keeps come from one fiber pass over the square
    assert len(calls) == 1
    monkeypatch.undo()
    rep = ql.alignment_report(repaired, 1.0)
    assert rep.uniformly_large
    # the surviving fibers each still carry a full interval of points
    assert {f.delta for f in rep.fibers} <= {
        tuple(map(float, row)) for row in De.z
    }


def test_enforce_uniform_fibers_errors(split):
    H, Xi, De, P = split
    with pytest.raises(ThresholdTooSmallError):
        ql.enforce_uniform_fibers(P, 0.01)
    hit = ((np.abs(P.q[:, 0] - 1.0) < 1e-9)
           & (np.abs(P.q[:, 1] + 1.0) < 1e-9) & (P.z[:, 0] > 9.0))
    asym = P.take(np.flatnonzero(~hit))
    with pytest.raises(ValueError):
        ql.enforce_uniform_fibers(asym, 1.0)


def test_cartesian_flat_concatenates_exactly():
    a = ql.model_set_1d(1, 8.0)
    b = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=2.0)
    c = ql.cartesian_flat(a, b)
    assert c.n == a.n * b.n
    assert c.group.dim_z == 2 and c.group.dim_q == 0
    assert c.exact is not None
    want = {
        (x[0], x[1], y[0], y[1])
        for x in a.key_matrix.tolist()
        for y in b.key_matrix.tolist()
    }
    got = {
        (za1, zb1, za2, zb2)
        for (za1, za2), (zb1, zb2) in zip(c.exact.za.tolist(), c.exact.zb.tolist())
    }
    assert got == want


@pytest.mark.parametrize("basis, exact", [([[1, 1], [1, -1]], True), ([[1.5, 1.0], [1.0, -1.0]], False)],
                         ids=["integral", "float-key"])
def test_matrix_scheme_with_an_empty_window_gives_an_empty_flat_patch(basis, exact):
    # The internal coordinate m - n is an integer, so (0.1, 0.2) holds no point.
    P = ql.generate_model_set(ql.matrix_scheme(basis, 1, [(0.1, 0.2)]), 5.0)
    assert P.n == 0 and P.z.shape == (0, 1) and P.q.shape == (0, 0)
    assert (P.group.dim_z, P.group.dim_q) == (1, 0)
    assert (P.window_z, P.window_q, P.core_z, P.core_q) == (5.0, 0.0, 5.0, 0.0)
    if exact:
        assert P.exact.za.shape == P.exact.zb.shape == (0, 1)
        assert P.exact.qa.shape == P.exact.qb.shape == (0, 0)
    else:
        assert P.exact is None


def test_project_of_an_empty_h3_patch_is_an_empty_flat_patch():
    H = ql.integer_lattice_patch(ql.heisenberg_group(), 4.0, 2.0, core_z=3.0, core_q=1.5)
    empty = H.take(np.zeros(0, dtype=np.int64))
    pr = ql.project(empty)
    assert pr.n == 0 and pr.z.shape == (0, 2) and pr.q.shape == (0, 0)
    assert (pr.group.dim_z, pr.group.dim_q) == (2, 0)
    assert (pr.window_z, pr.window_q, pr.core_z, pr.core_q) == (2.0, 0.0, 1.5, 0.0)
    assert pr.exact.za.shape == pr.exact.zb.shape == (0, 2)
    assert pr.exact.qa.shape == pr.exact.qb.shape == (0, 0)


def float_key_square():
    """A float-key H3 patch and its square, clipped to the patch boxes."""
    H = ql.heisenberg_group()
    q_axis = 0.1 * np.arange(-3, 4)
    zs, q0, q1 = np.meshgrid(np.arange(-8, 9), q_axis, q_axis, indexing="ij")
    P = ql.make_patch(group=H, z=zs.reshape(-1, 1).astype(float),
                      q=np.stack([q0.ravel(), q1.ravel()], axis=1),
                      window_z=8.0, window_q=0.3, core_z=8.0, core_q=0.3)
    assert P.exact is None
    square = ql.minkowski(P, P).restrict(z_box=P.window_z, q_box=P.window_q)
    square = square.take(np.arange(square.n), core_z=min(P.core_z, square.window_z),
                         core_q=min(P.core_q, square.window_q))
    return P, square


def test_enforce_uniform_fibers_keeps_float_key_fibers_whole():
    P, square = float_key_square()
    rep = ql.alignment_report(square, 1.5, h=0.05)
    assert len(rep.fibers) == 49 and rep.uniformly_large
    over_core = int(np.count_nonzero(np.all(np.abs(square.q) <= square.core_q + 1e-12, axis=1)))
    # every fiber is essential, so every point over the q-core survives;
    # the q floats of one fiber differ in the last bit in most fibers
    kept = ql.enforce_uniform_fibers(P, 1.5, h=0.05)
    assert kept.n == over_core == sum(f.cardinality for f in rep.fibers)


def per_fiber_alignment(P, R_threshold, h=0.01, z_radius=None):
    """Reference for alignment_report: one flat patch per fiber over the
    q-core, covered by covering_radius with a KD-tree nearest search."""
    from scipy.spatial import cKDTree

    z_radius = P.core_z if z_radius is None else z_radius
    order, starts = cp._core_fibers(P)
    flat = ql.abelian_group(P.dim_z, 0)
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ps, "_nearest_distance", lambda pts, rows: cKDTree(pts).query(rows)[0])
        for rows in np.split(order, starts[1:]):
            fib = ql.PointPatch(group=flat, z=P.z[rows], q=np.zeros((len(rows), 0)),
                                window_z=P.window_z, window_q=0.0, core_z=z_radius, core_q=0.0)
            est = ql.covering_radius(fib, h=h).estimate
            out.append((tuple(float(v) for v in P.q[rows[0]]), len(rows), est.hex(), bool(est <= R_threshold)))
    return out


def fiber_rows(rep):
    return [(f.delta, f.cardinality, f.covering_estimate.hex(), f.essential) for f in rep.fibers]


def edge_fibers():
    """Fibers over q = -1, 0, 1 with h = 0.25 and z probes -2..2: one point
    alone, repeated z values, points on probes, at probe midpoints (also
    equidistant from two points) and at and beyond both ends of the box."""
    fibers = [
        [0.3],
        [-1.0, -1.0, 0.5, 0.5, 0.5, 1.75],
        [-2.5, -2.0, -0.375, 0.125, 0.625, 1.875, 2.0, 2.125],
    ]
    z = np.array([v for f in fibers for v in f]).reshape(-1, 1)
    q = np.array([[float(j - 1), 0.0] for j, f in enumerate(fibers) for _ in f])
    # PointPatch, not make_patch: the repeated points stay repeated.
    return ql.PointPatch(group=ql.heisenberg_group(), z=z, q=q,
                         window_z=3.0, window_q=1.0, core_z=2.0, core_q=1.0)


@pytest.mark.parametrize("case", ["h3", "h3-inner-box", "float-keys", "split", "one-point", "edges"])
def test_alignment_report_equals_the_per_fiber_covering_loop(case, split):
    H, Xi, De, SP = split
    P, R, h, z_radius = {
        "h3": lambda: (ql.integer_lattice_patch(H, 18.0, 4.0), 1.0, 0.01, None),
        "h3-inner-box": lambda: (ql.integer_lattice_patch(H, 12.0, 3.0), 0.6, 0.037, 7.3),
        "float-keys": lambda: (float_key_square()[1], 1.5, 0.05, None),
        "split": lambda: (SP, 1.0, 0.01, None),
        "one-point": lambda: (one_point_fibers(SP), 1.0, 0.01, None),
        "edges": lambda: (edge_fibers(), 1.0, 0.25, None),
    }[case]()
    rep = ql.alignment_report(P, R, h=h, z_radius=z_radius)
    want = per_fiber_alignment(P, R, h=h, z_radius=z_radius)
    assert fiber_rows(rep) == want
    if case == "one-point":
        assert min(f.cardinality for f in rep.fibers) == 1 and not rep.uniformly_large
    if case == "edges":
        assert [f.cardinality for f in rep.fibers] == [1, 6, 8]


def test_alignment_report_refusals(split, monkeypatch):
    H, Xi, De, P = split
    calls = {"grid": 0, "fiber": 0}
    grid, nearest = cp._grid_rows, cp._nearest_distance

    def counted_grid(*args):
        calls["grid"] += 1
        return grid(*args)

    def counted_nearest(*args):
        calls["fiber"] += 1
        return nearest(*args)

    monkeypatch.setattr(cp, "_grid_rows", counted_grid)
    monkeypatch.setattr(cp, "_nearest_distance", counted_nearest)
    with pytest.raises(SizeLimitError) as exc:
        ql.alignment_report(P, 1.0, h=1e-320)
    assert str(exc.value).startswith(SIZE_CAPS["probes"][1])
    assert calls == {"grid": 1, "fiber": 0}
    # A negative box would otherwise make an empty probe grid.
    with pytest.raises(ValueError, match="probe radii must be non-negative"):
        ql.alignment_report(P, 1.0, z_radius=-0.5)
    with pytest.raises(BoundaryUnsoundError):
        ql.alignment_report(P, 1.0, z_radius=P.core_z + 1e-6)
    assert calls["fiber"] == 0
