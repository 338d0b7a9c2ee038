"""Patch container semantics and set operations against brute force."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import quasilat as ql
from quasilat.errors import (
    BoundaryUnsoundError,
    CoefficientOverflowError,
    InsufficientWindowError,
    RadicandMismatchError,
    SizeLimitError,
)
from quasilat.pointset import _PAIR_CHUNK, group_rows

S2 = math.sqrt(2.0)


def small_h3_patch(window_z=6.0, window_q=2.0):
    return ql.integer_lattice_patch(
        ql.heisenberg_group(), window_z=window_z, window_q=window_q
    )


def test_make_patch_canonical_order_and_dedup(rng):
    z = rng.integers(-5, 6, size=(60, 1)).astype(float)
    q = rng.integers(-5, 6, size=(60, 2)).astype(float)
    A = ql.abelian_group(1, 2)
    p1 = ql.make_patch(group=A, z=z, q=q, window_z=5.0, window_q=5.0,
                       core_z=5.0, core_q=5.0, provenance="a")
    perm = rng.permutation(60)
    p2 = ql.make_patch(group=A, z=z[perm], q=q[perm], window_z=5.0, window_q=5.0,
                       core_z=5.0, core_q=5.0, provenance="b")
    assert np.array_equal(p1.z, p2.z) and np.array_equal(p1.q, p2.q)
    assert p1.n == len({(float(a), float(b), float(c)) for a, b, c in np.hstack([z, q])})
    doubled = ql.make_patch(group=A, z=np.vstack([z, z]), q=np.vstack([q, q]),
                            window_z=5.0, window_q=5.0, core_z=5.0, core_q=5.0,
                            provenance="c")
    assert doubled.n == p1.n


def test_make_patch_keeps_lowest_float_of_an_exact_key():
    # Float sums of exact points can land an ulp apart from each other; the
    # survivor is the lowest float, whatever the input order.
    base = 3 + 2 * S2
    floats = np.array([np.nextafter(base, 9.0), base, np.nextafter(base, 0.0)])
    one = np.ones((3, 1), dtype=np.int64)
    empty = np.zeros((3, 0), dtype=np.int64)
    for perm in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        exact = ql.ExactCoords(za=3 * one, zb=2 * one, qa=empty, qb=empty)
        P = ql.make_patch(group=ql.abelian_group(1, 0), z=floats[perm].reshape(3, 1),
                          q=np.zeros((3, 0)), window_z=6.0, window_q=0.0,
                          core_z=6.0, core_q=0.0, exact=exact)
        assert P.n == 1 and P.z[0, 0] == floats.min()


def test_patch_validation():
    A = ql.abelian_group(1, 0)
    with pytest.raises(ValueError):
        ql.make_patch(group=A, z=np.zeros((2, 1)), q=np.zeros((2, 0)),
                      window_z=1.0, window_q=0.0, core_z=2.0, core_q=0.0,
                      provenance="core exceeds window")
    with pytest.raises(ValueError):
        ql.make_patch(group=A, z=np.array([[5.0]]), q=np.zeros((1, 0)),
                      window_z=1.0, window_q=0.0, core_z=1.0, core_q=0.0,
                      provenance="point outside window")


def test_take_and_restrict():
    P = small_h3_patch()
    R = P.restrict(z_box=2.0, q_box=1.0)
    assert R.n == 5 * 9
    assert np.all(np.abs(R.z) <= 2.0) and np.all(np.abs(R.q) <= 1.0)
    assert R.window_z == 2.0 and R.core_z == 2.0
    sub = P.take(np.arange(10), core_z=1.0, core_q=0.5)
    assert sub.n == 10 and sub.core_z == 1.0 and sub.core_q == 0.5


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_box_mask_matches_a_per_coordinate_comparison(data):
    dim_z, dim_q = data.draw(st.sampled_from([(1, 0), (0, 1), (1, 2), (2, 1), (2, 2)]))
    z_box = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, math.inf]))
    q_box = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, math.inf]))

    def coord(b):
        # On the boundary, one pad inside or outside it, or anywhere.
        edges = [0.0] if b == math.inf else [b, b - 1e-12, b + 1e-12, b + 2e-12]
        return st.sampled_from(edges + [-e for e in edges]) | st.floats(-3.0, 3.0)

    n = data.draw(st.integers(0, 8))
    z = [[data.draw(coord(z_box)) for _ in range(dim_z)] for _ in range(n)]
    q = [[data.draw(coord(q_box)) for _ in range(dim_q)] for _ in range(n)]
    G = ql.CentralExtensionGroup(ql.abelian_cocycle(dim_z, dim_q))
    P = ql.PointPatch(group=G, z=np.array(z, dtype=float).reshape(n, dim_z),
                      q=np.array(q, dtype=float).reshape(n, dim_q),
                      window_z=4.0, window_q=4.0, core_z=0.0, core_q=0.0)
    want = [all(abs(v) <= z_box + 1e-12 for v in zr) and all(abs(v) <= q_box + 1e-12 for v in qr)
            for zr, qr in zip(z, q)]
    assert P.box_mask(z_box, q_box).tolist() == want


def test_exact_keys_match_floats():
    t = ql.model_set_1d(1, 30.0)
    assert t.exact is not None
    np.testing.assert_allclose(
        t.z[:, 0], t.exact.za[:, 0] + t.exact.zb[:, 0] * S2, atol=1e-12
    )
    km = t.key_matrix
    assert km.shape == (t.n, 2)
    assert len(np.unique(km, axis=0)) == t.n


def test_minkowski_flat_exact_matches_set_arithmetic():
    a = ql.model_set_1d(1, 8.0)
    b = ql.model_set_1d(1, 5.0)
    s = ql.minkowski(a, b)
    want = {
        (x[0] + y[0], x[1] + y[1])
        for x in a.key_matrix.tolist()
        for y in b.key_matrix.tolist()
    }
    assert set(map(tuple, s.key_matrix.tolist())) == want
    assert s.window_z == 13.0
    assert s.exact is not None


@pytest.fixture(scope="module")
def product_cases(split_product):
    H = ql.heisenberg_group()
    P = small_h3_patch(window_z=2.0, window_q=1.0)
    D = ql.minkowski(ql.inverse_set(P), P)
    S = ql.model_set_1d(1, 20.0)
    Ds = ql.minkowski(ql.inverse_set(S), S)
    # Float keys only: jittered lattice points with sqrt2-scaled q.
    L = small_h3_patch(window_z=3.0, window_q=2.0)
    jitter = np.random.default_rng(11).uniform(-1e-3, 1e-3, size=(L.n, 3))
    F = ql.make_patch(H, L.z + jitter[:, :1], L.q * S2 + jitter[:, 1:], 3.01, 2 * S2 + 0.01, 2.0, 2.0)
    assert F.exact is None and F.n == L.n
    # Float keys whose products meet again up to rounding.
    R = ql.make_patch(H, P.z, P.q * S2, 2.0, S2, 2.0, S2)
    # Exact Z[sqrt2] points near 1.2e9, where one product key has float
    # representations further apart than any fixed pad.
    k = np.random.default_rng(3).integers(-6, 7, size=(40, 2))
    none = np.zeros((40, 0), dtype=np.int64)
    far = ql.ExactCoords(za=2**28 + k[:, :1], zb=2**28 + k[:, 1:], qa=none, qb=none, d=2)
    Z = ql.patch_from_exact(ql.abelian_group(1), far, 2.0**31, 0.0, 2.0**31, 0.0)
    pairs = {"h3 D*D": (D, D), "h3 P*D": (P, D), "silver D*D": (Ds, Ds),
             "split product": (split_product, split_product), "float h3": (F, F),
             "float sqrt2 h3": (R, R), "far Z[sqrt2] D": (ql.inverse_set(Z), Z)}
    return {name: (a, b, ql.minkowski(a, b)) for name, (a, b) in pairs.items()}


def assert_same_patch(a, b):
    assert a.z.tobytes() == b.z.tobytes() and a.q.tobytes() == b.q.tobytes()
    assert (a.window_z, a.window_q, a.core_z, a.core_q, a.provenance) == (
        b.window_z, b.window_q, b.core_z, b.core_q, b.provenance)
    assert (a.exact is None) == (b.exact is None)
    if a.exact is not None:
        assert a.exact.d == b.exact.d
        for f in ("za", "zb", "qa", "qb"):
            assert np.array_equal(getattr(a.exact, f), getattr(b.exact, f))


# Box edges on lattice points, on Z[sqrt2] points, in between, and infinite.
BOX_EDGES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 7.0, S2, 1 + S2, 2 * S2, 3 - S2, math.inf]),
    st.floats(0.0, 12.0),
)


@pytest.mark.parametrize(
    "case", ["h3 D*D", "h3 P*D", "silver D*D", "split product", "float h3", "float sqrt2 h3", "far Z[sqrt2] D"]
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_box_clipped_minkowski_equals_restrict_after_product(product_cases, case, data):
    p1, p2, full = product_cases[case]
    # Also edges on coordinates of the product itself.
    z_box = data.draw(st.one_of(BOX_EDGES, st.sampled_from(np.abs(full.z).ravel().tolist())))
    q_box = data.draw(st.one_of(BOX_EDGES, st.sampled_from(np.abs(full.q).ravel().tolist() or [0.0])))
    assert_same_patch(ql.minkowski(p1, p2, z_box, q_box), full.restrict(z_box, q_box))


def _rows_last_beta(cocycle, v, w):
    # The rows-last einsum Cocycle.beta used before it went coordinates first.
    return np.einsum("kij,...i,...j->...k", cocycle.stack, v, w)


@pytest.mark.parametrize("dim_z, dim_q, kind", [
    pytest.param(1, 2, "real", id="1-2"), pytest.param(2, 3, "real", id="2-3"),
    pytest.param(3, 4, "real", id="3-4"), (1, 3, "integral"), (1, 2, "heisenberg"),
])
def test_cocycle_rows_match_all_pairs_bit_for_bit(dim_z, dim_q, kind):
    # Cocycle.beta must give the bits of the rows-last einsum, signed zeros
    # included, in every shape the library calls it with: one pair, gathered
    # rows at every size minkowski gathers, all pairs, and (n, dim_q) rows
    # against (b, n, dim_q) blocks as in the nearest-point search.
    rng = np.random.default_rng(7 + dim_q)
    if kind == "integral":
        mats = rng.integers(-3, 4, size=(dim_z, dim_q, dim_q))
    else:
        mats = rng.normal(size=(dim_z, dim_q, dim_q))
    beta = ql.Cocycle.from_matrices(mats - mats.transpose(0, 2, 1), dim_q=dim_q)
    if kind == "heisenberg":
        beta = ql.heisenberg_group().cocycle
    U = rng.normal(size=(300, dim_q)) * 1e3
    V = rng.normal(size=(230, dim_q))
    U[::4] = -0.0
    V[::3, 0] = 0.0
    V[1::5] = -0.0
    pairs = _rows_last_beta(beta, U[:, None, :], V[None, :, :])
    assert beta.beta(U[:, None, :], V[None, :, :]).tobytes() == pairs.tobytes()
    pairs = pairs.reshape(-1, dim_z)
    for n in (0, 1, 2, 600, _PAIR_CHUNK - 1, _PAIR_CHUNK, U.shape[0] * V.shape[0]):
        flat = rng.permutation(len(pairs))[:n]
        i, j = np.divmod(flat, V.shape[0])
        assert beta.beta(U[i], V[j]).tobytes() == pairs[flat].tobytes()
    for i, j in ((0, 0), (1, 3), (8, 1)):
        assert beta.beta(U[i], V[j]).tobytes() == _rows_last_beta(beta, U[i], V[j]).tobytes()
    block = U[:200].reshape(4, 50, dim_q)
    assert beta.beta(V[:50], block).tobytes() == _rows_last_beta(beta, V[:50], block).tobytes()


def test_minkowski_h3_matches_group_law():
    P = small_h3_patch(window_z=4.0, window_q=1.0)
    s = ql.minkowski(P, P)
    H = P.group
    want = set()
    for i in range(P.n):
        for j in range(P.n):
            g = ql.GroupElement(z=tuple(P.z[i]), q=tuple(P.q[i]))
            h = ql.GroupElement(z=tuple(P.z[j]), q=tuple(P.q[j]))
            gh = H.mul(g, h)
            want.add(tuple(int(round(v)) for v in gh.z + gh.q))
    got = {
        (int(za), int(qa1), int(qa2))
        for za, qa1, qa2 in zip(
            s.exact.za[:, 0], s.exact.qa[:, 0], s.exact.qa[:, 1]
        )
    }
    assert got == want


def test_inverse_set_matches_group_inverse():
    P = small_h3_patch(window_z=4.0, window_q=1.0)
    H = P.group
    inv = ql.inverse_set(P)
    want = set()
    for i in range(P.n):
        x = ql.GroupElement(z=tuple(P.z[i]), q=tuple(P.q[i]))
        xi = H.inv(x)
        want.add(tuple(int(round(v)) for v in xi.z + xi.q))
    got = {
        (int(za), int(qa1), int(qa2))
        for za, qa1, qa2 in zip(
            inv.exact.za[:, 0], inv.exact.qa[:, 0], inv.exact.qa[:, 1]
        )
    }
    assert got == want
    twice = ql.inverse_set(inv)
    assert np.array_equal(twice.key_matrix, P.key_matrix)
    # the integer lattice is symmetric, so inversion permutes it
    assert np.array_equal(inv.key_matrix, P.key_matrix)


def test_translate_matches_group_multiplication():
    P = small_h3_patch(window_z=6.0, window_q=2.0)
    H = P.group
    g = ql.element_from_ints([1], [1, -1])
    T = ql.translate(P, g)
    want = set()
    for i in range(P.n):
        x = ql.GroupElement(z=tuple(P.z[i]), q=tuple(P.q[i]))
        gx = H.mul(g, x)
        want.add(tuple(int(round(v)) for v in gx.z + gx.q))
    got = {
        (int(za), int(qa1), int(qa2))
        for za, qa1, qa2 in zip(T.exact.za[:, 0], T.exact.qa[:, 0], T.exact.qa[:, 1])
    }
    assert got == want
    # core shrinks by the shift plus the commutator drift over the window
    drift = H.cocycle.box_drift(1.0, 2.0)
    assert T.core_z == pytest.approx(max(6.0 - 1.0 - drift, 0.0))
    assert T.core_q == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 7, 600, 70_000])
@pytest.mark.parametrize("exact", [True, False])
def test_translate_rows_match_the_broadcast_formula_bit_for_bit(n, exact):
    # g*x = (z_g + z_x + beta(q_g, q_x), q_g + q_x), formed over all rows at once
    H = ql.heisenberg_group()
    P = ql.integer_lattice_patch(H, 43.0, 14.0).take(np.arange(n))
    if not exact:
        P = P.take(np.arange(n), exact=None)
    g = ql.GroupElement(z=(0.3,), q=(0.7, -1.3))
    T = ql.translate(P, g)
    gz, gq = np.array(g.z), np.array(g.q)
    want_z = P.z + gz[None, :] + H.cocycle.beta(gq, P.q)
    want_q = P.q + gq[None, :]

    def by_rows(z, q):
        order = np.lexsort(tuple(z.T) + tuple(q.T))
        return np.hstack([z, q])[order]

    assert T.n == n
    assert np.array_equal(by_rows(T.z, T.q), by_rows(want_z, want_q))


def _exact_point(group, za, qa, qb, d):
    def row(values):
        return np.array(values, dtype=np.int64).reshape(1, -1)

    exact = ql.ExactCoords(za=row([za]), zb=row([0]), qa=row(qa), qb=row(qb), d=d)
    return ql.patch_from_exact(group, exact, window_z=2.0 ** 63, window_q=2.0 ** 63, core_z=0.0, core_q=0.0)


def test_translate_refuses_a_sum_beyond_the_coefficient_limit():
    # 2**62 + 2**62 wraps to -2**63 in int64
    P = _exact_point(ql.abelian_group(1, 0), 2 ** 62, [], [], 2)
    with pytest.raises(CoefficientOverflowError):
        ql.translate(P, ql.element_from_ints([2 ** 62], []))
    # 2**62 + 2**62 + beta = 3 * 2**62 wraps to -2**62, which an after-the-fact
    # bound would accept; beta itself passes its own bound with equality
    m, d = 2 ** 29, 7
    assert 16 * m * m == 2 ** 62
    P = _exact_point(ql.heisenberg_group(), 2 ** 62, [m, m], [m, m], d)
    v = ql.QuadInt(m, m, d)
    g = ql.GroupElement(z=(2.0 ** 62,), q=(v.embed(), -v.embed()),
                        z_exact=(ql.QuadInt(2 ** 62, 0, d),), q_exact=(v, ql.QuadInt(-m, -m, d)))
    with pytest.raises(CoefficientOverflowError):
        ql.translate(P, g)


def _flat_exact(values):
    z = np.array(values, dtype=np.int64).reshape(-1, 1)
    exact = ql.ExactCoords.from_int_rows(z, np.zeros((len(z), 0)))
    return ql.patch_from_exact(ql.abelian_group(1), exact, float(max(values)), 0.0, 0.0, 0.0)


def test_minkowski_forms_exact_sums_of_coordinates_past_two_to_the_thirty():
    # Sums and cocycle products are bounded where they are formed, so large
    # coordinates multiply whenever their results fit.
    P = _flat_exact([2 ** 31, 2 ** 31 + 1])
    prod = ql.minkowski(P, P)
    assert prod.exact.za[:, 0].tolist() == [2 ** 32, 2 ** 32 + 1, 2 ** 32 + 2]
    assert not prod.exact.zb.any()
    assert ql.translate(P, ql.element_from_ints([2 ** 31], [])).exact.za[:, 0].tolist() == [2 ** 32, 2 ** 32 + 1]


def test_minkowski_refuses_sums_and_cocycle_products_past_the_limit():
    big = _flat_exact([2 ** 61 + 1])
    with pytest.raises(CoefficientOverflowError):
        ql.minkowski(big, big)
    a = 2 ** 31 - 1
    q = np.array([[a, 0], [0, a]], dtype=np.int64)
    exact = ql.ExactCoords.from_int_rows(np.zeros((2, 1), dtype=np.int64), q)
    P = ql.patch_from_exact(ql.heisenberg_group(), exact, 0.0, float(a), 0.0, 0.0)
    with pytest.raises(CoefficientOverflowError):
        ql.minkowski(P, P)


def test_translate_by_the_identity_keeps_any_radicand():
    H = ql.heisenberg_group()
    L = small_h3_patch(window_z=4.0, window_q=1.0).exact
    exact = ql.ExactCoords(za=L.za, zb=L.qa[:, :1], qa=L.qa, qb=L.qb, d=3)
    P = ql.patch_from_exact(H, exact, 4.0 + math.sqrt(3), 1.0, 4.0, 1.0)
    moved = ql.translate(P, H.identity())
    assert moved.exact is not None and moved.exact.d == 3
    assert np.array_equal(moved.key_matrix, P.key_matrix)
    r2 = ql.QuadInt(0, 1, 2)
    g = ql.GroupElement(z=(r2.embed(),), q=(0.0, 0.0), z_exact=(r2,), q_exact=(ql.QuadInt(0, 0, 2),) * 2)
    with pytest.raises(RadicandMismatchError):
        ql.translate(P, g)


def test_min_gap_flat_matches_brute_force(rng):
    z = np.unique(rng.uniform(-10, 10, size=40)).reshape(-1, 1)
    P = ql.make_patch(group=ql.abelian_group(1, 0), z=z, q=np.zeros((len(z), 0)),
                      window_z=10.0, window_q=0.0, core_z=10.0, core_q=0.0,
                      provenance="rand")
    brute = min(
        abs(a - b) for i, a in enumerate(z[:, 0]) for b in z[i + 1:, 0]
    )
    assert ql.min_gap(P) == pytest.approx(brute)


def test_min_gap_mixed_matches_brute_force():
    P = small_h3_patch(window_z=3.0, window_q=1.0)
    H = P.group
    brute = math.inf
    for i in range(P.n):
        for j in range(P.n):
            if i == j:
                continue
            x = ql.GroupElement(z=tuple(P.z[i]), q=tuple(P.q[i]))
            y = ql.GroupElement(z=tuple(P.z[j]), q=tuple(P.q[j]))
            brute = min(brute, H.distance(x, y))
    assert ql.min_gap(P) == pytest.approx(brute)
    # unit integer Heisenberg lattice: nearest pair differs by one q step
    assert ql.min_gap(P) == pytest.approx(1.0)


def test_covering_radius_flat_matches_brute_force():
    t = ql.model_set_1d(1, 50.0)
    rep = ql.covering_radius(t, z_radius=40.0, h=0.01)
    probes = np.arange(-40.0, 40.0001, 0.01)
    brute = max(np.abs(t.z[:, 0][None, :] - probes[:, None]).min(axis=1))
    assert rep.grid_max == pytest.approx(brute, abs=1e-9)
    assert rep.estimate >= rep.grid_max
    # silver chain gaps are 1, sqrt2, 1+sqrt2 - covering radius (1+sqrt2)/2
    assert rep.estimate == pytest.approx((1 + S2) / 2, abs=0.02)


def test_covering_radius_respects_core():
    t = ql.model_set_1d(1, 10.0)
    with pytest.raises(BoundaryUnsoundError):
        ql.covering_radius(t, z_radius=11.0)


def test_check_meyerian_integer_lattice():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=40.0)
    rep = ql.check_meyerian(Z, k_max=3)
    assert rep.passed
    assert rep.gaps == (1.0, 1.0, 1.0)
    assert rep.counts[0] == 81
    with pytest.raises(InsufficientWindowError):
        ql.check_meyerian(ql.model_set_1d(1, 0.5), k_max=3)


def test_check_meyerian_h3_d2_matches_integer_brute_force():
    P = small_h3_patch(window_z=6.0, window_q=2.0)
    assert P.n == 325
    tracemalloc.start()
    try:
        rep = ql.check_meyerian(P, k_max=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Each product is formed only inside the box the next step keeps; the
    # full D x D product alone took over 1 GB.
    assert peak < 128 * 2**20

    def mul(a, b):  # (z, q1, q2) under the Heisenberg law, in Python ints
        return (a[0] + b[0] + a[1] * b[2] - a[2] * b[1], a[1] + b[1], a[2] + b[2])

    def in_core(x):
        return abs(x[0]) <= 6 and abs(x[1]) <= 2 and abs(x[2]) <= 2

    pts = [tuple(row) for row in P.key_matrix[:, 0::2].tolist()]
    D = {mul((-z, -q1, -q2), y) for z, q1, q2 in pts for y in pts}
    # Every pair of D x D whose q lands in the core, fiber by fiber.
    fibers: dict[tuple[int, int], list[int]] = {}
    for z, q1, q2 in D:
        fibers.setdefault((q1, q2), []).append(z)
    D2 = set()
    for (a1, a2), za in fibers.items():
        for (b1, b2), zb in fibers.items():
            if abs(a1 + b1) <= 2 and abs(a2 + b2) <= 2:
                D2.update(mul((s, a1, a2), (t, b1, b2)) for s in za for t in zb)

    def gap(points):
        pts = sorted(points)
        return min(
            max(math.sqrt((y[1] - x[1]) ** 2 + (y[2] - x[2]) ** 2),
                math.sqrt(abs(mul((-x[0], -x[1], -x[2]), y)[0])))
            for i, x in enumerate(pts) for y in pts[i + 1:]
        )

    cores = [{x for x in D if in_core(x)}, {x for x in D2 if in_core(x)}]
    assert rep.counts == tuple(len(c) for c in cores) == (325, 325)
    assert rep.gaps == tuple(gap(c) for c in cores) == (1.0, 1.0)
    assert rep.passed


def test_product_cap_counts_candidate_pairs():
    L = ql.integer_lattice_patch(ql.abelian_group(1), 3536.0)
    with pytest.raises(SizeLimitError, match=f"{L.n * L.n} exceeds"):
        ql.minkowski(L, L)
    # 3 * 7073 - 2 candidates land in |z| <= 1, far below the cap.
    near = ql.minkowski(L, L, 1.0)
    assert near.z[:, 0].tolist() == [-1.0, 0.0, 1.0]
    assert near.window_z == 1.0


def test_integer_lattice_patch_shape():
    P = ql.integer_lattice_patch(ql.heisenberg_group(), window_z=3.0, window_q=2.0)
    assert P.n == 7 * 25
    assert P.window_z == 3.0 and P.window_q == 2.0
    assert P.exact is not None
    Z2 = ql.integer_lattice_patch(ql.abelian_group(2, 0), window_z=2.0)
    assert Z2.n == 25


def test_patch_density():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=100.0)
    assert ql.patch_density(Z) == pytest.approx(201 / 200)
    t = ql.model_set_1d(1, 1000.0)
    assert ql.patch_density(t) == pytest.approx(1 / S2, rel=0.01)


def test_q_only_patch_gap_and_density():
    P = ql.integer_lattice_patch(ql.abelian_group(0, 2), 0.0, 3.0)
    assert P.n == 49
    assert ql.min_gap(P) == 1.0
    assert ql.patch_density(P) == 49 / 6 ** 2


def test_approximate_group_cover_lattice():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=10.0)
    rep = ql.approximate_group_cover(Z)
    # Z + Z over the core is covered by Z itself: one trivial translator
    assert rep.size == 1
    assert rep.max_residual == 0.0
    assert rep.n_covered == 21
    assert rep.translators.z[0, 0] == 0.0


def test_approximate_group_cover_silver():
    t = ql.model_set_1d(1, 30.0)
    rep = ql.approximate_group_cover(t)
    # Theta_1 + Theta_1 = Theta_2 needs nontrivial translators, still few
    assert 1 < rep.size <= 6
    assert rep.max_residual <= 1e-6


def test_approximate_group_cover_requires_symmetry():
    A = ql.abelian_group(1, 0)
    asym = ql.make_patch(group=A, z=np.array([[0.0], [1.0], [2.0]]),
                         q=np.zeros((3, 0)), window_z=2.0, window_q=0.0,
                         core_z=2.0, core_q=0.0, provenance="asym")
    with pytest.raises(ValueError):
        ql.approximate_group_cover(asym)


def test_fiber_cardinality_profile():
    P = small_h3_patch(window_z=8.0, window_q=2.0)
    prof = ql.fiber_cardinality_profile(P, 2)
    # each fiber of D^k over the core is a run of consecutive integers
    assert len(prof) == 2
    assert prof[0] == 17
    assert prof[1] >= prof[0]


def test_element_accessor():
    P = small_h3_patch(window_z=2.0, window_q=1.0)
    g = P.element(0)
    assert isinstance(g, ql.GroupElement)
    assert len(list(P)) == P.n
    mask = P.core_mask()
    assert mask.all()


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=30),
        elements=st.one_of(st.integers(-3, 3), st.integers(-(2 ** 63), 2 ** 63 - 1)),
    )
)
def test_group_rows_matches_counter(keys):
    tiebreak = -np.arange(len(keys), dtype=float)
    order, starts = group_rows(keys, (tiebreak,))
    assert sorted(order.tolist()) == list(range(len(keys)))
    runs = np.split(order, starts[1:]) if len(starts) else []
    heads = [tuple(keys[run[0]].tolist()) for run in runs]
    got = Counter({head: len(run) for head, run in zip(heads, runs)})
    assert got == Counter(tuple(row) for row in keys.tolist())
    assert heads == sorted(heads)  # runs ascend with column 0 primary
    for run in runs:
        assert (keys[run] == keys[run[0]]).all()
        assert (np.diff(run) < 0).all()  # ties follow the tiebreak column


@pytest.mark.parametrize("d", [2, 3, 7])
def test_minkowski_refuses_cocycle_overflow(d):
    # beta_a = (1 + d) * 2**61 here: 2**63 wraps negative for d = 3, 2**64
    # wraps to zero for d = 7, so the bound must hold before multiplying.
    H = ql.heisenberg_group()
    big = 2 ** 30

    def one_point(qa, qb):
        zero = np.zeros((1, 1), dtype=np.int64)
        exact = ql.ExactCoords(za=zero, zb=zero, qa=np.array([qa]), qb=np.array([qb]), d=d)
        return ql.patch_from_exact(H, exact, window_z=0.0, window_q=4.0 * big,
                                   core_z=0.0, core_q=0.0)

    p1 = one_point((big, -big), (big, big))
    p2 = one_point((big, big), (-big, big))
    with pytest.raises(CoefficientOverflowError):
        ql.minkowski(p1, p2)


def test_exact_max_abs_counts_the_most_negative_int64():
    low = np.array([[-(2 ** 63)]], dtype=np.int64)
    empty = np.zeros((1, 0), dtype=np.int64)
    assert ql.ExactCoords(za=low, zb=low + 1, qa=empty, qb=empty).max_abs() == 2 ** 63


@pytest.mark.parametrize("n", [0, 1, 5])
def test_exact_coords_without_a_q_block_have_width_zero(n):
    za = np.arange(2 * n, dtype=np.int64).reshape(n, 2)
    zb = -za
    empty = np.zeros((n, 0), dtype=np.int64)
    got = ql.ExactCoords(za=za, zb=zb, d=3)
    want = ql.ExactCoords(za=za, zb=zb, qa=empty, qb=empty, d=3)
    for name in ("za", "zb", "qa", "qb"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes() and not a.flags.writeable
    assert got.d == want.d and np.array_equal(got.key_matrix(), want.key_matrix())
    with pytest.raises(ValueError, match="both"):
        ql.ExactCoords(za=za, zb=zb, qa=empty)
    with pytest.raises(ValueError, match="both"):
        ql.ExactCoords(za=za, zb=zb, qb=empty)


def _h3_probe_grid(z_radius, q_radius, h):
    """Probe rows of the mixed covering grid: z step h^2, q step h."""
    def axis(r, s):
        k = math.floor(r / s + 1e-9)
        return np.arange(-k, k + 1) * s
    q_axis = axis(q_radius, h)
    zs, q0, q1 = np.meshgrid(axis(z_radius, h * h), q_axis, q_axis, indexing="ij")
    return np.stack([zs.ravel(), q0.ravel(), q1.ravel()], axis=1)


def _loop_distances(P, rows):
    """gauge(x^-1 y) from every patch point x to every probe row y, by
    the scalar group law."""
    H = P.group
    elts = list(P)
    return np.array([[H.distance(x, H.element(r[:1], r[1:])) for x in elts] for r in rows])


def test_covering_radius_mixed_matches_scalar_loop():
    P = ql.integer_lattice_patch(ql.heisenberg_group(), window_z=2.0, window_q=1.0)
    rep = ql.covering_radius(P, z_radius=0.5, q_radius=0.5, h=0.25)
    probes = _h3_probe_grid(0.5, 0.5, 0.25)
    assert rep.n_probes == len(probes) == 17 * 5 * 5
    assert rep.grid_max == _loop_distances(P, probes).min(axis=1).max()
    assert rep.estimate == rep.grid_max + rep.slack


def test_nearest_in_patch_matches_scalar_loop():
    from quasilat.pointset import _nearest_in_patch

    P = ql.integer_lattice_patch(ql.heisenberg_group(), window_z=2.0, window_q=1.0)
    probes = _h3_probe_grid(0.5, 0.5, 0.25)
    loop = _loop_distances(P, probes)
    idx, dist = _nearest_in_patch(P, probes[:, :1], probes[:, 1:])
    assert np.array_equal(dist, loop.min(axis=1))
    # ties between equally near points may pick either; the index must
    # realize the distance
    assert np.array_equal(loop[np.arange(len(probes)), idx], dist)


@pytest.mark.parametrize("points, queries", [
    ([0.3], [-1.0, 0.3, 2.0]),
    ([-1.0, -1.0, 0.5, 0.5, 1.75], np.arange(-8, 9) * 0.25),
    # queries on points, at midpoints, and beyond both ends
    ([-2.0, -0.375, 0.125, 2.0], [-2.5, -2.0, -0.125, 0.0, 0.125, 1.0625, 2.0, 2.125]),
    (np.random.default_rng(3).uniform(-50, 50, 400), np.random.default_rng(4).uniform(-60, 60, 3000)),
    (ql.model_set_1d(1, 40.0).z[:, 0], np.arange(-4000, 4001) * 0.01),
])
def test_nearest_distance_in_one_dimension_equals_the_kd_tree_bit_for_bit(points, queries):
    from scipy.spatial import cKDTree

    from quasilat.pointset import _nearest_distance

    pts = np.asarray(points, dtype=float).reshape(-1, 1)
    rows = np.asarray(queries, dtype=float).reshape(-1, 1)
    assert _nearest_distance(pts, rows).tobytes() == cKDTree(pts).query(rows)[0].tobytes()


def test_approximate_group_cover_heisenberg_lattice():
    P = small_h3_patch(window_z=2.0, window_q=1.0)
    rep = ql.approximate_group_cover(P)
    # the integer Heisenberg lattice is a subgroup: P*P on the core is P
    assert rep.size == 1
    assert rep.max_residual == 0.0
    assert rep.translators.z.tolist() == [[0.0]]
    assert rep.translators.q.tolist() == [[0.0, 0.0]]
    assert rep.n_covered == P.n


def test_covering_radius_refuses_negative_radii():
    P = ql.integer_lattice_patch(ql.heisenberg_group(), window_z=2.0, window_q=1.0)
    with pytest.raises(ValueError, match="non-negative"):
        ql.covering_radius(P, z_radius=-0.5, q_radius=0.5, h=0.25)


def test_covering_radius_refuses_a_fine_mixed_grid_before_building_it():
    # 5001 z probes (step h^2) times 101^2 q probes is 51M rows: the grid
    # alone would take gigabytes, however few points the patch has.
    H = ql.heisenberg_group()
    P = ql.make_patch(group=H, z=np.zeros((1, 1)), q=np.zeros((1, 2)), window_z=1.0,
                      window_q=1.0, core_z=1.0, core_q=1.0, provenance="one point")
    with pytest.raises(ValueError, match="probe grid too fine"):
        ql.covering_radius(P, h=0.02)
