"""Central extension arithmetic, gauges, and cocycle bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasilat as ql
from quasilat.errors import CoefficientOverflowError, RadicandMismatchError
from quasilat.ring import COEFF_LIMIT

coord = st.integers(min_value=-50, max_value=50)
triple = st.tuples(coord, coord, coord)


def h3_elt(c):
    return ql.element_from_ints([c[0]], [c[1], c[2]])


@given(triple, triple, triple)
def test_h3_group_laws(c1, c2, c3):
    H = ql.heisenberg_group()
    g, h, k = h3_elt(c1), h3_elt(c2), h3_elt(c3)
    assert H.mul(H.mul(g, h), k) == H.mul(g, H.mul(h, k))
    e = H.mul(g, H.inv(g))
    assert e.z == (0.0,) and e.q == (0.0, 0.0)
    e2 = H.mul(H.inv(g), g)
    assert e2.z == (0.0,) and e2.q == (0.0, 0.0)
    gh = H.mul(g, h)
    # central product: z adds with the symplectic correction, q just adds
    assert gh.q == (float(c1[1] + c2[1]), float(c1[2] + c2[2]))
    assert gh.z == (float(c1[0] + c2[0] + c1[1] * c2[2] - c1[2] * c2[1]),)


@given(triple, triple)
def test_h3_commutator_is_central(c1, c2):
    H = ql.heisenberg_group()
    g, h = h3_elt(c1), h3_elt(c2)
    c = H.commutator(g, h)
    assert c.q == (0.0, 0.0)
    assert c.z == (2.0 * (c1[1] * c2[2] - c1[2] * c2[1]),)


@given(triple)
def test_gauge_structure(c):
    H = ql.heisenberg_group()
    g = h3_elt(c)
    zn = abs(float(c[0]))
    qn = math.hypot(float(c[1]), float(c[2]))
    assert H.gauge(g) == pytest.approx(max(qn, math.sqrt(zn)))
    assert H.gauge(H.inv(g)) == pytest.approx(H.gauge(g))
    # homogeneity under the stratified dilation
    for t in (2.0, 1 + math.sqrt(2)):
        assert H.gauge(H.dilation(t, g)) == pytest.approx(t * H.gauge(g), rel=1e-12)


finite = st.floats(min_value=-1e150, max_value=1e150, allow_subnormal=True)


@given(st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=8), st.integers(1, 3))
def test_q_only_gauges_are_the_euclidean_q_norm(rows, dim_q):
    # With no central coordinate max(|q|, sqrt|z|) is |q| bit for bit.
    G = ql.abelian_group(0, dim_q)
    q = np.array(rows)[:, :dim_q]
    want = np.sqrt(np.sum(q * q, axis=-1))
    got = G.gauge_rows(np.zeros((len(q), 0)), q)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    for row in q.tolist():
        g = G.element((), row)
        assert G.gauge(g).hex() == math.sqrt(sum(v * v for v in row)).hex()
    assert ql.gauge_ball_volume(0, dim_q, 1.5).hex() == ql.ball_volume(dim_q, 1.5).hex()


def test_abelian_gauge_is_euclidean():
    A = ql.abelian_group(2, 0)
    g = ql.element_from_ints([3, 4], [])
    assert A.gauge(g) == pytest.approx(5.0)
    assert A.is_abelian
    # a zero cocycle on a nontrivial q block is degenerate
    assert not ql.abelian_group(1, 2).is_nondegenerate


def test_h3_is_nondegenerate_nonabelian():
    H = ql.heisenberg_group()
    assert not H.is_abelian
    assert H.is_nondegenerate
    assert H.dim_z == 1 and H.dim_q == 2
    e = H.identity()
    assert e.z == (0.0,) and e.q == (0.0, 0.0)


def test_integers_take_the_radicand_of_the_other_factor():
    H = ql.heisenberg_group()
    r3 = ql.QuadInt(1, 1, 3)
    e = ql.GroupElement(z=(r3.embed(),), q=(r3.embed(), 2.0), z_exact=(r3,), q_exact=(r3, ql.QuadInt(2, 0, 3)))
    assert H.mul(e, H.identity()) == e
    assert H.mul(H.identity(), e) == e
    # z = r3 + 1 + beta((r3, 2), (0, 1)) = 3 + 2 sqrt 3, with the integers of h read in Z[sqrt 3]
    gh = H.mul(e, ql.element_from_ints([1], [0, 1]))
    assert gh.z_exact == (ql.QuadInt(3, 2, 3),) and gh.q_exact == (r3, ql.QuadInt(3, 0, 3))
    # beta = 2**60 fits: the bound weighs the a and b parts apart, so d only scales b * b
    big = H.mul(ql.element_from_ints([0], [2 ** 30, 0]), ql.element_from_ints([0], [0, 2 ** 30]))
    assert big.z_exact == (ql.QuadInt(2 ** 60, 0, 2),)
    r2 = ql.QuadInt(0, 1, 2)
    with pytest.raises(RadicandMismatchError):
        H.mul(e, ql.GroupElement(z=(0.0,), q=(r2.embed(), 0.0), z_exact=(ql.QuadInt(0, 0, 2),), q_exact=(r2, r2 - r2)))


def test_abelian_extension_mul_has_no_twist():
    A = ql.abelian_group(1, 2)
    g = ql.element_from_ints([1], [2, 3])
    h = ql.element_from_ints([10], [-1, 1])
    gh = A.mul(g, h)
    assert gh.z == (11.0,) and gh.q == (1.0, 4.0)
    assert A.inv(g).z == (-1.0,) and A.inv(g).q == (-2.0, -3.0)


def test_dilation_scales_blocks():
    H = ql.heisenberg_group()
    g = h3_elt((4, 2, -1))
    d = H.dilation(3.0, g)
    assert d.z == (36.0,) and d.q == (6.0, -3.0)


@given(triple, triple)
def test_cocycle_bilinear_antisymmetric(c1, c2):
    beta = ql.heisenberg_cocycle()
    u = np.array([float(c1[1]), float(c1[2])])
    v = np.array([float(c2[1]), float(c2[2])])
    assert beta.beta(u, v)[0] == -beta.beta(v, u)[0]
    assert beta.beta(u, u)[0] == 0.0
    assert beta.beta(2.0 * u, v)[0] == 2.0 * beta.beta(u, v)[0]
    assert beta.beta(u + v, v)[0] == beta.beta(u, v)[0] + beta.beta(v, v)[0]


def test_cocycle_array_forms_match_scalar():
    beta = ql.heisenberg_cocycle()
    rng = np.random.default_rng(5)
    U = rng.integers(-9, 10, size=(40, 2)).astype(float)
    V = rng.integers(-9, 10, size=(40, 2)).astype(float)
    rows = beta.beta(U, V)
    pairs = beta.beta(U[:, None, :], V[None, :, :])
    for i in range(40):
        want = beta.beta(U[i], V[i])
        assert rows[i, 0] == want[0]
        assert pairs[i, i, 0] == want[0]


def test_cocycle_drift_bounds_hold():
    beta = ql.heisenberg_cocycle()
    rng = np.random.default_rng(6)
    U = rng.uniform(-3.0, 3.0, size=(200, 2))
    V = rng.uniform(-7.0, 7.0, size=(200, 2))
    vals = np.abs(beta.beta(U[:, None, :], V[None, :, :])[:, :, 0])
    assert vals.max() <= beta.box_drift(3.0, 7.0) + 1e-12
    norms = np.linalg.norm(U, axis=1)[:, None] * np.linalg.norm(V, axis=1)[None, :]
    assert np.all(vals <= beta.drift_bound * norms + 1e-12)


# Small coefficients, and coefficients near 2**31 and 2**62 of either sign.
BIG_COEFF = st.one_of(
    st.integers(-9, 9),
    *(st.integers(c - 4, c + 4).map(lambda v, s=s: s * v) for c in (2**31, 2**62) for s in (1, -1)),
)


@st.composite
def integral_cocycle_inputs(draw):
    """(cocycle, d, [va, vb, wa, wb]) for a random integral cocycle and a few
    rows of exact q coordinates a + b*sqrt(d)."""
    dim_z, dim_q = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    mats = []
    for _ in range(dim_z):
        m = np.zeros((dim_q, dim_q))
        for i in range(dim_q):
            for j in range(i + 1, dim_q):
                m[i, j] = draw(st.integers(-3, 3))
                m[j, i] = -m[i, j]
        mats.append(m)
    rows = draw(st.integers(1, 3))
    blocks = [np.array(draw(st.lists(st.lists(BIG_COEFF, min_size=dim_q, max_size=dim_q),
                                     min_size=rows, max_size=rows)), dtype=np.int64) for _ in range(4)]
    return ql.Cocycle.from_matrices(mats, dim_q=dim_q), draw(st.sampled_from([2, 3, 5, 7])), blocks


@settings(max_examples=300, deadline=None)
@given(integral_cocycle_inputs())
def test_beta_exact_matches_python_int_arithmetic(case):
    cocycle, d, (va, vb, wa, wb) = case
    M = [[[int(x) for x in row] for row in m] for m in cocycle.stack]
    n, dim_q = va.shape
    va, vb, wa, wb = (x.tolist() for x in (va, vb, wa, wb))
    # (a1 + b1 rt)(a2 + b2 rt) = (a1 a2 + d b1 b2) + (a1 b2 + b1 a2) rt, summed over M[k]
    want_a = [[sum(m[i][j] * (va[r][i] * wa[r][j] + d * vb[r][i] * wb[r][j])
                   for i in range(dim_q) for j in range(dim_q)) for m in M] for r in range(n)]
    want_b = [[sum(m[i][j] * (va[r][i] * wb[r][j] + vb[r][i] * wa[r][j])
                   for i in range(dim_q) for j in range(dim_q)) for m in M] for r in range(n)]
    too_big = max(abs(v) for part in (want_a, want_b) for row in part for v in row) > COEFF_LIMIT
    try:
        a, b = cocycle.beta_exact(np.array(va), np.array(vb), np.array(wa), np.array(wb), d)
    except CoefficientOverflowError:
        return  # the bound is conservative, so a refusal is allowed at any size
    assert not too_big
    assert a.tolist() == want_a and b.tolist() == want_b


def test_cocycle_integrality_flag():
    assert ql.heisenberg_cocycle().is_integral
    assert ql.abelian_cocycle(1, 2).is_integral
    tilted = ql.Cocycle.from_matrices([np.array([[0.0, 0.5], [-0.5, 0.0]])], dim_q=2)
    assert not tilted.is_integral


def test_element_dimension_check():
    H = ql.heisenberg_group()
    flat = ql.element_from_ints([1, 2], [])
    with pytest.raises(ValueError):
        H.mul(flat, flat)


def test_ball_volumes():
    assert ql.ball_volume(1, 3.0) == pytest.approx(6.0)
    assert ql.ball_volume(2, 2.0) == pytest.approx(math.pi * 4.0)
    assert ql.ball_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0)
    # stratified gauge ball {max(|q|, sqrt|z|) <= T} = B_q(T) x B_z(T^2)
    assert ql.gauge_ball_volume(1, 2, 2.0) == pytest.approx(
        ql.ball_volume(2, 2.0) * ql.ball_volume(1, 4.0)
    )
    assert ql.gauge_ball_volume(1, 0, 5.0) == pytest.approx(10.0)
    assert ql.gauge_ball_volume(0, 2, 3.0) == pytest.approx(math.pi * 9.0)


def test_gauge_rows_matches_gauge():
    H = ql.heisenberg_group()
    rng = np.random.default_rng(11)
    z = rng.integers(-800, 801, size=(30, 1)).astype(float)
    q = rng.integers(-40, 41, size=(30, 2)).astype(float)
    gauges = H.gauge_rows(z, q)
    for i in range(30):
        assert gauges[i] == pytest.approx(
            H.gauge(ql.GroupElement(z=tuple(z[i]), q=tuple(q[i])))
        )


def test_distance_left_invariant():
    H = ql.heisenberg_group()
    g = h3_elt((1, 2, 3))
    h = h3_elt((-4, 0, 1))
    a = h3_elt((7, -2, 5))
    d0 = H.distance(g, h)
    d1 = H.distance(H.mul(a, g), H.mul(a, h))
    assert d0 == pytest.approx(d1, rel=1e-12)
