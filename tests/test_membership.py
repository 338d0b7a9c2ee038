"""Membership on integer keys: _find_rows and the checks built on it,
against Python dicts and sets of row tuples."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import quasilat as ql
import quasilat.spectral as sp
from quasilat.pisot import _scale_int_pairs
from quasilat.pointset import QUANT, ExactCoords, _find_rows, _is_symmetric_with_identity, _quant_keys, group_rows
from quasilat.ring import QuadInt

H3 = ql.heisenberg_group()
A1 = ql.abelian_group(1)

# Small values make hits likely; the full int64 range spans past 2**62, so
# group_rows falls back from one packed column to a lexsort.
key_values = st.one_of(st.integers(-2, 2), st.integers(-(2 ** 63), 2 ** 63 - 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(lambda w: st.tuples(
    hnp.arrays(np.int64, st.tuples(st.integers(0, 20), st.just(w)), elements=key_values),
    hnp.arrays(np.int64, st.tuples(st.integers(0, 20), st.just(w)), elements=key_values),
)), st.data())
def test_find_rows_matches_a_dict(arrays, data):
    table, queries = arrays
    if len(table) and len(queries) and data.draw(st.booleans()):
        # Ask for some table rows, each possibly several times.
        picks = data.draw(st.lists(st.integers(0, len(table) - 1), max_size=10))
        queries = np.vstack([queries, table[picks]])
    first = {}
    for i, row in enumerate(table.tolist()):
        first.setdefault(tuple(row), i)
    want = [first.get(tuple(row), -1) for row in queries.tolist()]
    got = _find_rows(table, queries)
    assert got.dtype == np.int64 and got.tolist() == want


# Test-local copies of the tuple-set membership code the checks replaced.

def key_set(P):
    return {tuple(row) for row in P.key_matrix.tolist()}


def symmetric_by_sets(p):
    if (0,) * p.key_matrix.shape[1] not in key_set(p):
        return False
    return {tuple(row) for row in ql.inverse_set(p).key_matrix.tolist()} == key_set(p)


def dilation_by_sets(P, t, mode):
    tz, tq = (t * t, t) if mode == "stratified2" else (t, t)
    idx = np.flatnonzero(P.box_mask(P.core_z / max(abs(tz.embed()), 1.0), P.core_q / max(abs(tq.embed()), 1.0)))
    e = P.exact
    za, zb = _scale_int_pairs(e.za[idx], e.zb[idx], tz)
    qa, qb = _scale_int_pairs(e.qa[idx], e.qb[idx], tq)
    keys = ExactCoords(za=za, zb=zb, qa=qa, qb=qb, d=e.d).key_matrix()
    ks = key_set(P)
    missing = np.array([tuple(row) not in ks for row in keys.tolist()], dtype=bool)
    if not missing.any():
        return True, None, len(idx)
    bad = idx[missing]
    gauges = np.array([P.group.gauge(P.element(int(i))) for i in bad])
    coords = np.column_stack([P.z[bad], P.q[bad]])
    order = np.lexsort(tuple(-coords[:, c] for c in range(coords.shape[1] - 1, -1, -1)) + (gauges,))
    return False, P.element(int(bad[order[0]])), len(idx)


def condition_by_sets(Xi, Delta, cocycle, k):
    n, dz = Delta.n, cocycle.dim_z
    ea, eb, d = Delta.exact.za, Delta.exact.zb, Delta.exact.d
    Ba, Bb = cocycle.beta_exact(ea[:, None, :], eb[:, None, :], ea[None, :, :], eb[None, :, :], d)
    triples = ExactCoords(
        za=(Ba[:, None, :, :] + Ba[None, :, :, :]).reshape(n ** 3, dz),
        zb=(Bb[:, None, :, :] + Bb[None, :, :, :]).reshape(n ** 3, dz),
        d=d,
    )
    sum_patch = Xi
    for _ in range(k - 1):
        sum_patch = ql.minkowski(sum_patch, Xi)
    keys = triples.key_matrix()
    order, starts = group_rows(keys)
    uniq = order[starts]
    ks = key_set(sum_patch)
    missing = [i for i, row in zip(uniq, keys[uniq].tolist()) if tuple(row) not in ks]
    return not missing, tuple(triples.take(missing[:1]).embed_z()[0].tolist()) if missing else None


def lookup_by_dict(f, queries):
    table = dict(zip(map(tuple, _quant_keys(f.points).tolist()), f.values))
    q = np.asarray(queries, dtype=float).reshape(-1, f.points.shape[1])
    return np.array([table.get(tuple(row), 0.0) for row in _quant_keys(q).tolist()], dtype=complex)


def without(P, *rows):
    """P less the points whose exact keys are the given rows."""
    drop = _find_rows(P.key_matrix, np.array(rows, dtype=np.int64))
    return P.take(np.setdiff1d(np.arange(P.n), drop))


def floats_only(P):
    return P.take(np.arange(P.n), exact=None)


def symmetry_cases():
    lattice = ql.integer_lattice_patch(H3, 6.0, 2.0)
    silver = ql.model_set_1d(1, 30.0)
    one = np.zeros(silver.key_matrix.shape[1], dtype=np.int64)
    one[0] = 1
    shifted = silver.take(np.arange(silver.n), exact=None, z=silver.z - np.where(silver.z > 29, 0.5, 0.0))
    # Rows at +-2.5 QUANT have keys +-2: np.round rounds half to even.
    ties = ql.make_patch(A1, np.array([[-2.5], [0.0], [2.5]]) * QUANT, np.zeros((3, 0)), 1.0, 0.0, 1.0, 0.0)
    return {
        "exact-lattice": (lattice, True),
        "exact-silver": (silver, True),
        "exact-one-point-dropped": (without(lattice, [1, 0, 0, 0, 0, 0]), False),
        "exact-identity-dropped": (without(lattice, [0] * 6), False),
        "exact-unit-dropped": (without(silver, one), False),
        "float-lattice": (floats_only(lattice), True),
        "float-silver": (floats_only(silver), True),
        "float-shifted": (shifted, False),
        "float-half-quant": (ties, True),
        "empty": (lattice.take(np.zeros(0, dtype=np.int64)), False),
    }


@pytest.mark.parametrize("name", list(symmetry_cases()))
def test_symmetry_check_matches_the_set_code(name):
    P, want = symmetry_cases()[name]
    assert _is_symmetric_with_identity(P) is symmetric_by_sets(P) is want


@pytest.mark.parametrize("make, t, mode, holds", [
    (lambda: ql.model_set_1d(1, 60.0), QuadInt(1, 1, 2), "abelian", True),
    (lambda: ql.model_set_1d(1, 60.0), QuadInt(2, 0, 2), "abelian", False),
    (lambda: ql.model_set_1d(1, 60.0), QuadInt(3, 2, 2), "abelian", True),
    (lambda: ql.integer_lattice_patch(H3, 12.0, 3.0), QuadInt(2, 0, 2), "stratified2", True),
    (lambda: without(ql.integer_lattice_patch(H3, 12.0, 3.0), [4, 0, 2, 0, -2, 0]), QuadInt(2, 0, 2), "stratified2", False),
    (lambda: without(ql.integer_lattice_patch(H3, 12.0, 3.0), [-4, 0, 2, 0, 0, 0], [4, 0, -2, 0, 2, 0]),
     QuadInt(2, 0, 2), "abelian", False),
], ids=["silver-unit", "silver-by-two", "silver-square", "h3-by-two", "h3-hole", "h3-two-holes"])
def test_dilation_invariance_matches_the_set_code(make, t, mode, holds):
    P = make()
    rep = ql.dilation_invariance(P, t, mode)
    assert (rep.holds, rep.witness, rep.n_tested) == dilation_by_sets(P, t, mode)
    assert rep.holds is holds and rep.n_tested > 0


def even_integers(T):
    z = np.arange(-T, T + 1, 2, dtype=np.int64).reshape(-1, 1)
    return ql.patch_from_exact(A1, ExactCoords.from_int_rows(z, np.zeros((len(z), 0))), T, 0.0, T, 0.0)


@pytest.mark.parametrize("make_xi, holds", [
    (lambda: ql.integer_lattice_patch(A1, 10.0), True),
    (lambda: even_integers(10), False),
], ids=["integers", "even-integers"])
def test_symplectic_condition_matches_the_set_code(make_xi, holds):
    Xi = make_xi()
    Delta = ql.integer_lattice_patch(ql.abelian_group(2), 1.0)
    rep = ql.check_symplectic_condition(Xi, Delta, H3.cocycle, 2)
    assert (rep.holds, rep.witness) == condition_by_sets(Xi, Delta, H3.cocycle, 2)
    assert rep.holds is holds
    # The float branch finds the same first missing value.
    flt = ql.check_symplectic_condition(floats_only(Xi), floats_only(Delta), H3.cocycle, 2)
    assert (flt.holds, flt.witness) == (rep.holds, rep.witness)


def test_lookup_matches_the_dict_code():
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [-1.0, 2.5], [0.5 * QUANT, -3.0]])
    f = sp.SampledFunction(points=pts, values=[1.0, 2.0 - 1.0j, -3.0, 4.0j], support_radius=3.0)
    queries = np.vstack([pts, pts[::-1] + 0.3 * QUANT, [[1.0, 0.5 + 2 * QUANT], [7.0, 7.0]], pts[[1, 1]]])
    got = f.lookup(queries)
    assert got.dtype == complex
    assert np.array_equal(got, lookup_by_dict(f, queries))
    # 0.8 QUANT rounds to another key than 0.5 QUANT, so one shifted row misses.
    assert np.count_nonzero(got) == 9
    assert f.lookup(np.zeros((0, 2))).shape == (0,)


def test_sample_points_may_not_share_a_key():
    with pytest.raises(ValueError, match="repeat a quantized key"):
        sp.SampledFunction(points=[[1.0], [1.0 + 0.1 * QUANT]], values=[1.0, 2.0], support_radius=1.0)


def test_symmetry_check_leaves_nothing_behind():
    P = ql.integer_lattice_patch(H3, 30.0, 8.0)
    assert P.key_matrix.shape == (P.n, 6)  # the patch's own cached keys
    tracemalloc.start()
    try:
        assert _is_symmetric_with_identity(P)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20
