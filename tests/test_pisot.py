"""Algebraicity recognition, Pisot/Salem trichotomy, dilation reports."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import quasilat as ql
import quasilat.pisot as ps
from quasilat.errors import CoefficientOverflowError

S2 = math.sqrt(2.0)

coeff = st.integers(min_value=-50, max_value=50)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        ps.IntPolynomial((2, 1))
    with pytest.raises(ValueError):
        ps.IntPolynomial((1,))
    p = ps.IntPolynomial((1.0, -2.0, -1.0))
    assert p.coefficients == (1, -2, -1)
    assert p.degree == 2


@given(st.lists(coeff, min_size=1, max_size=5), st.floats(-3, 3))
def test_polynomial_evaluation_matches_polyval(tail, x):
    p = ps.IntPolynomial((1, *tail))
    want = np.polyval([1, *tail], x)
    assert p(x) == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_polynomial_roots_ordered():
    r = ps.IntPolynomial((1, 0, -2)).roots()
    assert np.allclose(r, [-S2, S2])
    assert str(ps.IntPolynomial((1, -2, -1))) == "X^2 -2X -1"
    assert str(ps.IntPolynomial((1, 0, 1))) == "X^2 +1"
    assert str(ps.IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))) == (
        "X^10 +X^9 -X^7 -X^6 -X^5 -X^4 -X^3 +X +1"
    )


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_min_poly_annihilates_the_embedding(a, b):
    x = ql.QuadInt(a, b, 2)
    p = ps.min_poly_quadratic(x)
    assert p(x.embed()) == pytest.approx(0.0, abs=1e-6)
    if b == 0:
        assert p.coefficients == (1, -a)
    else:
        assert p.degree == 2
        # the Galois conjugate is the other root
        assert p(x.embed_star()) == pytest.approx(0.0, abs=1e-6)


def test_min_poly_example():
    assert ps.min_poly_quadratic(ql.QuadInt(1, 1, 5)).coefficients == (1, -2, -4)


def test_classify_golden_with_loose_hint():
    cls = ps.classify_pisot_salem(ps.IntPolynomial((1, -1, -1)), 1.618)
    assert cls.kind == "Pisot"
    assert cls.designated == pytest.approx((1 + math.sqrt(5)) / 2)
    assert len(cls.warnings) == 1 and "hint matched" in cls.warnings[0]
    exact_hint = ps.classify_pisot_salem(
        ps.IntPolynomial((1, -1, -1)), (1 + math.sqrt(5)) / 2)
    assert exact_hint.warnings == ()


def test_classify_salem_reports_band():
    lehmer = ps.IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    cls = ps.classify_pisot_salem(lehmer, 1.17628)
    assert cls.kind == "Salem"
    assert any("unit circle" in w for w in cls.warnings)
    assert cls.designated == pytest.approx(1.176280818259917, abs=1e-9)
    # Salem spectra are symmetric: 1/designated is the smallest conjugate
    assert min(cls.conjugates) == pytest.approx(1 / 1.176280818259917)


def test_classify_neither():
    cls = ps.classify_pisot_salem(ps.IntPolynomial((1, -5, 5)), 3.618)
    assert cls.kind == "NeitherPS"
    assert cls.conjugates == (pytest.approx(1.3819660112501051),)


def test_classify_hint_validation():
    golden = ps.IntPolynomial((1, -1, -1))
    with pytest.raises(ValueError):
        ps.classify_pisot_salem(golden, 5.0)
    with pytest.raises(ValueError):
        ps.classify_pisot_salem(golden, -0.618)


def test_recognition_integers_and_quadratics():
    r = ps.recognize_algebraic_integer(3.0)
    assert r.polynomial.coefficients == (1, -3)
    assert ps.recognize_algebraic_integer(1.0).polynomial is None
    r2 = ps.recognize_algebraic_integer(1 + S2)
    assert r2.polynomial.coefficients == (1, -2, -1)
    assert r2.residual < 1e-9
    r3 = ps.recognize_algebraic_integer(3 + 2 * S2)
    assert r3.polynomial.coefficients == (1, -6, 1)


def test_recognition_rejects_rationals_and_transcendentals():
    r = ps.recognize_algebraic_integer(0.75)
    assert r.polynomial is None
    assert r.kind_override == "NotAlgebraicInteger"
    assert "3/4" in r.note
    r2 = ps.recognize_algebraic_integer(math.pi)
    assert r2.kind_override == "NotAlgebraicInteger"
    assert "no integer or quadratic relation" in r2.note


def test_classify_real_dispatch():
    assert ps.classify_real(3).kind == "Pisot"
    cq = ps.classify_real(ql.QuadInt(1, 1, 2))
    assert cq.kind == "Pisot" and cq.warnings == ()
    cf = ps.classify_real(1 + S2)
    assert cf.kind == "Pisot"
    assert any("recognized quadratic" in w for w in cf.warnings)
    cr = ps.classify_real(2.5)
    assert cr.kind == "NotAlgebraicInteger" and cr.polynomial is None
    with pytest.raises(ValueError):
        ps.classify_real(0.99)


def test_dilation_invariance_silver_chain():
    t = ql.model_set_1d(1, 50.0)
    rep = ps.dilation_invariance(t, ql.QuadInt(1, 1, 2))
    assert rep.holds and rep.witness is None
    assert rep.n_tested == 31
    assert rep.mode == "abelian"
    assert rep.tested_core_z == pytest.approx(50.0 / (1 + S2))


def test_dilation_failure_names_a_witness():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=10.0)
    rep = ps.dilation_invariance(Z, ql.QuadInt(1, 1, 2))
    assert not rep.holds
    assert rep.witness.z == (1.0,)
    assert rep.witness.z_exact == (ql.QuadInt(1, 0, 2),)
    # integer scaling keeps the lattice invariant
    assert ps.dilation_invariance(Z, 3).holds


def test_dilation_argument_validation():
    Z = ql.integer_lattice_patch(ql.abelian_group(1, 0), window_z=10.0)
    F = ql.make_patch(group=ql.abelian_group(1, 0), z=np.array([[0.1]]),
                      q=np.zeros((1, 0)), window_z=1.0, window_q=0.0,
                      core_z=1.0, core_q=0.0, provenance="float only")
    with pytest.raises(ValueError):
        ps.dilation_invariance(F, ql.QuadInt(1, 1, 2))
    with pytest.raises(TypeError):
        ps.dilation_invariance(Z, 1.5)
    with pytest.raises(ValueError):
        ps.dilation_invariance(Z, ql.QuadInt(1, 1, 5))
    with pytest.raises(ValueError):
        ps.dilation_invariance(Z, ql.QuadInt(0, 0, 2))
    with pytest.raises(ValueError):
        ps.dilation_invariance(Z, 2, mode="weird")


def test_tower_spectrum_diagonal_blocks():
    tw = ps.tower_spectrum_check([np.array([[2.0]]), np.array([[3.0]])], seed=5)
    assert tw.char_poly == (1.0, -5.0, 6.0)
    assert tw.spectrum == ((3 + 0j), (2 + 0j))
    assert tw.simple_spectrum
    assert tw.min_separation == 1.0
    assert tw.completion_residual == 0.0
    assert tw.warnings == ()
    assert [(ev, c.kind) for ev, c in tw.classifications] == [
        ((3 + 0j), "Pisot"), ((2 + 0j), "Pisot")]


def test_tower_repeated_eigenvalue_warns():
    tw = ps.tower_spectrum_check([np.array([[2.0]]), np.array([[2.0]])], seed=5)
    assert not tw.simple_spectrum
    assert any("not simple" in w for w in tw.warnings)


def test_tower_flags_shared_minimal_polynomial():
    comp = np.array([[5.0, -5.0], [1.0, 0.0]])
    tw = ps.tower_spectrum_check([comp], seed=5)
    assert tw.char_poly == (1.0, -5.0, 5.0)
    assert any("Galois conjugates" in w for w in tw.warnings)
    kinds = {c.kind for _, c in tw.classifications}
    assert kinds == {"NeitherPS"}


def test_tower_cubic_eigenvalue_left_unchecked():
    # smallest Pisot number: recognition stops at degree two, so the
    # report flags the Galois condition as unverified
    comp = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    tw = ps.tower_spectrum_check([comp], seed=3)
    assert any("unchecked" in w for w in tw.warnings)
    real_kinds = [c.kind for ev, c in tw.classifications if abs(ev.imag) < 1e-9]
    assert real_kinds == ["NotAlgebraicInteger"]


def test_tower_completion_deterministic():
    blocks = [np.array([[2.0, 1.0], [0.0, 3.0]])]
    a = ps.tower_spectrum_check(blocks, seed=11)
    b = ps.tower_spectrum_check(blocks, seed=11)
    assert a.completion_residual == b.completion_residual
    assert a.spectrum == b.spectrum


def test_dilation_refuses_images_beyond_the_safe_limit():
    # (1 - sqrt2)(a + b sqrt2) has a-part a - 2b = -10242640687119285146,
    # below -2**63; int64 arithmetic would wrap it to 8204103386590266470.
    none = np.zeros((1, 0), dtype=np.int64)
    exact = ql.ExactCoords(
        za=np.array([[-4242640687119285146]]), zb=np.array([[3 * 10**18]]), qa=none, qb=none
    )
    P = ql.patch_from_exact(ql.abelian_group(1, 0), exact, 10.0, 0.0, 10.0, 0.0)
    assert abs(P.z[0, 0]) <= 10.0
    with pytest.raises(CoefficientOverflowError):
        ps.dilation_invariance(P, ql.QuadInt(1, -1, 2))
