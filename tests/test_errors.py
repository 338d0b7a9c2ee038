"""The error hierarchy and the size caps."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

import quasilat as ql
import quasilat.diffraction as df
import quasilat.spectral as sp
from quasilat import errors
from quasilat.cli import main
from quasilat.errors import SIZE_CAPS, QuasilatError, SizeLimitError

A1 = ql.abelian_group(1)
H3 = ql.heisenberg_group()


def test_every_error_class_is_exported():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass) if c.__module__ == errors.__name__]
    assert len(classes) == 11
    for cls in classes:
        assert getattr(ql, cls.__name__) is cls
        assert issubclass(cls, QuasilatError)


def axis_count(radius, step):
    return 2 * math.floor(radius / step + 1e-9) + 1


# Each case builds its inputs and returns the refused call and the count it
# asks for.  The cover_search cap is left out: a symmetric patch whose
# product passes the pairwise-product cap cannot reach it without building
# tens of millions of products first.
def lattice_window():
    return lambda: ql.integer_lattice_patch(A1, 1e8), axis_count(1e8, 1.0)


def pairwise_product():
    L = ql.integer_lattice_patch(A1, 3536.0)
    return lambda: ql.minkowski(L, L), L.n * L.n


def condition_triples():
    Xi = ql.integer_lattice_patch(A1, 10.0)
    Delta = ql.integer_lattice_patch(ql.abelian_group(2), 10.0)
    return lambda: ql.check_symplectic_condition(Xi, Delta, H3.cocycle, 2), Delta.n ** 3


def coefficient_box():
    scheme = ql.matrix_scheme([[1.0, 1.0], [1.0, -1.0]], 1, [(-1.0, 1.0)])
    # Coefficients (x + y)/2 and (x - y)/2 reach +-5000, padded by one unit.
    return lambda: ql.generate_model_set(scheme, 9999.0), 10003 ** 2


def frequency_grid():
    return lambda: sp._frequency_grid(0.5, 1e-8), axis_count(0.5, 1e-8)


def bragg_grid():
    Z = ql.integer_lattice_patch(A1, 30.0)
    return lambda: df.bragg_scan(Z, 0.5, 0.5, 1e-10, 0.0, 5.0), axis_count(0.5, 1e-10)


def probe_grid():
    Z = ql.integer_lattice_patch(A1, 30.0)
    return lambda: ql.covering_radius(Z, h=2e-6), axis_count(30.0, 2e-6)


def mixed_probe_grid():
    P = ql.integer_lattice_patch(H3, 4.0, 4.0)
    probes = axis_count(4.0, 0.12 * 0.12) * axis_count(4.0, 0.12) ** 2
    assert probes <= SIZE_CAPS["probes"][0]
    return lambda: ql.covering_radius(P, h=0.12), probes * P.n


def sandwich_quadrature():
    Z = ql.integer_lattice_patch(A1, 30.0)
    return lambda: sp.sandwich_check(Z, 5.0, T_K=1.0, h=1e-8), round(12.0 / 1e-8) + 1


def projection_quadrature():
    Z = ql.integer_lattice_patch(A1, 20.0)
    grid = np.linspace(-0.5, 0.5, 101)
    phi = sp.SampledFunction.indicator([])
    return (lambda: df.projection_consistency(Z, grid, np.ones(101), phi, sp.character(0.0), 16.0, 1e-7),
            round(32.0 / 1e-7) + 1)


def long_schedule():
    # A ratio just above 1 asks for about 6.9e9 entries.
    count = math.floor(math.log(1000.0) / math.log(1.000000001)) + 1
    return lambda: sp.default_schedule(1000.0, ratio=1.000000001), count


def mixed_min_gap():
    P = ql.integer_lattice_patch(H3, 2.0, 32.0)
    return lambda: ql.min_gap(P), P.n


@pytest.mark.parametrize("cap, limit, case", [
    ("lattice", 50_000_000, lattice_window),
    ("product", 50_000_000, pairwise_product),
    ("triples", 50_000_000, condition_triples),
    ("coefficients", 20_000_000, coefficient_box),
    ("frequencies", 40_000_000, frequency_grid),
    ("frequencies", 40_000_000, bragg_grid),
    ("probes", 5_000_000, probe_grid),
    ("quadrature", 5_000_000, sandwich_quadrature),
    ("quadrature", 5_000_000, projection_quadrature),
    ("mixed_probes", 200_000_000, mixed_probe_grid),
    ("mixed_gap", 20_000, mixed_min_gap),
    ("schedule", 10_000, long_schedule),
], ids=lambda v: v.__name__ if callable(v) else str(v))
def test_size_caps_refuse_before_allocating(cap, limit, case):
    call, count = case()
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError) as exc:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(exc.value, QuasilatError) and isinstance(exc.value, ValueError)
    assert str(exc.value).startswith(SIZE_CAPS[cap][1])
    assert f"{count} exceeds the cap of {limit}" in str(exc.value)
    assert peak < 10 * 2**20


@pytest.mark.parametrize("h", [0.0, -1e-3, math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda Z, h: ql.covering_radius(Z, h=h),
    lambda Z, h: df.bragg_scan(Z, 0.5, 0.5, h, 0.0, 5.0),
], ids=["covering_radius", "bragg_scan"])
def test_grid_steps_must_be_positive_and_finite(call, h):
    Z = ql.integer_lattice_patch(A1, 30.0)
    with pytest.raises(ValueError, match="grid step must be positive and finite") as exc:
        call(Z, h)
    assert not isinstance(exc.value, SizeLimitError)


def test_grid_radii_must_be_finite():
    with pytest.raises(ValueError, match="grid radius must be finite"):
        ql.integer_lattice_patch(A1, math.inf)


@pytest.mark.parametrize("cap, call", [
    ("probes", lambda Z: ql.covering_radius(Z, h=1e-320)),
    ("frequencies", lambda Z: df.bragg_scan(Z, 0.5, 0.5, 1e-320, 0.0, 5.0)),
    ("mixed_probes", lambda Z: ql.covering_radius(ql.integer_lattice_patch(H3, 2.0, 1.0), h=1e-170)),
    ("quadrature", lambda Z: sp.sandwich_check(Z, 5.0, h=1e-320)),
], ids=["covering_radius", "bragg_scan", "mixed_covering_radius", "sandwich_check"])
def test_grid_steps_whose_count_overflows_a_float_hit_the_cap(cap, call):
    # radius / h (or h * h) leaves the float range; the count is taken exactly.
    Z = ql.integer_lattice_patch(A1, 30.0)
    with pytest.raises(SizeLimitError) as exc:
        call(Z)
    assert str(exc.value).startswith(SIZE_CAPS[cap][1])


def test_cli_bragg_with_an_overflowing_step_exits_one(tmp_path, capsys):
    patch, out = tmp_path / "z.json", tmp_path / "b.csv"
    assert main(["generate", "--scheme", "lattice", "--T", "20", "-o", str(patch)]) == 0
    capsys.readouterr()
    code = main(["bragg", "--in", str(patch), "--eps", "0.5", "--K", "1", "--h", "1e-320",
                 "--T", "4", "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: frequency grid too fine") and not out.exists()


def _cli_spectrum_with_palm_radius(tmp_path, S):
    h3 = str(tmp_path / "h3.json")
    assert main(["generate", "--scheme", "heisenberg", "--T", "4", "--T-q", "1", "-o", h3]) == 0
    return main(["spectrum", "--in", h3, "--K", "0.5", "--h", "0.25", "--S", S, "--T", "3",
                 "-o", str(tmp_path / "s.csv")])


def _central_measure():
    Z = ql.integer_lattice_patch(A1, 10.0)
    return ql.central_autocorrelation(ql.autocorrelation(Z, 2.0, 2.0))


def _sandwich(T=5.0, T_K=1.0, h=1e-3):
    return sp.sandwich_check(ql.integer_lattice_patch(A1, 30.0), T, T_K=T_K, h=h)


def _project(h_z, T=16.0):
    grid = np.linspace(-0.5, 0.5, 101)
    return df.projection_consistency(ql.integer_lattice_patch(A1, 20.0), grid, np.ones(101),
                                     sp.SampledFunction.indicator([]), sp.character(0.0), T, h_z)


def _h3():
    return ql.integer_lattice_patch(H3, 12.0, 3.0)


def _periodize_at(q):
    xi = sp.character(0.3)
    split = sp.split_data(ql.integer_lattice_patch(H3, 10.0, 2.0), xi, 5.0)
    return sp.twisted_periodization(split, sp.SampledFunction.indicator([0.0, 0.0]), xi,
                                    ql.GroupElement(z=(0.0,), q=q))


@pytest.mark.parametrize("expected, match, call", [
    (QuasilatError, None, lambda tmp: sp.palm_profile(ql.model_set_1d(1, 10.0), [[0.25]], 0.0, math.nan)),
    (QuasilatError, None, lambda tmp: sp.palm_profile(ql.integer_lattice_patch(H3, 4.0, 1.0), [[0.25]], math.nan, 2.0)),
    (ValueError, None, lambda tmp: df.autocorrelation(ql.model_set_1d(1, 20.0), math.nan, 5.0)),
    (ValueError, None, lambda tmp: df.autocorrelation(ql.model_set_1d(1, 20.0), 5.0, math.nan)),
    (ValueError, None, lambda tmp: sp.twisted_density([[1.0], [2.0]], sp.character(0.5), [math.nan], 3.0)),
    (ValueError, None, lambda tmp: sp.twisted_density([[1.0], [2.0]], sp.character(0.5), [1.0, math.nan], 3.0)),
    (QuasilatError, None, lambda tmp: df.diffraction_atom(_central_measure(), sp.character(0.5), math.nan)),
    (SystemExit, None, lambda tmp: _cli_spectrum_with_palm_radius(tmp, "nan")),
    (SystemExit, None, lambda tmp: _cli_spectrum_with_palm_radius(tmp, "inf")),
    (SystemExit, None, lambda tmp: _cli_spectrum_with_palm_radius(tmp, "-1")),
    (ValueError, "quadrature step must lie", lambda tmp: _sandwich(h=-1e-3)),
    (ValueError, "quadrature step must lie", lambda tmp: _sandwich(h=0.0)),
    (ValueError, "quadrature step must lie", lambda tmp: _sandwich(h=math.nan)),
    (ValueError, "quadrature step must lie", lambda tmp: _sandwich(h=50.0)),
    (ValueError, "T_K must be positive and finite", lambda tmp: _sandwich(T_K=0.0)),
    (ValueError, "T_K must be positive and finite", lambda tmp: _sandwich(T_K=-1.0)),
    (ValueError, "T must be positive and finite", lambda tmp: _sandwich(T=math.nan)),
    (ValueError, "quadrature step must lie", lambda tmp: _project(-0.1)),
    (ValueError, "quadrature step must lie", lambda tmp: _project(math.nan)),
    (ValueError, "quadrature step must lie", lambda tmp: _project(100.0)),
    (ValueError, "quadrature step must lie", lambda tmp: _project(1e-3, T=math.nan)),
    (ValueError, "R_threshold must be positive", lambda tmp: ql.alignment_report(_h3(), math.nan)),
    (ValueError, "R_threshold must be positive", lambda tmp: ql.alignment_report(_h3(), -1.0)),
    (ValueError, "must be finite", lambda tmp: _periodize_at((math.nan, 0.0))),
    (ValueError, "support radius must be finite", lambda tmp: sp.SampledFunction([[1.0, 0.0]], [1.0], math.nan)),
    (ValueError, "support radius must be finite", lambda tmp: sp.SampledFunction([[1.0, 0.0]], [1.0], -5.0)),
    (ValueError, "support radius must be finite", lambda tmp: sp.SampledFunction([[1.0, 0.0]], [1.0], math.inf)),
], ids=["palm-T", "palm-S", "autocorrelation-T", "autocorrelation-range", "twisted-density",
        "twisted-density-schedule", "diffraction-atom", "cli-S-nan", "cli-S-inf", "cli-S-negative",
        "sandwich-negative-h", "sandwich-zero-h", "sandwich-nan-h", "sandwich-coarse-h", "sandwich-zero-T_K",
        "sandwich-negative-T_K", "sandwich-nan-T", "projection-negative-h", "projection-nan-h",
        "projection-coarse-h", "projection-nan-T", "alignment-nan-R", "alignment-negative-R",
        "periodization-nan-q", "support-nan", "support-negative", "support-inf"])
def test_nan_radii_are_refused(tmp_path, capsys, expected, match, call):
    # Every comparison with NaN is false, so each check must be one NaN fails.
    with pytest.raises(expected, match=match):
        call(tmp_path)
    assert not (tmp_path / "s.csv").exists()



def _refusal_peak(exc_type, call, *args):
    tracemalloc.start()
    try:
        with pytest.raises(exc_type) as exc:
            call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    return exc.value


@pytest.fixture(scope="module")
def inputs():
    return {"flat": ql.integer_lattice_patch(A1, 10.0), "fibered": ql.integer_lattice_patch(H3, 4.0, 2.0),
            "eta": _central_measure(), "h3": _h3()}


# Each case averages over a ball of radius r, given the inputs above.
RADII = {
    "palm_profile-T": lambda x, r: sp.palm_profile(x["flat"], [[0.25]], 0.0, r),
    "palm_profile-S": lambda x, r: sp.palm_profile(x["fibered"], [[0.25]], r, 2.0),
    "palm_coefficient-T": lambda x, r: sp.palm_coefficient(x["flat"], sp.character(0.25), 0.0, r),
    # A grid of 5M frequencies: the scan must refuse before building it.
    "bragg_scan-T": lambda x, r: df.bragg_scan(x["flat"], 0.5, 0.5, 2e-7, 0.0, r),
    "bragg_scan-S": lambda x, r: df.bragg_scan(x["fibered"], 0.5, 0.5, 2e-7, r, 2.0),
    "twisted_density-T": lambda x, r: sp.twisted_density([[1.0], [2.0]], sp.character(0.5), [r], 3.0),
    "default_schedule-T_max": lambda x, r: sp.default_schedule(r),
    "autocorrelation-T": lambda x, r: df.autocorrelation(x["flat"], r, 2.0),
    "autocorrelation-range": lambda x, r: df.autocorrelation(x["flat"], 2.0, r),
    "diffraction_atom-T": lambda x, r: df.diffraction_atom(x["eta"], sp.character(0.5), r),
    "sandwich_check-T": lambda x, r: sp.sandwich_check(x["flat"], r, T_K=1.0, h=1e-2),
    "sandwich_check-T_K": lambda x, r: sp.sandwich_check(x["flat"], 5.0, T_K=r, h=1e-2),
    "alignment_report-R_threshold": lambda x, r: ql.alignment_report(x["h3"], r),
}


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("site", sorted(RADII))
def test_every_averaging_radius_is_positive_and_finite(inputs, site, r):
    err = _refusal_peak(errors.DegenerateBallError, RADII[site], inputs, r)
    assert isinstance(err, ValueError) and isinstance(err, QuasilatError)
    assert "must be positive and finite" in str(err)


def _split_short_of(pad):
    patch = ql.integer_lattice_patch(H3, 10.0, 2.0, core_q=1.5 - pad)
    return sp.split_data(patch, sp.character(0.3), 5.0)


# Each case is (input whose core falls short of the reach by pad, call reaching
# that far).  On H3 (drift bound 1), T = range = 1 reach 2 in q and 1 + 1 + 1 = 3 in z.
CORES = {
    "palm_profile-S": (lambda pad: ql.integer_lattice_patch(H3, 4.0, 2.0, core_q=1.5 - pad),
                       lambda P: sp.palm_profile(P, [[0.25]], 1.5, 2.0)),
    "palm_profile-T": (lambda pad: ql.integer_lattice_patch(A1, 10.0, core_z=5.0 - pad),
                       lambda Z: sp.palm_profile(Z, [[0.25]], 0.0, 5.0)),
    "twisted_density": (lambda pad: 3.0 - pad,
                        lambda core: sp.twisted_density([[1.0], [2.0]], sp.character(0.5), [3.0], core)),
    "autocorrelation-flat": (lambda pad: ql.integer_lattice_patch(A1, 10.0, core_z=4.0 - pad),
                             lambda Z: df.autocorrelation(Z, 2.0, 2.0)),
    "autocorrelation-mixed-q": (lambda pad: ql.integer_lattice_patch(H3, 6.0, 3.0, core_q=2.0 - pad),
                                lambda P: df.autocorrelation(P, 1.0, 1.0)),
    "autocorrelation-mixed-z": (lambda pad: ql.integer_lattice_patch(H3, 6.0, 3.0, core_z=3.0 - pad),
                                lambda P: df.autocorrelation(P, 1.0, 1.0)),
    "sandwich_check": (lambda pad: ql.integer_lattice_patch(A1, 10.0, core_z=7.0 - pad),
                       lambda Z: sp.sandwich_check(Z, 5.0, T_K=1.0, h=1e-2)),
    "twisted_periodization": (_split_short_of, lambda split: sp.twisted_periodization(
        split, sp.SampledFunction.indicator([0.0, 0.0]), sp.character(0.3), ql.GroupElement(z=(0.0,), q=(1.5, 0.0)))),
}


@pytest.mark.parametrize("site", sorted(CORES))
def test_every_reach_past_a_core_is_a_window_shortfall(site):
    assert H3.cocycle.drift_bound == 1.0
    build, call = CORES[site]
    err = _refusal_peak(errors.WindowShortfallError, call, build(2 * errors.CORE_PAD))
    assert isinstance(err, errors.InsufficientWindowError) and "beyond the trusted core" in str(err)
    call(build(errors.CORE_PAD / 2))
