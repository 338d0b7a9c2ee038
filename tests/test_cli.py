"""Command-line interface: formats, exit codes, determinism."""

import gc
import json
import math

import numpy as np
import pytest

import quasilat as ql
import quasilat.spectral as sp
from quasilat.cli import load_patch, main, patch_from_doc, save_patch
from quasilat.errors import CoefficientOverflowError, MalformedPatchError, QuasilatError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_silver_round_trip(tmp_path, capsys):
    p = tmp_path / "silver.json"
    code, out, err = run(capsys, "generate", "--scheme", "silver",
                         "--R", "1", "--T", "30", "-o", str(p))
    assert code == 0 and err == ""
    loaded = load_patch(str(p))
    want = ql.model_set_1d(1, 30.0)
    assert out.startswith(f"wrote {want.n} points")
    assert np.array_equal(loaded.key_matrix, want.key_matrix)
    assert loaded.exact is not None
    assert np.array_equal(loaded.exact.za, want.exact.za)
    # serialization is a fixed point: save(load(file)) reproduces the bytes
    p2 = tmp_path / "again.json"
    save_patch(loaded, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_generate_argument_validation(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    for argv in (
        ["generate", "--T", "10", "-o", out],
        ["generate", "--scheme", "silver", "--scheme-file", "s.json",
         "--T", "10", "-o", out],
        ["generate", "--scheme", "silver", "--R", "-1", "--T", "10", "-o", out],
        ["generate", "--scheme", "silver", "--R", "1", "-o", out],
        ["generate", "--scheme", "lattice", "--dim", "0", "--T", "5", "-o", out],
        ["generate", "--scheme", "silver", "--R", "1", "--T", "inf", "-o", out],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_unknown_command_exit_code(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 2
    assert "unknown command" in err


def test_unknown_flag_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--scheme", "silver", "--T", "3", "--bogus", "1",
              "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_generate_smallest_silver_patch(tmp_path, capsys):
    p = tmp_path / "five.json"
    code, out, err = run(capsys, "generate", "--scheme", "silver", "--R", "1",
                         "--T", "3", "-o", str(p))
    assert code == 0
    assert out.startswith("wrote 5 points")
    zs = sorted(pt["z"][0] for pt in json.loads(p.read_text())["points"])
    s2 = 2.0 ** 0.5
    assert zs == pytest.approx([-1 - s2, -1.0, 0.0, 1.0, 1 + s2])


def test_scheme_file_equivalent_to_builtin(tmp_path, capsys):
    doc = {"kind": "silver", "physical_dim": 1, "internal_dim": 1,
           "window": [[-1.0, 1.0]]}
    sf = tmp_path / "scheme.json"
    sf.write_text(json.dumps(doc))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, "generate", "--scheme-file", str(sf), "--T", "25",
               "-o", str(a))[0] == 0
    assert run(capsys, "generate", "--scheme", "silver", "--R", "1",
               "--T", "25", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_reports_integer_lattice(tmp_path, capsys):
    patch = tmp_path / "z.json"
    rep = tmp_path / "rep.json"
    run(capsys, "generate", "--scheme", "lattice", "--T", "40", "-o", str(patch))
    code, out, err = run(capsys, "check", "--in", str(patch), "--k-max", "3",
                         "-o", str(rep))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k=1 min_gap=1"
    assert lines[-1] == "passed=true threshold=0.1"
    doc = json.loads(rep.read_text())
    assert doc["gaps"] == [1.0, 1.0, 1.0]
    assert doc["passed"] is True
    assert doc["k_max"] == 3


def test_project_and_fibers_pipeline(tmp_path, capsys):
    patch = tmp_path / "h.json"
    proj = tmp_path / "proj.json"
    csv = tmp_path / "fibers.csv"
    run(capsys, "generate", "--scheme", "heisenberg", "--T", "10",
        "--T-q", "2", "-o", str(patch))
    assert run(capsys, "project", "--in", str(patch), "-o", str(proj))[0] == 0
    flat = load_patch(str(proj))
    assert flat.group.dim_z == 2 and flat.group.dim_q == 0
    assert flat.n == 25
    code, out, err = run(capsys, "fibers", "--in", str(patch), "--R", "1",
                         "-o", str(csv))
    assert code == 0
    assert "fibers=25 essential_fraction=1" in out
    assert "uniformly_large=true" in out
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "delta_0,delta_1,cardinality,covering,essential"
    assert len(rows) == 26
    assert all(r.split(",")[2] == "21" for r in rows[1:])


def test_density_output_matches_library(tmp_path, capsys):
    patch = tmp_path / "z.json"
    est = tmp_path / "est.json"
    run(capsys, "generate", "--scheme", "lattice", "--T", "50", "-o", str(patch))
    code, out, err = run(capsys, "density", "--in", str(patch), "--theta", "0",
                         "--T", "50", "-o", str(est))
    assert code == 0
    doc = json.loads(est.read_text())
    want = sp.twisted_density(
        ql.integer_lattice_patch(ql.abelian_group(1, 0), 50.0).z,
        sp.character(0.0), sp.default_schedule(50.0), core=50.0)
    assert doc["re"] == pytest.approx(want.value.real, abs=1e-11)
    assert doc["re"] == pytest.approx(1.01)
    assert doc["im"] == 0.0
    assert doc["n_points"] == 101
    assert f"D_re={doc['re']:.12g}" in out


def test_spectrum_csv_contents(tmp_path, capsys):
    patch = tmp_path / "t.json"
    csv = tmp_path / "spectrum.csv"
    run(capsys, "generate", "--scheme", "silver", "--R", "1", "--T", "20",
        "-o", str(patch))
    code, out, err = run(capsys, "spectrum", "--in", str(patch), "--K", "0.02",
                         "--h", "0.01", "--S", "1", "--T", "20", "-o", str(csv))
    assert code == 0
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "theta,re_D,im_D,abs_D_sq,c_xi,T,cauchy_tail"
    assert len(rows) == 6
    center = rows[3].split(",")
    assert float(center[0]) == 0.0
    t = ql.model_set_1d(1, 20.0)
    want = sp.twisted_density(t.z, sp.character(0.0),
                              sp.default_schedule(20.0), core=20.0)
    assert float(center[1]) == pytest.approx(want.value.real, abs=1e-11)
    assert float(center[4]) == pytest.approx(abs(want.value) ** 2, abs=1e-10)


@pytest.mark.parametrize("gen, T", [
    (["--scheme", "silver", "--R", "1", "--T", "300"], 300.0),
    (["--scheme", "heisenberg", "--T", "10", "--T-q", "2"], 9.0),
])
def test_spectrum_rows_equal_twisted_density(tmp_path, capsys, gen, T):
    from quasilat.cli import _fmt

    patch = tmp_path / "p.json"
    csv = tmp_path / "spectrum.csv"
    run(capsys, "generate", *gen, "-o", str(patch))
    code, out, err = run(capsys, "spectrum", "--in", str(patch), "--K", "0.5", "--h", "0.01",
                         "--S", "1", "--T", str(T), "-o", str(csv))
    assert code == 0
    rows = csv.read_text().splitlines()[1:]
    P = load_patch(str(patch))
    grid = sp._frequency_grid(0.5, 0.01)[:, 0]
    assert len(rows) == len(grid) == 101
    for row, theta in zip(rows, grid):
        est = sp.twisted_density(ql.fiber(P, np.zeros(P.dim_q)), sp.character(theta),
                                 sp.default_schedule(T), core=P.core_z)
        want = [theta, est.value.real, est.value.imag, abs(est.value) ** 2]
        fields = row.split(",")
        assert fields[:4] == [_fmt(v) for v in want]
        assert fields[5:] == [_fmt(est.T_final), _fmt(est.cauchy_tail)]


def test_bragg_csv_and_summary(tmp_path, capsys):
    patch = tmp_path / "z.json"
    csv = tmp_path / "bragg.csv"
    run(capsys, "generate", "--scheme", "lattice", "--T", "60", "-o", str(patch))
    code, out, err = run(capsys, "bragg", "--in", str(patch), "--eps", "0.5",
                         "--K", "2.5", "--h", "0.01", "--T", "60", "-o", str(csv))
    assert code == 0
    assert "peaks=5" in out and "max_gap=1" in out
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "theta,c_xi,is_peak,c_1,eps"
    assert len(rows) == 502
    peaks = [float(r.split(",")[0]) for r in rows[1:] if r.split(",")[2] == "1"]
    assert peaks == [-2.0, -1.0, 0.0, 1.0, 2.0]
    with pytest.raises(SystemExit) as exc:
        main(["bragg", "--in", str(patch), "--eps", "1.5", "--K", "1",
              "--T", "60", "-o", str(csv)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_pisot_command_modes(tmp_path, capsys):
    code, out, err = run(capsys, "pisot", "--poly", "1,-2,-1", "--hint", "2.414")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "Pisot"
    assert doc["polynomial"] == "X^2 -2X -1"
    assert len(doc["roots"]) == 2
    code2, out2, _ = run(capsys, "pisot", "--quadint", "1,1")
    assert json.loads(out2)["kind"] == "Pisot"
    code3, out3, _ = run(capsys, "pisot", "--value", "2.5")
    doc3 = json.loads(out3)
    assert doc3["kind"] == "NotAlgebraicInteger"
    assert doc3["polynomial"] is None
    # salem case writes the file too
    dest = tmp_path / "lehmer.json"
    code4, out4, _ = run(capsys, "pisot", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1",
                         "--hint", "1.17628", "-o", str(dest))
    assert code4 == 0
    assert json.loads(dest.read_text())["kind"] == "Salem"


def test_pisot_argument_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pisot", "--poly", "1,-2,-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["pisot", "--poly", "1,-2,-1", "--value", "2.4", "--hint", "2.4"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["pisot", "--poly", "1,x,-1", "--hint", "2.4"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, named", [
    (["pisot", "--poly", "1,-2,-1", "--hint", "nan"], "t_hint"),
    (["pisot", "--poly", "1,-2,-1", "--hint", "inf"], "t_hint"),
    (["pisot", "--value", "inf"], "x"),
    (["pisot", "--value", "nan"], "x"),
], ids=["hint-nan", "hint-inf", "value-inf", "value-nan"])
def test_pisot_non_finite_inputs_exit_one(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {named} must be finite, got {named}={argv[-1]}\n"


@pytest.mark.parametrize("doc, cause", [
    ({"kind": "silver"}, "KeyError"),
    ([1, 2], "TypeError"),
    ({"kind": "silver", "window": [[-1.0]]}, "ValueError"),
    ({"kind": "matrix", "window": [[-1.0, 1.0]], "basis": [[1.0, 1.0], [1.0, -1.0]]}, "KeyError"),
    ({"kind": "matrix", "basis": [[1, 0.5], [0.25, -1]], "physical_dim": 0,
      "window": [[-0.6, 0.6]] * 2}, "ValueError"),
    ({"kind": "matrix", "basis": [[1, 0.5], [0.25, -1]], "physical_dim": -1,
      "window": [[-0.6, 0.6]] * 3}, "ValueError"),
], ids=["no-window", "list", "short-interval", "no-physical-dim", "physical-dim-zero",
        "physical-dim-negative"])
def test_malformed_scheme_file_exits_one(tmp_path, capsys, doc, cause):
    sf, out = tmp_path / "s.json", tmp_path / "p.json"
    sf.write_text(json.dumps(doc))
    code, _, err = run(capsys, "generate", "--scheme-file", str(sf), "--T", "10", "-o", str(out))
    assert code == 1 and not out.exists()
    assert err.startswith(f"error: malformed scheme file: {cause}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_runtime_errors_exit_one(tmp_path, capsys):
    patch = tmp_path / "z.json"
    run(capsys, "generate", "--scheme", "lattice", "--T", "20", "-o", str(patch))
    code, out, err = run(capsys, "density", "--in", str(patch), "--theta", "0",
                         "--T", "100")
    assert code == 1 and err.startswith("error:")
    code2, _, err2 = run(capsys, "check", "--in", str(tmp_path / "missing.json"))
    assert code2 == 1 and "error:" in err2
    # fibered command on a flat patch
    code3, _, err3 = run(capsys, "project", "--in", str(patch),
                         "-o", str(tmp_path / "p.json"))
    assert code3 == 1 and "error:" in err3


@pytest.mark.parametrize("ratio, code, err", [
    ("nan", 2, "--ratio: must exceed 1"),
    ("1", 2, "--ratio: must exceed 1"),
    ("inf", 1, "error: ratio must exceed 1 and be finite"),
    ("1.000000001", 1, "error: T schedule too long"),
])
def test_density_schedule_ratio_is_checked(tmp_path, capsys, ratio, code, err):
    patch = tmp_path / "z.json"
    assert main(["generate", "--scheme", "lattice", "--T", "20", "-o", str(patch)]) == 0
    capsys.readouterr()
    argv = ["density", "--in", str(patch), "--theta", "0", "--T", "20", "--ratio", ratio]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and err in captured.err


def _five_point_line(tmp_path, capsys):
    p = tmp_path / "line.json"
    assert main(["generate", "--scheme", "lattice", "--T", "2", "-o", str(p)]) == 0
    capsys.readouterr()
    doc = json.loads(p.read_text())
    assert [pt["z"] for pt in doc["points"]] == [[-2.0], [-1.0], [0.0], [1.0], [2.0]]
    return p, doc


def test_loader_deduplicates_like_make_patch(tmp_path, capsys):
    p, doc = _five_point_line(tmp_path, capsys)
    doc["points"].insert(0, doc["points"][3])
    p.write_text(json.dumps(doc))
    P = load_patch(str(p))
    assert P.n == 5
    assert ql.min_gap(P) == 1.0
    assert P.z[:, 0].tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_loader_refuses_exact_float_disagreement(tmp_path, capsys):
    p, doc = _five_point_line(tmp_path, capsys)
    doc["points"][0]["exact"]["z"][0][0] = 99
    p.write_text(json.dumps(doc))
    with pytest.raises(QuasilatError, match="disagree"):
        load_patch(str(p))
    code, out, err = run(capsys, "check", "--in", str(p))
    assert code == 1 and "disagree" in err


def _float_key_rows(doc, z_of_row):
    """doc without exact entries, the z of each row in z_of_row replaced."""
    points = [{"z": z_of_row.get(i, p["z"]), "q": p["q"]} for i, p in enumerate(doc["points"])]
    return {**doc, "points": points}


def _set_exact_z(doc, value):
    doc["points"][0]["exact"]["z"][0] = [value, 0]
    doc["points"][0]["z"] = [float(value)]
    return doc


def _set_point(doc, i, z, exact_z):
    doc["points"][i]["z"] = z
    doc["points"][i]["exact"]["z"] = exact_z
    return doc


@pytest.mark.parametrize("damage", [
    lambda doc: {"window_z": 1.0},
    lambda doc: [doc],
    lambda doc: {**doc, "points": 5},
    lambda doc: {**doc, "group": {"dim_z": 1}},
    lambda doc: {**doc, "window_q": "wide"},
    lambda doc: {**doc, "points": [{"z": ["x"], "q": []}]},
    lambda doc: {**doc, "points": [{"z": [0.0]}]},
    lambda doc: {**doc, "points": [{"z": [0.0], "q": [], "exact": {"z": [[0]], "q": [], "d": 2}}]},
    # A NaN z has no key of its own: unrefused, it would load as a duplicate point.
    lambda doc: _float_key_rows(doc, {0: [math.nan]}),
    lambda doc: _float_key_rows(doc, {0: [-2.0, 0.5], 1: []}),
    lambda doc: _set_exact_z(doc, 10 ** 21),
    lambda doc: _set_exact_z(doc, -(10 ** 21)),
    lambda doc: _set_exact_z(doc, 2 ** 62 + 1),
    # PointPatch invariants; an infinite core would let the patch answer at any T.
    lambda doc: {**doc, "core_z": math.nan},
    lambda doc: {**doc, "window_z": math.inf, "core_z": math.inf},
    lambda doc: {**doc, "core_z": -1.0},
    lambda doc: {**doc, "window_z": 1.0, "core_z": 1.0},
    # JSON values that are not numbers, and exact coefficients that are not integers.
    lambda doc: _set_point(doc, 4, ["2"], [["2", 0]]),
    lambda doc: _set_point(doc, 4, [True], [[True, 0]]),
    lambda doc: _set_point(doc, 4, [2.0], [[2.9, 0]]),
    lambda doc: _set_point(doc, 4, [2.0], [[2.0, 0]]),
], ids=["no-group", "not-an-object", "points-not-a-list", "no-dim-q", "window-not-a-number",
        "z-not-a-number", "no-q", "half-a-pair", "nan-z", "ragged-z", "beyond-int64", "below-int64",
        "beyond-coeff-limit", "nan-core", "infinite", "negative-core", "points-outside-window",
        "string-z", "bool-z", "fractional-exact", "float-exact"])
def test_malformed_patch_file_exits_one_without_traceback(tmp_path, capsys, damage):
    p, doc = _five_point_line(tmp_path, capsys)
    bad = damage(doc)
    with pytest.raises(QuasilatError) as exc:
        patch_from_doc(bad)
    assert isinstance(exc.value, (MalformedPatchError, CoefficientOverflowError))
    p.write_text(json.dumps(bad))
    code, out, err = run(capsys, "project", "--in", str(p), "-o", str(tmp_path / "out.json"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("enabled", [True, False])
def test_loader_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled):
    good, doc = _five_point_line(tmp_path, capsys)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, "points": 5}))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert load_patch(str(good)).n == 5
        assert gc.isenabled() is enabled
        with pytest.raises(MalformedPatchError):
            load_patch(str(bad))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _reference_doc(P):
    """The v1 document built one dict per point: json.dumps of it is the
    reference save_patch must match byte for byte."""
    g = P.group
    points = [{"z": z, "q": q} for z, q in zip(P.z.tolist(), P.q.tolist())]
    if P.exact is not None:
        e = P.exact
        z_pairs = np.stack([e.za, e.zb], axis=-1).tolist()
        q_pairs = np.stack([e.qa, e.qb], axis=-1).tolist()
        for entry, ez, eq in zip(points, z_pairs, q_pairs):
            entry["exact"] = {"z": ez, "q": eq, "d": int(e.d)}
    return {
        "group": {
            "dim_z": g.dim_z,
            "dim_q": g.dim_q,
            "matrices": [[[float(x) for x in row] for row in m] for m in g.cocycle.matrices],
        },
        "window_z": P.window_z,
        "window_q": P.window_q,
        "core_z": P.core_z,
        "core_q": P.core_q,
        "points": points,
        "provenance": P.provenance,
    }


def test_saved_bytes_match_a_dict_per_point_encoder(tmp_path):
    h3 = ql.integer_lattice_patch(ql.heisenberg_group(), 2, 1)
    matrix = ql.generate_model_set(ql.matrix_scheme([[1, 0.5], [0.25, -1]], 1, [(-0.6, 0.6)]), 6)
    signed_zero = ql.make_patch(ql.abelian_group(1), [[-0.0], [1.5]], np.zeros((2, 0)), 2, 0, 2, 0)
    patches = {
        "silver": ql.generate_model_set(ql.silver_scheme(-1, 1), 3000),
        "h3": h3,
        "signed-zero": signed_zero,
        "lattice-dim-2": ql.integer_lattice_patch(ql.abelian_group(2), 3),
        "matrix": matrix,
        "project": ql.project(h3),
        "empty": ql.make_patch(ql.abelian_group(1), np.zeros((0, 1)), np.zeros((0, 0)), 1, 0, 1, 0),
        "no-columns": ql.make_patch(ql.abelian_group(0), np.zeros((2, 0)), np.zeros((2, 0)), 1, 0, 1, 0),
    }
    assert patches["silver"].exact.max_abs() >= 1000 and matrix.exact is None
    assert "-0.0" in json.dumps(_reference_doc(signed_zero))
    for name, P in patches.items():
        path = tmp_path / f"{name}.json"
        save_patch(P, str(path))
        assert path.read_text() == json.dumps(_reference_doc(P)) + "\n", name


def _set_radicand(doc, d, first=0):
    for pt in doc["points"][first:]:
        pt["exact"]["d"] = d
    return doc


@pytest.mark.parametrize("damage", [
    lambda doc: _set_radicand(doc, 5, first=3),
    lambda doc: _set_radicand(doc, -1),
    lambda doc: _set_radicand(doc, 4),
], ids=["mixed", "negative", "square"])
def test_patch_file_radicands_are_checked(tmp_path, capsys, damage):
    # Every b is 0, so the floats agree whatever the radicand.
    p, doc = _five_point_line(tmp_path, capsys)
    p.write_text(json.dumps(damage(doc)))
    code, out, err = run(capsys, "check", "--in", str(p), "-o", str(tmp_path / "out.json"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "radicand" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_readme_examples_print_what_the_readme_shows(tmp_path, capsys):
    def lines(*argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        return out.splitlines()

    silver, h3 = str(tmp_path / "silver.json"), str(tmp_path / "h3.json")
    lines("generate", "--scheme", "silver", "--R", "1", "--T", "10", "-o", silver)
    lines("generate", "--scheme", "heisenberg", "--T", "10", "--T-q", "2", "-o", h3)
    assert lines("check", "--in", silver, "--k-max", "2") == [
        "k=1 min_gap=0.414213562373",
        "k=2 min_gap=0.171572875254",
        "passed=true threshold=0.1",
    ]
    fibers = lines("fibers", "--in", h3, "--R", "1.5", "-o", str(tmp_path / "fibers.csv"))
    assert fibers == ["fibers=25 essential_fraction=1", "uniformly_large=true"]
    assert lines("density", "--in", silver, "--theta", "0", "--T", "8") == [
        "D_re=0.6875 D_im=0",
        "abs2=0.47265625 T=8 cauchy_tail=0.20625 converged=false",
    ]
    bragg = lines("bragg", "--in", silver, "--eps", "0.5", "--K", "3", "--h", "0.01",
                  "--T", "9", "-o", str(tmp_path / "bragg.csv"))
    assert bragg == ["c_1=0.521604938272 peaks=37 max_gap=0.82"]


def test_spectrum_and_bragg_refuse_a_zero_palm_radius_on_fibers(tmp_path, capsys):
    # --S defaults to 0, an empty q-ball: c_xi would divide by its zero volume.
    patch = str(tmp_path / "h.json")
    code, _, _ = run(capsys, "generate", "--scheme", "heisenberg",
                     "--T", "10", "--T-q", "2", "-o", patch)
    assert code == 0
    csv = tmp_path / "s.csv"
    code, out, err = run(capsys, "spectrum", "--in", patch, "--K", "0.5", "--h", "0.01",
                         "--T", "9", "-o", str(csv))
    assert code == 1 and "S=0" in err and not csv.exists()
    code, out, err = run(capsys, "bragg", "--in", patch, "--eps", "0.5", "--K", "0.5",
                         "--h", "0.01", "--T", "9", "-o", str(tmp_path / "b.csv"))
    assert code == 1 and "S=0" in err and "inf" not in out


def test_size_caps_exit_one_without_writing(tmp_path, capsys):
    big = tmp_path / "big.json"
    code, out, err = run(capsys, "generate", "--scheme", "lattice", "--dim", "3",
                         "--T", "400", "-o", str(big))
    assert code == 1 and out == "" and not big.exists()
    assert err == ("error: lattice window too large: 513922401 exceeds the cap of 50000000; "
                   "shrink the window\n")


def test_infinite_grid_step_is_a_usage_error(tmp_path, capsys):
    patch = tmp_path / "z.json"
    assert main(["generate", "--scheme", "lattice", "--T", "20", "-o", str(patch)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["bragg", "--in", str(patch), "--eps", "0.5", "--K", "1", "--h", "inf",
              "--T", "4", "-o", str(tmp_path / "b.csv")])
    assert exc.value.code == 2
    assert "--h: must be positive and finite, got inf" in capsys.readouterr().err
