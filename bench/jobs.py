"""Set-up and job bodies: the quasilat calls each workload makes.

Every call into a quasilat module goes through `tr.call(layer, name, fn,
...)`, so the traced run records one span per call and the untraced run
makes the same calls.  Counts for the per-layer metrics are taken right
after the call that produced them.  A job returns what the oracles in
oracles.py need; it does not check anything itself.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from quasilat import cli, cutproject, diffraction, errors, group, pisot, pointset, ring, spectral

# Frequencies at which atoms are compared with Palm coefficients (as in AC8).
CHECK_THETAS = (0.0, 0.5, 1.0)
# Palm patch of the fibered workload, built once in set-up.
PALM_WZ, PALM_WQ = 40.0, 12.0


@dataclass
class Context:
    workload: str
    flat: Optional[group.CentralExtensionGroup] = None
    heis: Optional[group.CentralExtensionGroup] = None
    palm_patch: Optional[pointset.PointPatch] = None
    palm_ball_points: int = 0
    identity_fiber: Optional[np.ndarray] = None
    workdir: Optional[Path] = None
    cli_jobs: int = 0


def setup(workload: str, root: Path) -> Context:
    """Shared state every job of the workload uses."""
    ctx = Context(workload)
    if workload == "silver-flat":
        ctx.flat = group.abelian_group(1, 0)
    elif workload == "heisenberg-fibered":
        ctx.heis = group.heisenberg_group()
        P = pointset.integer_lattice_patch(ctx.heis, window_z=PALM_WZ, window_q=PALM_WQ)
        ctx.palm_patch = P
        in_ball = (np.sqrt(np.sum(P.q * P.q, axis=1)) <= PALM_WQ + 1e-12) & (np.abs(P.z[:, 0]) <= PALM_WZ + 1e-12)
        ctx.palm_ball_points = int(np.count_nonzero(in_ball))
        ctx.identity_fiber = cutproject.fiber(P, np.zeros(2))
    elif workload == "cli-roundtrip":
        ctx.workdir = Path(tempfile.mkdtemp(prefix="_work_", dir=root / "bench"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ctx


def teardown(ctx: Context) -> None:
    if ctx.workdir is not None:
        shutil.rmtree(ctx.workdir, ignore_errors=True)


def theta_grid(spec: dict) -> np.ndarray:
    return np.arange(-spec["m"], spec["m"] + 1, dtype=float) / spec["den"]


def _refused(tr, layer: str, name: str, fn, *args, **kwargs) -> bool:
    """Make a request beyond the trusted core; True when the library refuses."""
    try:
        tr.call(layer, name, fn, *args, **kwargs)
    except errors.InsufficientWindowError:
        return True
    return False


def _count_eta(tr, eta) -> None:
    tr.add("diffraction.pairs", round(float(eta.weights.sum()) * eta.normalization))
    tr.add("diffraction.atoms", eta.n_atoms)


def _silver_patch(tr, ctx: Context, R: float, T: float) -> pointset.PointPatch:
    pts = tr.call("ring", "silver_points", ring.silver_points, -R, R, T)
    tr.add("ring.points", len(pts))
    exact = tr.call("pointset", "from_quadints_z", pointset.ExactCoords.from_quadints_z, pts)
    P = tr.call("pointset", "patch_from_exact", pointset.patch_from_exact, ctx.flat, exact, T, 0.0, T, 0.0)
    tr.add("pointset.rows_in", exact.n)
    tr.add("pointset.rows_out", P.n)
    return P


def _difference_set(tr, P: pointset.PointPatch) -> tuple[pointset.PointPatch, float]:
    """D = P^-1 P clipped to the core of P, and min_gap of D there."""
    inv = tr.call("pointset", "inverse_set", pointset.inverse_set, P)
    tr.add("pointset.rows_in", P.n)
    tr.add("pointset.rows_out", inv.n)
    D = tr.call("pointset", "minkowski", pointset.minkowski, inv, P)
    core = D.restrict(z_box=P.core_z, q_box=P.core_q)
    tr.add("pointset.minkowski_pairs", inv.n * P.n)
    tr.add("pointset.minkowski_kept", core.n)
    return core, tr.call("pointset", "min_gap", pointset.min_gap, core)


def silver_flat(ctx: Context, p: dict, tr) -> dict:
    T = p["T_enum"]
    P = _silver_patch(tr, ctx, p["R"], T)
    eta = tr.call("diffraction", "autocorrelation", diffraction.autocorrelation, P, p["ac_T"], p["ac_range"])
    _count_eta(tr, eta)
    atoms = [
        tr.call("diffraction", "diffraction_atom", diffraction.diffraction_atom,
                eta, spectral.character(t), p["ac_range"] + 0.5)
        for t in CHECK_THETAS
    ]
    thetas = theta_grid(p["palm_thetas"])
    palm = tr.call("spectral", "palm_profile", spectral.palm_profile, P, thetas, 0.0, p["palm_T"])
    in_ball = int(np.count_nonzero(np.abs(P.z[:, 0]) <= p["palm_T"] + 1e-12))
    tr.add("spectral.theta_points", len(thetas) * in_ball)
    tr.add("spectral.bytes_computed", 16 * len(thetas) * in_ball)
    dens = tr.call("spectral", "twisted_density", spectral.twisted_density,
                   P.z, spectral.character(0.0), spectral.default_schedule(p["palm_T"]), core=P.core_z)
    b = p["bragg"]
    bragg = tr.call("diffraction", "bragg_scan", diffraction.bragg_scan, P, b["eps"], b["K"], b["h"], 0.0, b["T"])
    m = p["meyer"]
    Q = _silver_patch(tr, ctx, p["R"], m["T"])
    meyer = tr.call("pointset", "check_meyerian", pointset.check_meyerian, Q, k_max=m["k_max"])
    D, gap_D = _difference_set(tr, Q)
    gap_Q = tr.call("pointset", "min_gap", pointset.min_gap, Q)
    lam = ring.QuadInt(*p["dilation"])
    dil = tr.call("pisot", "dilation_invariance", pisot.dilation_invariance, P, lam)
    poly = tr.call("pisot", "min_poly_quadratic", pisot.min_poly_quadratic, lam)
    kind = tr.call("pisot", "classify_pisot_salem", pisot.classify_pisot_salem, poly, lam.embed()).kind
    refused = _refused(tr, "diffraction", "autocorrelation", diffraction.autocorrelation,
                       P, p["refuse_factor"] * P.core_z, p["ac_range"])
    return dict(P=P, atoms=atoms, thetas=thetas, palm=palm, dens=dens, bragg=bragg, Q=Q,
                meyer=meyer, D=D, gap_D=gap_D, gap_Q=gap_Q, dilation=dil, kind=kind,
                refusals=int(refused), requests=1)


def _lattice(tr, G, wz: float, wq: float) -> pointset.PointPatch:
    P = tr.call("pointset", "integer_lattice_patch", pointset.integer_lattice_patch, G, wz, wq)
    tr.add("pointset.rows_in", (2 * math.floor(wz + 1e-9) + 1) * (2 * math.floor(wq + 1e-9) + 1) ** 2)
    tr.add("pointset.rows_out", P.n)
    return P


def heisenberg_fibered(ctx: Context, p: dict, tr) -> dict:
    H = ctx.heis
    T, r = p["ac_T"], p["ac_range"]
    # The smallest cores autocorrelation accepts (see its window check).
    wz = math.ceil(T * T + r * r + H.cocycle.drift_bound * T * r)
    Hp = _lattice(tr, H, float(wz), T + r)
    eta = tr.call("diffraction", "autocorrelation", diffraction.autocorrelation, Hp, T, r)
    _count_eta(tr, eta)
    eta_e = tr.call("diffraction", "central_autocorrelation", diffraction.central_autocorrelation, eta)
    atoms = [
        tr.call("diffraction", "diffraction_atom", diffraction.diffraction_atom,
                eta_e, spectral.character(t), math.floor(r * r + 1e-12) + 0.5)
        for t in CHECK_THETAS
    ]
    thetas = theta_grid(p["palm_thetas"])
    Pp = ctx.palm_patch
    palm = tr.call("spectral", "palm_profile", spectral.palm_profile, Pp, thetas, PALM_WQ, PALM_WZ)
    tr.add("spectral.theta_points", len(thetas) * ctx.palm_ball_points)
    tr.add("spectral.bytes_computed", 16 * len(thetas) * Pp.n)
    dens = tr.call("spectral", "twisted_density", spectral.twisted_density,
                   ctx.identity_fiber, spectral.character(0.0), [PALM_WZ], core=Pp.core_z)
    refused = _refused(tr, "spectral", "twisted_density", spectral.twisted_density,
                       ctx.identity_fiber, spectral.character(0.0), [p["refuse_factor"] * Pp.core_z], core=Pp.core_z)
    a = p["align"]
    A = _lattice(tr, H, float(a["wz"]), float(a["wq"]))
    align = tr.call("cutproject", "alignment_report", cutproject.alignment_report, A, a["R"], h=a["h"])
    tr.add("cutproject.fibers", len(align.fibers))
    proj = tr.call("cutproject", "project", cutproject.project, A)
    m = p["meyer"]
    M = _lattice(tr, H, float(m["wz"]), float(m["wq"]))
    meyer = tr.call("pointset", "check_meyerian", pointset.check_meyerian, M, k_max=m["k_max"])
    D, gap_D = _difference_set(tr, M)
    gap_M = tr.call("pointset", "min_gap", pointset.min_gap, M)
    return dict(Hp=Hp, wz=wz, atoms=atoms, thetas=thetas, palm=palm, dens=dens, align=align,
                proj=proj, meyer=meyer, M=M, D=D, gap_D=gap_D, gap_M=gap_M,
                refusals=int(refused), requests=1)


def _main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_roundtrip(ctx: Context, p: dict, tr) -> dict:
    # A fresh directory per job: overwriting files costs the file system
    # more than writing new ones, and that cost is not quasilat's.  All
    # of them are removed in teardown, after the measurement.
    ctx.cli_jobs += 1
    d = ctx.workdir / f"job{ctx.cli_jobs}"
    d.mkdir()
    f = {name: str(d / name) for name in (
        "silver.json", "h3.json", "small.json", "bragg.csv", "spectrum.csv",
        "fibers.csv", "proj.json", "copy.json")}
    runs: dict[str, tuple[int, str, str]] = {}

    def run(key: str, argv: list[str], written: Optional[str] = None, patch: bool = False) -> None:
        runs[key] = res = tr.call("cli", argv[0], _main, argv)
        if written is not None and res[0] == 0:
            size = os.path.getsize(written)
            tr.add("cli.bytes_written", size)
            if patch:
                tr.add("cli.patch_bytes", size)
                tr.add("cli.patch_points", int(res[1].split()[1]))

    run("gen_silver", ["generate", "--scheme", "silver", "--R", "1", "--T", repr(p["silver_T"]),
                       "-o", f["silver.json"]], f["silver.json"], patch=True)
    h3 = p["h3"]
    run("gen_h3", ["generate", "--scheme", "heisenberg", "--T", str(h3["T"]), "--T-q", str(h3["T_q"]),
                   "-o", f["h3.json"]], f["h3.json"], patch=True)
    c = p["check"]
    run("gen_small", ["generate", "--scheme", "silver", "--R", "1", "--T", repr(c["T"]),
                      "-o", f["small.json"]], f["small.json"], patch=True)
    run("check", ["check", "--in", f["small.json"], "--k-max", str(c["k_max"])])
    b = p["bragg"]
    run("bragg", ["bragg", "--in", f["silver.json"], "--eps", repr(b["eps"]), "--K", repr(b["K"]),
                  "--h", repr(b["h"]), "--T", repr(b["T"]), "-o", f["bragg.csv"]], f["bragg.csv"])
    s = p["spectrum"]
    run("spectrum", ["spectrum", "--in", f["silver.json"], "--K", repr(s["K"]), "--h", repr(s["h"]),
                     "--T", repr(s["T"]), "-o", f["spectrum.csv"]], f["spectrum.csv"])
    run("fibers", ["fibers", "--in", f["h3.json"], "--R", repr(p["fibers"]["R"]), "-o", f["fibers.csv"]],
        f["fibers.csv"])
    run("project", ["project", "--in", f["h3.json"], "-o", f["proj.json"]], f["proj.json"])
    run("pisot", ["pisot", *p["pisot"]])
    P = tr.call("cli", "load_patch", cli.load_patch, f["h3.json"])
    tr.call("cli", "save_patch", cli.save_patch, P, f["copy.json"])
    size = os.path.getsize(f["copy.json"])
    tr.add("cli.bytes_written", size)
    tr.add("cli.patch_bytes", size)
    tr.add("cli.patch_points", P.n)
    P2 = tr.call("cli", "load_patch", cli.load_patch, f["copy.json"])
    run("density", ["density", "--in", f["silver.json"], "--theta", "0", "--T", repr(p["refuse_factor"] * p["silver_T"])])
    return dict(files=f, runs=runs, P=P, P2=P2,
                refusals=int(runs["density"][0] == 1), requests=1)


RUN = {
    "silver-flat": silver_flat,
    "heisenberg-fibered": heisenberg_fibered,
    "cli-roundtrip": cli_roundtrip,
}
