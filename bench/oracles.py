"""Per-job correctness oracles.

Each check returns a list of mismatch descriptions; an empty list means
the job's answers are right.  The references are independent of the code
under test wherever one exists: closed forms (Kesten's bounded remainder
for the silver count, Hof's Bragg intensity, the silver unit gaps),
integer lattice counts, O(n^2) brute-force gap scans, and file bytes.
The CLI is checked against the same library call made in process.
No tolerance here is widened to make a job pass.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from quasilat import cli, cutproject, diffraction, group, pisot, pointset, ring, spectral

from jobs import CHECK_THETAS, PALM_WQ, PALM_WZ

SQRT2 = math.sqrt(2.0)
# Silver window [-1, 1]: for b != 0 exactly two integers a have
# |a - b sqrt2| <= 1, and x = a + b sqrt2 = 2 b sqrt2 + x*.  So
# #{|x| <= T} = 3 + 4 floor((T - 1) / (2 sqrt2)) + e with 0 <= e <= 4,
# which is within 5.6 of sqrt2 * T: the density is within 2.8 / T of
# 1/sqrt2.  Stated bound: 3 / T.
DENSITY_BOUND_C = 3.0
HOF_C0 = 0.5  # (R / sqrt2)^2 for R = 1 (Hof 1995; Baake-Grimm 2013, ch. 9)
HOF_REL = 0.03
ATOM_PALM_REL = 0.05  # AC8: |atom - palm| <= 5 % of c_1
CLI_ABS = 1e-9


def _close(name: str, got: float, want: float, tol: float, out: list[str]) -> None:
    if not abs(got - want) <= tol:
        out.append(f"{name}: got {got!r}, want {want!r} within {tol:g}")


def silver_gap(k: int, R: float = 1.0) -> float:
    """Smallest |x| over nonzero x in Z[sqrt2] with |x*| <= 4kR: the min gap
    of D^k for the silver model set with window [-R, R]."""
    W = 4 * k * R
    bmax = int(W / (2 * SQRT2)) + 2
    amax = int(W + 2 * SQRT2 * bmax) + 2
    best = math.inf
    for b in range(-bmax, bmax + 1):
        for a in range(-amax, amax + 1):
            if (a, b) != (0, 0) and abs(a - b * SQRT2) <= W:
                best = min(best, abs(a + b * SQRT2))
    return best


def brute_min_gap(P: pointset.PointPatch) -> float:
    """O(n^2) scan of gauge(x^-1 y) over distinct pairs.  Mixed patches
    must live in H3, where beta(v, w) = v1 w2 - v2 w1."""
    z, q = P.z, P.q
    best = math.inf
    for i in range(P.n):
        dq = q - q[i]
        dz = z[:, 0] - z[i, 0]
        if P.dim_q:
            dz = dz - (q[i, 0] * dq[:, 1] - q[i, 1] * dq[:, 0])
            dist = np.maximum(np.sqrt(np.sum(dq * dq, axis=1)), np.sqrt(np.abs(dz)))
        else:
            dist = np.abs(dz)
        dist[i] = math.inf
        best = min(best, float(dist.min()))
    return best


def _density(name: str, count: int, T: float, out: list[str]) -> None:
    _close(name, count / (2 * T), 1 / SQRT2, DENSITY_BOUND_C / T, out)


def _atoms_vs_palm(atoms, thetas, palm, out: list[str]) -> None:
    c1 = float(palm[np.argmin(np.abs(thetas))])
    for th, atom in zip(CHECK_THETAS, atoms):
        j = int(np.argmin(np.abs(thetas - th)))
        _close(f"atom({th}) vs palm", atom, float(palm[j]), ATOM_PALM_REL * c1, out)


def _meyer(res: dict, base: str, want_gaps: list[float], out: list[str]) -> None:
    rep = res["meyer"]
    if not rep.passed:
        out.append("check_meyerian did not pass")
    for k, (got, want) in enumerate(zip(rep.gaps, want_gaps), start=1):
        _close(f"D^{k} gap vs closed form", got, want, 1e-9, out)
    _close("min_gap(D) vs check_meyerian k=1", res["gap_D"], rep.gaps[0], 1e-12, out)
    _close("min_gap(D) vs brute force", res["gap_D"], brute_min_gap(res["D"]), 1e-12, out)
    _close(f"min_gap({base}) vs brute force", res[f"gap_{base}"], brute_min_gap(res[base]), 1e-12, out)


def check_silver_flat(p: dict, res: dict) -> list[str]:
    out: list[str] = []
    P = res["P"]
    _density("silver count density", P.n, p["T_enum"], out)
    dens = res["dens"]
    _density("twisted_density(0)", round(dens.value.real * 2 * p["palm_T"]), p["palm_T"], out)
    _close("twisted_density(0) imaginary part", dens.value.imag, 0.0, 1e-12, out)
    thetas, palm = res["thetas"], res["palm"]
    c0 = float(palm[np.argmin(np.abs(thetas))])
    _close("c_0 vs Hof", c0, HOF_C0, HOF_REL * HOF_C0, out)
    _close("atom(0) vs Hof", res["atoms"][0], HOF_C0, HOF_REL * HOF_C0, out)
    _atoms_vs_palm(res["atoms"], thetas, palm, out)
    bragg = res["bragg"]
    _close("bragg c_1 density", math.sqrt(bragg.c_1), 1 / SQRT2, DENSITY_BOUND_C / p["bragg"]["T"], out)
    zero = int(np.argmin(np.abs(bragg.thetas[:, 0])))
    if not bragg.peak_mask[zero] or not math.isfinite(bragg.max_gap):
        out.append("bragg scan lost the peak at 0 or found no second peak")
    _meyer(res, "Q", [silver_gap(k) for k in range(1, p["meyer"]["k_max"] + 1)], out)
    if not (res["dilation"].holds and res["dilation"].n_tested > 0):
        out.append("silver set not invariant under dilation by 1 + sqrt2")
    if res["kind"] != "Pisot":
        out.append(f"1 + sqrt2 classified {res['kind']}, want Pisot")
    return out


def _disk_count(radius: float) -> int:
    """Integer points q in Z^2 with |q| <= radius."""
    R = int(radius) + 1
    return sum(1 for x in range(-R, R + 1) for y in range(-R, R + 1) if x * x + y * y <= radius * radius + 1e-9)


def _cos_sum(theta: float, n: int) -> float:
    return sum(math.cos(2 * math.pi * theta * z) for z in range(-n, n + 1))


def lattice_atom(theta: float, T: float, r: float) -> float:
    """Closed form of diffraction_atom on the central autocorrelation of
    the integer lattice in H3, Wiener radius floor(r^2) + 1/2.

    Every x of the gauge ball B_T sees every lattice point w with
    gauge(w) <= r as x^-1 y, so each central atom z (|z| <= r^2) weighs
    #(Z^3 in B_T) / vol(B_T), with #(Z^3 in B_T) = #(Z^2 in the T-disk)
    * (2 floor(T^2) + 1) and vol(B_T) = pi T^2 * 2 T^2."""
    n = math.floor(r * r + 1e-12)
    weight = _disk_count(T) * (2 * math.floor(T * T + 1e-12) + 1) / (2 * math.pi * T ** 4)
    return weight * _cos_sum(theta, n) / (2 * n + 1)


def lattice_palm(theta: float, S: float, T: float) -> float:
    """Closed form of palm_profile on the integer lattice in H3 cut to
    |z| <= T, |q|_inf <= S: every fiber over the S-disk has the same
    twisted sum over the 2T + 1 integers of [-T, T]."""
    n = math.floor(T + 1e-12)
    return _disk_count(S) * (_cos_sum(theta, n) / (2 * T)) ** 2 / (math.pi * S * S)


def _lattice_covering_ok(estimate: float, h: float) -> bool:
    """Z has covering radius 1/2; the grid estimate plus its slack h/2
    lies in [1/2, 1/2 + h]."""
    return 0.5 <= estimate <= 0.5 + h + 1e-12


def check_heisenberg_fibered(p: dict, res: dict) -> list[str]:
    out: list[str] = []
    T, r = p["ac_T"], p["ac_range"]
    wq = math.floor(T + r + 1e-9)
    if res["Hp"].n != (2 * res["wz"] + 1) * (2 * wq + 1) ** 2:
        out.append("lattice patch has the wrong point count")
    for th, atom in zip(CHECK_THETAS, res["atoms"]):
        _close(f"atom({th}) vs lattice count", atom, lattice_atom(th, T, r), 1e-9, out)
    thetas, palm = res["thetas"], res["palm"]
    for j in range(0, len(thetas), max(1, len(thetas) // 10)):
        _close(f"palm({thetas[j]}) vs lattice count", palm[j], lattice_palm(thetas[j], PALM_WQ, PALM_WZ), 1e-9, out)
    _close("identity fiber density", res["dens"].value.real, (2 * PALM_WZ + 1) / (2 * PALM_WZ), 1e-12, out)
    a = p["align"]
    rep = res["align"]
    if len(rep.fibers) != (2 * a["wq"] + 1) ** 2:
        out.append(f"alignment_report found {len(rep.fibers)} fibers, lattice has {(2 * a['wq'] + 1) ** 2}")
    if any(fr.cardinality != 2 * a["wz"] + 1 for fr in rep.fibers):
        out.append("a fiber's cardinality differs from the lattice count")
    if not rep.uniformly_large or rep.projection_min_gap != 1.0:
        out.append("integer lattice fibers not uniformly large or projection gap != 1")
    if not all(_lattice_covering_ok(fr.covering_estimate, a["h"]) for fr in rep.fibers):
        out.append("a fiber's covering estimate leaves [1/2, 1/2 + h]")
    if res["proj"].n != (2 * a["wq"] + 1) ** 2:
        out.append("projection has the wrong point count")
    _meyer(res, "M", [1.0] * p["meyer"]["k_max"], out)
    return out


def _same_patch(name: str, got: pointset.PointPatch, want: pointset.PointPatch, out: list[str]) -> None:
    """Same exact keys, floats within CLI_ABS, same windows and cores."""
    boxes = ("window_z", "window_q", "core_z", "core_q")
    if got.n != want.n or not np.array_equal(got.key_matrix, want.key_matrix):
        out.append(f"{name}: exact keys differ from the in-process patch")
    elif got.n and max(float(np.abs(got.z - want.z).max(initial=0.0)),
                       float(np.abs(got.q - want.q).max(initial=0.0))) > CLI_ABS:
        out.append(f"{name}: coordinates differ from the in-process patch")
    if any(getattr(got, b) != getattr(want, b) for b in boxes):
        out.append(f"{name}: window or core differs from the in-process patch")


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_cli_roundtrip(p: dict, res: dict) -> list[str]:
    out: list[str] = []
    f, runs = res["files"], res["runs"]
    for key, (rc, _, err) in runs.items():
        if key != "density" and rc != 0:
            out.append(f"{key} exited {rc}: {err.strip()}")
    if out:
        return out
    rc, _, err = runs["density"]
    if rc != 1 or not err.startswith("error:"):
        out.append(f"density beyond the core exited {rc}, want 1 with an error message")

    silver = cli.load_patch(f["silver.json"])
    _density("generated silver density", silver.n, p["silver_T"], out)
    _same_patch("generate silver", silver,
                cutproject.generate_model_set(cutproject.silver_scheme(-1.0, 1.0), p["silver_T"]), out)
    h3 = p["h3"]
    lattice_n = (2 * h3["T"] + 1) * (2 * h3["T_q"] + 1) ** 2
    if res["P"].n != lattice_n:
        out.append(f"generated H3 patch has {res['P'].n} points, lattice has {lattice_n}")
    _same_patch("generate heisenberg", res["P"],
                pointset.integer_lattice_patch(group.heisenberg_group(), float(h3["T"]), float(h3["T_q"])), out)

    small = cli.load_patch(f["small.json"])
    rep = pointset.check_meyerian(small, k_max=p["check"]["k_max"], threshold=0.1)
    printed = [float(line.split("min_gap=")[1]) for line in runs["check"][1].splitlines() if "min_gap=" in line]
    if len(printed) != len(rep.gaps):
        out.append("check printed the wrong number of gaps")
    for k, (got, want) in enumerate(zip(printed, rep.gaps), start=1):
        _close(f"check k={k} vs library", got, want, CLI_ABS, out)
        _close(f"check k={k} vs closed form", got, silver_gap(k), CLI_ABS, out)

    b = p["bragg"]
    lib = diffraction.bragg_scan(silver, eps=b["eps"], K=b["K"], h=b["h"], S=0.0, T=b["T"])
    rows = _read_csv(f["bragg.csv"])
    if len(rows) != len(lib.thetas):
        out.append("bragg CSV has the wrong number of rows")
    else:
        got = np.array([[float(r["theta"]), float(r["c_xi"]), float(r["is_peak"])] for r in rows])
        want = np.column_stack([lib.thetas[:, 0], lib.c_values, lib.peak_mask])
        err_max = float(np.abs(got - want).max())
        _close("bragg CSV vs library", err_max, 0.0, CLI_ABS, out)

    s = p["spectrum"]
    rows = _read_csv(f["spectrum.csv"])
    grid = np.array([float(r["theta"]) for r in rows])
    c_lib = spectral.palm_profile(silver, grid.reshape(-1, 1), 0.0, s["T"])
    _close("spectrum c_xi vs library", float(np.abs(np.array([float(r["c_xi"]) for r in rows]) - c_lib).max()),
           0.0, CLI_ABS, out)
    schedule = spectral.default_schedule(s["T"])
    for r in rows[:: max(1, len(rows) // 20)]:
        est = spectral.twisted_density(silver.z, spectral.character(float(r["theta"])), schedule,
                                       core=silver.core_z)
        _close(f"spectrum D({r['theta']}) vs library", abs(complex(float(r["re_D"]), float(r["im_D"])) - est.value),
               0.0, CLI_ABS, out)

    rows = _read_csv(f["fibers.csv"])
    if len(rows) != (2 * h3["T_q"] + 1) ** 2 or any(int(r["cardinality"]) != 2 * h3["T"] + 1 for r in rows):
        out.append("fibers CSV disagrees with the lattice fiber counts")
    else:
        rep = cutproject.alignment_report(res["P"], p["fibers"]["R"])
        got = np.array([[float(r["delta_0"]), float(r["delta_1"]), float(r["covering"]), float(r["essential"])]
                        for r in rows])
        want = np.array([[*fr.delta, fr.covering_estimate, fr.essential] for fr in rep.fibers])
        _close("fibers CSV vs library", float(np.abs(got - want).max()), 0.0, CLI_ABS, out)
        if not all(_lattice_covering_ok(c, 0.01) for c in got[:, 2]):
            out.append("fibers CSV covering leaves [1/2, 1/2 + h] for h = 0.01, the command's default")
    proj = cli.load_patch(f["proj.json"])
    if proj.n != (2 * h3["T_q"] + 1) ** 2:
        out.append("projected patch has the wrong point count")
    _same_patch("project", proj, cutproject.project(res["P"]), out)

    args = p["pisot"]
    if args[0] == "--quadint":
        x = ring.QuadInt(*(int(v) for v in args[1].split(",")))
        want_kind = pisot.classify_pisot_salem(pisot.min_poly_quadratic(x), x.embed()).kind
    else:
        want_kind = pisot.classify_real(float(args[1])).kind
    if f'"kind": "{want_kind}"' not in runs["pisot"][1]:
        out.append(f"pisot output lacks kind {want_kind}")

    P, P2 = res["P"], res["P2"]
    if P.exact is None or P2.exact is None or not np.array_equal(P.key_matrix, P2.key_matrix):
        out.append("load(save(P)) changed the exact keys")
    if Path(f["copy.json"]).read_bytes() != Path(f["h3.json"]).read_bytes():
        out.append("saving the loaded patch did not reproduce the file byte for byte")
    return out


CHECK = {
    "silver-flat": check_silver_flat,
    "heisenberg-fibered": check_heisenberg_fibered,
    "cli-roundtrip": check_cli_roundtrip,
}
