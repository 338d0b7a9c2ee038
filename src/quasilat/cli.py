"""Command-line front end and file formats.

Patches and schemes travel as JSON (exact coordinates preserved),
spectra as CSV with named headers.  Exit codes: 0 on success, 1 when a
library computation fails or a file is malformed (the error text goes
to stderr verbatim), 2 on usage mistakes.  Identical invocations write
identical bytes.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .cutproject import (
    CutProjectScheme,
    alignment_report,
    fiber as extract_fiber,
    generate_model_set,
    matrix_scheme,
    project,
    silver_scheme,
)
from .diffraction import bragg_scan
from .errors import CoefficientOverflowError, MalformedPatchError, QuasilatError, RadicandMismatchError
from .group import CentralExtensionGroup, Cocycle, abelian_group, heisenberg_group
from .pisot import (
    IntPolynomial,
    SpectrumClassification,
    classify_pisot_salem,
    classify_real,
    min_poly_quadratic,
)
from .pointset import (
    QUANT,
    ExactCoords,
    PointPatch,
    check_meyerian,
    integer_lattice_patch,
    make_patch,
)
from .ring import COEFF_LIMIT, QuadInt
from .spectral import (
    Character,
    _frequency_grid,
    _twisted_densities,
    default_schedule,
    palm_profile,
    twisted_density,
)

COMMANDS = ("generate", "check", "project", "fibers", "density", "spectrum", "bragg", "pisot")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------- JSON


def _write(path: str, text: str) -> None:
    """Write text and a final newline: the one writer of every CLI file."""
    with open(path, "w") as f:
        f.write(text + "\n")


def patch_to_doc(P: PointPatch) -> dict:
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


def patch_from_doc(doc: dict) -> PointPatch:
    """The patch a v1 document describes.  Malformed documents raise
    MalformedPatchError; exact coefficients beyond COEFF_LIMIT raise
    CoefficientOverflowError."""
    try:
        gdoc = doc["group"]
        cocycle = Cocycle(
            dim_z=int(gdoc["dim_z"]),
            dim_q=int(gdoc["dim_q"]),
            matrices=tuple(
                tuple(tuple(float(x) for x in row) for row in m) for m in gdoc["matrices"]
            ),
        )
        group = CentralExtensionGroup(cocycle)
        pts = doc["points"]
        n = len(pts)
        z = np.array([p["z"] for p in pts], dtype=float).reshape(n, group.dim_z)
        q = np.array([p["q"] for p in pts], dtype=float).reshape(n, group.dim_q)
        exact = None
        if n and all("exact" in p for p in pts):
            radicands = sorted({int(p["exact"]["d"]) for p in pts})
            if len(radicands) > 1:
                raise RadicandMismatchError(f"patch file: points carry radicands {radicands}")
            z2 = np.array([p["exact"]["z"] for p in pts], dtype=np.int64).reshape(n, group.dim_z, 2)
            q2 = np.array([p["exact"]["q"] for p in pts], dtype=np.int64).reshape(n, group.dim_q, 2)
            exact = ExactCoords(za=z2[..., 0], zb=z2[..., 1], qa=q2[..., 0], qb=q2[..., 1], d=radicands[0])
        windows = {k: float(doc[k]) for k in ("window_z", "window_q", "core_z", "core_q")}
        provenance = str(doc.get("provenance", ""))
    except OverflowError as exc:
        raise CoefficientOverflowError(f"patch file: a number is out of range ({exc})") from exc
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise MalformedPatchError(f"malformed patch file: {type(exc).__name__}: {exc}") from exc
    if exact is not None:
        if exact.max_abs() > COEFF_LIMIT:
            raise CoefficientOverflowError(f"patch file: exact coefficients exceed {COEFF_LIMIT}")
        if not np.abs(np.hstack([exact.embed_z() - z, exact.embed_q() - q])).max() <= QUANT:
            raise MalformedPatchError(f"exact and float coordinates disagree by more than {QUANT:g}")
    try:
        return make_patch(group=group, z=z, q=q, provenance=provenance, exact=exact, **windows)
    except ValueError as exc:  # a PointPatch invariant
        raise MalformedPatchError(f"malformed patch file: {exc}") from exc


def save_patch(P: PointPatch, path: str) -> None:
    _write(path, json.dumps(patch_to_doc(P)))


def load_patch(path: str) -> PointPatch:
    with open(path) as f:
        return patch_from_doc(json.load(f))


def scheme_from_doc(doc: dict) -> CutProjectScheme:
    window = [(float(lo), float(hi)) for lo, hi in doc["window"]]
    if doc["kind"] == "silver":
        (lo, hi), = window
        return silver_scheme(lo, hi)
    return matrix_scheme(
        basis=doc["basis"],
        physical_dim=int(doc["physical_dim"]),
        window=window,
    )


def classification_to_doc(cls: SpectrumClassification) -> dict:
    return {
        "polynomial": str(cls.polynomial) if cls.polynomial is not None else None,
        "roots": [
            {
                "re": float(f"{r.real:.12g}"),
                "im": float(f"{r.imag:.12g}"),
                "modulus": float(f"{abs(r):.12g}"),
            }
            for r in cls.roots
        ],
        "kind": cls.kind,
        "warnings": list(cls.warnings),
    }


# ----------------------------------------------------------------- CLI


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasilat",
        allow_abbrev=False,
        description="Aperiodic point sets and their diffraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(COMMANDS))

    p = sub.add_parser("generate", allow_abbrev=False, help="build a patch and write it as JSON")
    p.add_argument("--scheme", choices=["silver", "lattice", "heisenberg"],
                   help="built-in construction")
    p.add_argument("--scheme-file", help="cut-and-project scheme JSON")
    p.add_argument("--R", type=float, default=1.0, help="window half-width for silver (default 1)")
    p.add_argument("--T", type=float, help="physical radius / z box half-width")
    p.add_argument("--T-q", type=float, default=0.0, help="q box half-width (heisenberg)")
    p.add_argument("--dim", type=int, default=1, help="z dimensions for lattice (default 1)")
    p.add_argument("-o", "--out", required=True, help="output patch JSON path")

    p = sub.add_parser("check", allow_abbrev=False, help="Delone and Meyer axioms on a patch")
    p.add_argument("--in", dest="inp", required=True, help="patch JSON")
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("-o", "--out", help="report JSON path")

    p = sub.add_parser("project", allow_abbrev=False, help="projection to the q block")
    p.add_argument("--in", dest="inp", required=True, help="patch JSON")
    p.add_argument("-o", "--out", required=True, help="output patch JSON path")

    p = sub.add_parser("fibers", allow_abbrev=False, help="per-fiber denseness report")
    p.add_argument("--in", dest="inp", required=True, help="patch JSON")
    p.add_argument("--R", type=float, required=True, help="denseness threshold")
    p.add_argument("--h", type=float, default=0.01, help="probe grid step")
    p.add_argument("--z-radius", type=float, help="probe box half-width (default: z core)")
    p.add_argument("-o", "--out", required=True, help="output CSV path")

    p = sub.add_parser("density", allow_abbrev=False, help="twisted density of the identity fiber")
    p.add_argument("--in", dest="inp", required=True, help="patch JSON")
    p.add_argument("--theta", type=float, nargs="+", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--ratio", type=float, default=1.3, help="schedule ratio (default 1.3)")
    p.add_argument("-o", "--out", help="estimate JSON path")

    p = sub.add_parser("spectrum", allow_abbrev=False, help="D and c_xi over a frequency grid")
    p.add_argument("--in", dest="inp", required=True, help="patch JSON")
    p.add_argument("--K", type=float, required=True, help="grid half-width")
    p.add_argument("--h", type=float, required=True, help="grid step")
    p.add_argument("--S", type=float, default=0.0, help="Palm q radius (fibered patches)")
    p.add_argument("--T", type=float, required=True, help="averaging radius")
    p.add_argument("-o", "--out", required=True, help="output CSV path")

    p = sub.add_parser("bragg", allow_abbrev=False, help="(1-eps) Bragg peak scan")
    p.add_argument("--in", dest="inp", required=True, help="patch JSON")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--K", type=float, required=True, help="grid half-width")
    p.add_argument("--h", type=float, default=1e-3, help="grid step")
    p.add_argument("--S", type=float, default=0.0, help="Palm q radius (fibered patches)")
    p.add_argument("--T", type=float, required=True, help="averaging radius")
    p.add_argument("-o", "--out", required=True, help="output CSV path")

    p = sub.add_parser("pisot", allow_abbrev=False, help="Pisot / Salem classification")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="comma-separated monic integer coefficients, degree first")
    src.add_argument("--quadint", help="a,b[,d] meaning a + b*sqrt(d)")
    src.add_argument("--value", type=float, help="decimal dilation factor (bounded recognizer)")
    p.add_argument("--hint", type=float, help="designated root (required with --poly)")
    p.add_argument("-o", "--out", help="classification JSON path")

    return parser


def _require_positive(parser: argparse.ArgumentParser, **named: Optional[float]) -> None:
    for name, value in named.items():
        if value is not None and not 0 < value < math.inf:
            parser.error(f"argument --{name}: must be positive and finite, got {value:g}")


def _cmd_generate(args, parser) -> int:
    if bool(args.scheme) == bool(args.scheme_file):
        parser.error("exactly one of --scheme / --scheme-file is required")
    if args.T is None:
        parser.error("argument --T: required")
    _require_positive(parser, T=args.T)
    if args.scheme == "silver":
        _require_positive(parser, R=args.R)
        patch = generate_model_set(silver_scheme(-args.R, args.R), args.T)
    elif args.scheme == "lattice":
        if args.dim < 1:
            parser.error("argument --dim: must be at least 1")
        patch = integer_lattice_patch(abelian_group(args.dim), args.T)
    elif args.scheme == "heisenberg":
        _require_positive(parser, **{"T-q": args.T_q})
        patch = integer_lattice_patch(heisenberg_group(), args.T, args.T_q)
    else:
        with open(args.scheme_file) as f:
            scheme = scheme_from_doc(json.load(f))
        patch = generate_model_set(scheme, args.T)
    save_patch(patch, args.out)
    print(f"wrote {patch.n} points to {args.out}")
    return 0


def _cmd_check(args, parser) -> int:
    if args.k_max < 1:
        parser.error("argument --k-max: must be at least 1")
    _require_positive(parser, threshold=args.threshold)
    P = load_patch(args.inp)
    rep = check_meyerian(P, k_max=args.k_max, threshold=args.threshold)
    for k, gap in enumerate(rep.gaps, start=1):
        print(f"k={k} min_gap={_fmt(gap)}")
    print(f"passed={'true' if rep.passed else 'false'} threshold={_fmt(rep.threshold)}")
    if args.out:
        doc = {
            "k_max": rep.k_max,
            "threshold": float(_fmt(rep.threshold)),
            "gaps": [float(_fmt(g)) for g in rep.gaps],
            "passed": rep.passed,
            "core_z": float(_fmt(rep.core_z)),
            "core_q": float(_fmt(rep.core_q)),
            "counts": list(rep.counts),
        }
        _write(args.out, json.dumps(doc))
    return 0


def _cmd_project(args, parser) -> int:
    P = load_patch(args.inp)
    save_patch(project(P), args.out)
    return 0


def _cmd_fibers(args, parser) -> int:
    _require_positive(parser, R=args.R, h=args.h)
    P = load_patch(args.inp)
    rep = alignment_report(P, args.R, h=args.h, z_radius=args.z_radius)
    header = [f"delta_{k}" for k in range(P.dim_q)] + ["cardinality", "covering", "essential"]
    lines = [",".join(header)]
    for fr in rep.fibers:
        row = [_fmt(v) for v in fr.delta]
        row += [str(fr.cardinality), _fmt(fr.covering_estimate), str(int(fr.essential))]
        lines.append(",".join(row))
    _write(args.out, "\n".join(lines))
    print(f"fibers={len(rep.fibers)} essential_fraction={_fmt(rep.essential_fraction)}")
    print(f"uniformly_large={'true' if rep.uniformly_large else 'false'}")
    return 0


def _cmd_density(args, parser) -> int:
    _require_positive(parser, T=args.T)
    if not args.ratio > 1:
        parser.error("argument --ratio: must exceed 1")
    P = load_patch(args.inp)
    if len(args.theta) != P.dim_z:
        parser.error(
            f"argument --theta: expected {P.dim_z} components, got {len(args.theta)}"
        )
    xi = Character(tuple(args.theta))
    ident = extract_fiber(P, np.zeros(P.dim_q))
    est = twisted_density(ident, xi, default_schedule(args.T, ratio=args.ratio), core=P.core_z)
    print(f"D_re={_fmt(est.value.real)} D_im={_fmt(est.value.imag)}")
    print(
        f"abs2={_fmt(abs(est.value) ** 2)} T={_fmt(est.T_final)} "
        f"cauchy_tail={_fmt(est.cauchy_tail)} converged={'true' if est.converged else 'false'}"
    )
    if args.out:
        doc = {
            "theta": [float(_fmt(t)) for t in args.theta],
            "re": float(_fmt(est.value.real)),
            "im": float(_fmt(est.value.imag)),
            "abs2": float(_fmt(abs(est.value) ** 2)),
            "T": float(_fmt(est.T_final)),
            "cauchy_tail": float(_fmt(est.cauchy_tail)),
            "converged": est.converged,
            "n_points": est.n_points,
        }
        _write(args.out, json.dumps(doc))
    return 0


def _cmd_spectrum(args, parser) -> int:
    _require_positive(parser, K=args.K, h=args.h, T=args.T)
    if not 0 <= args.S < math.inf:
        parser.error(f"argument --S: must be non-negative and finite, got {args.S:g}")
    P = load_patch(args.inp)
    if P.dim_z != 1:
        raise QuasilatError("spectrum CSV is defined for one central dimension")
    grid = _frequency_grid(args.K, args.h)
    fiber_rows = extract_fiber(P, np.zeros(P.dim_q))
    schedule = default_schedule(args.T)
    c_vals = palm_profile(P, grid, args.S, args.T)
    ests = _twisted_densities(fiber_rows, grid, schedule, core=P.core_z)
    lines = ["theta,re_D,im_D,abs_D_sq,c_xi,T,cauchy_tail"]
    for theta, c, est in zip(grid[:, 0], c_vals, ests):
        lines.append(
            ",".join(
                [
                    _fmt(theta),
                    _fmt(est.value.real),
                    _fmt(est.value.imag),
                    _fmt(abs(est.value) ** 2),
                    _fmt(c),
                    _fmt(est.T_final),
                    _fmt(est.cauchy_tail),
                ]
            )
        )
    _write(args.out, "\n".join(lines))
    print(f"wrote {len(grid)} rows to {args.out}")
    return 0


def _cmd_bragg(args, parser) -> int:
    _require_positive(parser, K=args.K, h=args.h, T=args.T)
    if not 0 <= args.S < math.inf:
        parser.error(f"argument --S: must be non-negative and finite, got {args.S:g}")
    if not 0 < args.eps < 1:
        parser.error(f"argument --eps: must lie in (0, 1), got {args.eps:g}")
    P = load_patch(args.inp)
    rep = bragg_scan(P, eps=args.eps, K=args.K, h=args.h, S=args.S, T=args.T)
    lines = ["theta,c_xi,is_peak,c_1,eps"]
    for i in range(len(rep.thetas)):
        lines.append(
            ",".join(
                [
                    _fmt(rep.thetas[i, 0]) if rep.thetas.shape[1] == 1 else ";".join(_fmt(v) for v in rep.thetas[i]),
                    _fmt(rep.c_values[i]),
                    str(int(rep.peak_mask[i])),
                    _fmt(rep.c_1),
                    _fmt(rep.eps),
                ]
            )
        )
    _write(args.out, "\n".join(lines))
    print(
        f"c_1={_fmt(rep.c_1)} peaks={int(rep.peak_mask.sum())} max_gap={_fmt(rep.max_gap)}"
    )
    return 0


def _cmd_pisot(args, parser) -> int:
    if args.poly is not None:
        if args.hint is None:
            parser.error("argument --hint: required with --poly")
        try:
            coeffs = tuple(int(c.strip()) for c in args.poly.split(","))
        except ValueError:
            parser.error(f"argument --poly: not an integer list: {args.poly!r}")
        cls = classify_pisot_salem(IntPolynomial(coeffs), args.hint)
    elif args.quadint is not None:
        try:
            parts = [int(c.strip()) for c in args.quadint.split(",")]
        except ValueError:
            parser.error(f"argument --quadint: not an integer list: {args.quadint!r}")
        if len(parts) == 2:
            a, b, d = parts[0], parts[1], 2
        elif len(parts) == 3:
            a, b, d = parts
        else:
            parser.error("argument --quadint: expected a,b or a,b,d")
        x = QuadInt(a, b, d)
        cls = classify_pisot_salem(min_poly_quadratic(x), x.embed())
    else:
        cls = classify_real(args.value)
    doc = classification_to_doc(cls)
    text = json.dumps(doc)
    print(text)
    if args.out:
        _write(args.out, text)
    return 0


_DISPATCH = {
    "generate": _cmd_generate,
    "check": _cmd_check,
    "project": _cmd_project,
    "fibers": _cmd_fibers,
    "density": _cmd_density,
    "spectrum": _cmd_spectrum,
    "bragg": _cmd_bragg,
    "pisot": _cmd_pisot,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(f"unknown command: {argv[0]!r} (choose from {', '.join(COMMANDS)})", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args, parser)
    except (QuasilatError, ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
