"""Metric definitions and the arithmetic that turns samples into metrics.

END_TO_END and PER_LAYER list every metric the benchmark reports, with
its unit; BENCHMARK.json lists the same names.  Per-layer metrics are
derived only from spans and from counts taken at the same call sites.
"""
from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from typing import Optional

from spans import Span, self_times

TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CLI_COMMANDS = ("generate", "check", "bragg", "spectrum", "fibers", "project", "pisot", "density")

# Per-job self time of the spans of these (layer, call) pairs, median over jobs.
_SELF_TIME = {
    ("pointset", "from_quadints_z"): "pointset.make_patch_s",
    ("pointset", "patch_from_exact"): "pointset.make_patch_s",
    ("pointset", "integer_lattice_patch"): "pointset.make_patch_s",
    ("pointset", "inverse_set"): "pointset.make_patch_s",
    ("pointset", "minkowski"): "pointset.minkowski_s",
    ("pointset", "min_gap"): "pointset.min_gap_s",
    ("pointset", "check_meyerian"): "pointset.meyer_s",
    ("cutproject", "alignment_report"): "cutproject.alignment_s",
    ("cutproject", "project"): "cutproject.project_s",
    ("spectral", "palm_profile"): "spectral.palm_s",
    ("spectral", "twisted_density"): "spectral.density_s",
    ("diffraction", "autocorrelation"): "diffraction.autocorr_s",
    ("diffraction", "central_autocorrelation"): "diffraction.atom_s",
    ("diffraction", "diffraction_atom"): "diffraction.atom_s",
    ("diffraction", "bragg_scan"): "diffraction.bragg_s",
    ("cli", "save_patch"): "cli.save_s",
    ("cli", "load_patch"): "cli.load_s",
}
_SELF_TIME.update({("cli", c): f"cli.{c}_s" for c in CLI_COMMANDS})
_LAYER_BUSY = {"ring": "ring.busy_s", "pisot": "pisot.busy_s"}

# Per-job counts recorded at the call sites, median over jobs.
_COUNTS = (
    "ring.points",
    "pointset.minkowski_pairs",
    "cutproject.fibers",
    "spectral.theta_points",
    "spectral.bytes_computed",
    "diffraction.pairs",
    "diffraction.atoms",
    "cli.bytes_written",
)

# Ratios of counts summed over the run: name -> (numerator, denominator).
_RATIOS = {
    "pointset.dedupe_ratio": ("pointset.rows_out", "pointset.rows_in"),
    "pointset.minkowski_yield": ("pointset.minkowski_kept", "pointset.minkowski_pairs"),
    "diffraction.atoms_per_pair": ("diffraction.atoms", "diffraction.pairs"),
    "cli.bytes_per_point": ("cli.patch_bytes", "cli.patch_points"),
}

PER_LAYER: dict[str, str] = {
    "ring.busy_s": "s",
    "ring.points": "count",
    "pointset.make_patch_s": "s",
    "pointset.dedupe_ratio": "ratio",
    "pointset.minkowski_s": "s",
    "pointset.minkowski_pairs": "count",
    "pointset.minkowski_yield": "ratio",
    "pointset.min_gap_s": "s",
    "pointset.meyer_s": "s",
    "cutproject.alignment_s": "s",
    "cutproject.fibers": "count",
    "cutproject.project_s": "s",
    "spectral.palm_s": "s",
    "spectral.density_s": "s",
    "spectral.theta_points": "count",
    "spectral.bytes_computed": "B",
    "diffraction.autocorr_s": "s",
    "diffraction.pairs": "count",
    "diffraction.atoms": "count",
    "diffraction.atoms_per_pair": "ratio",
    "diffraction.bragg_s": "s",
    "diffraction.atom_s": "s",
    "pisot.busy_s": "s",
    "pisot.calls": "count",
    "cli.save_s": "s",
    "cli.load_s": "s",
    "cli.bytes_written": "B",
    "cli.bytes_per_point": "B/point",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "errors.refusals": "count",
    "errors.unexpected": "count",
    "trace.overhead_frac": "ratio",
}


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, str]:
    """Highest percentile of the samples with at least `beyond` samples
    above it, by nearest rank, and its name ("p60").  With no more than
    `beyond` samples no percentile qualifies; the maximum is returned and
    named "max"."""
    ordered = sorted(samples)
    rank = len(ordered) - beyond  # 1-based rank of the reported sample
    if rank < 1:
        return ordered[-1], "max"
    return ordered[rank - 1], f"p{math.floor(100 * rank / len(ordered))}"


def layer_metric(layer: str, call: str) -> Optional[str]:
    return _LAYER_BUSY.get(layer) or _SELF_TIME.get((layer, call))


def per_layer(
    spans: list[Span],
    counts: dict[int, Counter],
    jobs: list[int],
    refusals: int,
    unexpected: int,
    overhead_frac: float,
) -> dict[str, float]:
    """Every PER_LAYER metric for the traced jobs `jobs`."""
    own = self_times(spans)
    busy: dict[int, Counter] = defaultdict(Counter)
    for s in spans:
        name = layer_metric(s.layer, s.call)
        if name is not None:
            busy[s.job][name] += own[s.sid]
        if s.layer == "pisot":
            busy[s.job]["pisot.calls"] += 1
    totals: Counter = Counter()
    for j in jobs:
        totals.update(counts[j])
    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name in _RATIOS:
            num, den = _RATIOS[name]
            out[name] = totals[num] / totals[den] if totals[den] else 0.0
        elif name in _COUNTS:
            out[name] = statistics.median(counts[j][name] for j in jobs)
        elif name == "errors.refusals":
            out[name] = refusals
        elif name == "errors.unexpected":
            out[name] = unexpected
        elif name == "trace.overhead_frac":
            out[name] = overhead_frac
        else:
            out[name] = float(statistics.median(busy[j][name] for j in jobs))
    return out
