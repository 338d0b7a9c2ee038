"""Seeded job generator for the three benchmark workloads.

Every input a job passes to quasilat is derived here from the workload
name, the run seed and the job index; the library receives nothing else.
Parameters are drawn by stratified sampling: each run of STRATA
consecutive jobs visits every stratum of each parameter range once, in a
seeded order, with a seeded offset inside the stratum.  Any two seeds
therefore cover the same ranges in the same proportions, which keeps the
per-run medians steady while the exact values change with the seed.

This module imports nothing from quasilat, so its determinism can be
tested without the library.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

STRATA = 8


@dataclass(frozen=True)
class Workload:
    name: str
    rationale: str
    draw: Callable[["_Draw"], dict]


class _Draw:
    """Stratified uniform draws for one job: each named parameter gets its
    own seeded permutation of strata per cycle of STRATA jobs."""

    def __init__(self, workload: str, seed: int, index: int) -> None:
        self._workload = workload
        self._seed = seed
        self._cycle, self._slot = divmod(index, STRATA)
        self._rng = random.Random(f"{workload}|{seed}|job{index}")

    def unit(self, param: str) -> float:
        perm = list(range(STRATA))
        random.Random(f"{self._workload}|{self._seed}|{param}|cycle{self._cycle}").shuffle(perm)
        return (perm[self._slot] + self._rng.random()) / STRATA

    def uniform(self, param: str, lo: float, hi: float, digits: int = 3) -> float:
        return round(lo + (hi - lo) * self.unit(param), digits)

    def integer(self, param: str, lo: int, hi: int) -> int:
        """Integer in [lo, hi], inclusive."""
        return min(hi, lo + int((hi - lo + 1) * self.unit(param)))

    def choice(self, param: str, options: list):
        return options[min(len(options) - 1, int(len(options) * self.unit(param)))]


def _silver_flat(d: _Draw) -> dict:
    T = d.uniform("T_enum", 4000.0, 8000.0, 1)
    ac_range = d.uniform("ac_range", 45.0, 90.0, 2)
    ac_T = d.uniform("ac_T", 1000.0, 2000.0, 1)
    return {
        "R": 1,
        "T_enum": T,
        "ac_T": ac_T,
        "ac_range": ac_range,
        # Frequencies j/100 for |j| <= 200, including 0, 1/2 and 1 for
        # the Hof and Palm checks.
        "palm_thetas": {"den": 100, "m": 200},
        "palm_T": d.uniform("palm_T", 0.5 * T, T, 1),
        "bragg": {"T": d.uniform("bragg_T", 150.0, 300.0, 1), "K": 10.0, "h": 1e-3, "eps": 0.5},
        "meyer": {"T": d.uniform("meyer_T", 60.0, 120.0, 1), "k_max": 3},
        "dilation": [1, 1],
        "refuse_factor": d.uniform("refuse", 1.05, 1.15),
    }


def _heisenberg_fibered(d: _Draw) -> dict:
    wz, wq = d.choice("meyer_box", [(3, 1), (3, 1), (4, 1), (4, 1), (5, 1), (5, 1), (6, 1), (3, 2)])
    return {
        "ac_T": d.uniform("ac_T", 3.0, 4.0, 3),
        "ac_range": d.uniform("ac_range", 4.0, 4.5, 3),
        "palm_thetas": {"den": 20, "m": d.integer("palm_m", 20, 40)},
        "align": {
            "wz": d.integer("align_wz", 6, 12),
            "wq": d.integer("align_wq", 2, 3),
            "R": 1.5,
            "h": 0.01,
        },
        "meyer": {"wz": wz, "wq": wq, "k_max": 2},
        "refuse_factor": d.uniform("refuse", 1.05, 1.15),
    }


def _cli_roundtrip(d: _Draw) -> dict:
    T = d.uniform("T_silver", 2000.0, 3000.0, 1)
    return {
        "silver_T": T,
        "h3": {"T": d.integer("h3_T", 12, 24), "T_q": d.integer("h3_Tq", 3, 5)},
        "check": {"T": d.uniform("check_T", 80.0, 150.0, 1), "k_max": 3},
        "bragg": {"T": d.uniform("bragg_T", 150.0, 300.0, 1), "K": 4.0, "h": 1e-3, "eps": 0.5},
        "spectrum": {"T": d.uniform("spectrum_T", 200.0, 400.0, 1), "K": d.choice("spectrum_K", [0.5, 0.75]),
                     "h": 2e-3},
        "fibers": {"R": 1.5},
        "pisot": d.choice("pisot", [["--quadint", "1,1,2"], ["--quadint", "3,2,2"], ["--value", "2.4142135624"]]),
        "refuse_factor": d.uniform("refuse", 1.05, 1.15),
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "silver-flat",
            "Exact Z[sqrt 2] model sets: silver_points and patch_from_exact, flat autocorrelation "
            "and diffraction_atom, palm_profile on about 400 thetas, bragg_scan at K=10 h=1e-3, "
            "check_meyerian k=3 and dilation_invariance by 1+sqrt 2. Loads the ring and the 1-d "
            "spectral kernels; never touches fibers, mixed autocorrelation or files.",
            _silver_flat,
        ),
        Workload(
            "heisenberg-fibered",
            "Integer-lattice patches in H3: mixed autocorrelation (the fiber-pair loop), "
            "central_autocorrelation and diffraction_atom against a fibered palm_profile on a Palm "
            "patch built in set-up, alignment_report, and check_meyerian k=2. The ring is barely "
            "used, so ring changes must not move this workload.",
            _heisenberg_fibered,
        ),
        Workload(
            "cli-roundtrip",
            "The same kinds of work through quasilat.cli.main(argv) in process, with patches written "
            "and read as JSON between steps: generate, check, bragg, spectrum, fibers, project, pisot, "
            "save_patch/load_patch, and one density request beyond the core that must exit 1. The "
            "only workload where serialization matters.",
            _cli_roundtrip,
        ),
    )
}


def job_params(workload: str, seed: int, index: int) -> dict:
    """Inputs of job `index` of a run; the same arguments give the same dict."""
    return WORKLOADS[workload].draw(_Draw(workload, seed, index))

