"""quasilat benchmark: a single-process closed loop over seeded jobs.

    python3 bench/run.py --workload silver-flat --seed 1 --seconds 35 --trace 0

One client submits one job at a time; each job is a set of inputs drawn
from the seed (workloads.py) and passed to quasilat's public API
(jobs.py), and every answer is checked (oracles.py).  With --trace 0 the
last stdout line carries the end-to-end metrics, with --trace 1 the
per-layer metrics from spans.  Everything before that line is a JSON
record of the run: machine, versions, workload rationale, the generated
parameters of every job, and each metric with its sample count.
Metric definitions are in bench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import metrics
from spans import Tracer, Untraced
from workloads import WORKLOADS, job_params

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5


def _import_library():
    """Import quasilat from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import quasilat
    except ImportError as exc:
        sys.exit(f"cannot import quasilat from {ROOT / 'src'}: {exc}")
    if Path(quasilat.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"quasilat was imported from {quasilat.__file__}, not from this checkout")


def _blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, or why it is unknown."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _read(path: str, default: str = "unknown") -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"), "")
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    commit = _read(str(ROOT / ".git" / ref), "")
    if not commit:
        for line in _read(str(ROOT / ".git" / "packed-refs"), "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit or "unknown"


def _metadata(args, quasilat_threads: str) -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "cpu_model": cpu,
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "QUASILAT_THREADS": quasilat_threads,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _probe_setup(args) -> list[float]:
    """Wall time from starting a fresh process until its first job could
    run, measured SETUP_PROBES times."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"set-up probe failed (exit {proc.returncode})")
        times.append(ready - start)
    return times


class Loop:
    """Runs jobs, times the library calls, checks every answer."""

    def __init__(self, workload: str, seed: int, ctx, run_fn, check_fn) -> None:
        self.workload, self.seed, self.ctx = workload, seed, ctx
        self.run_fn, self.check_fn = run_fn, check_fn
        self.attempted = self.failed = self.refusals = self.requests = self.unexpected = 0
        self.params: list[dict] = []
        self.mismatches: list[str] = []

    def job(self, index: int, tr) -> float | None:
        """Run and check job `index`; return its time, or None if it raised."""
        p = job_params(self.workload, self.seed, index)
        if not self.params or self.params[-1]["index"] != index:
            self.params.append({"index": index, **p})
        self.attempted += 1
        self.requests += 1
        try:
            with tr.job(index):
                start = time.perf_counter()
                res = self.run_fn(self.ctx, p, tr)
                elapsed = time.perf_counter() - start
        except Exception:
            self.failed += 1
            self.unexpected += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.refusals += res["refusals"]
        bad = self.check_fn(p, res)
        if res["refusals"] != res["requests"]:
            bad.append("a request beyond the trusted core was answered instead of refused")
        if bad:
            self.failed += 1
            self.mismatches.extend(f"job {index}: {m}" for m in bad)
        return elapsed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    quasilat_threads = os.environ.pop("QUASILAT_THREADS", None) or "unset"
    _import_library()
    import jobs
    import oracles

    ctx = jobs.setup(args.workload, ROOT)
    try:
        if args.setup_only:
            print("ready", flush=True)
            return 0
        setup_times = _probe_setup(args) if args.trace == 0 else []
        loop = Loop(args.workload, args.seed, ctx, jobs.RUN[args.workload], oracles.CHECK[args.workload])
        untraced, tracer = Untraced(), Tracer()
        loop.job(0, untraced)  # warm-up: checked, not timed
        times: list[float] = []
        traced_jobs: list[int] = []
        overheads: list[float] = []
        index = 1
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            if args.trace == 0:
                t = loop.job(index, untraced)
                if t is not None:
                    times.append(t)
            else:
                # Paired passes of the same job, alternating which goes first.
                if index % 2:
                    plain, traced = loop.job(index, untraced), loop.job(index, tracer)
                else:
                    traced, plain = loop.job(index, tracer), loop.job(index, untraced)
                if plain is not None and traced is not None:
                    times.append(plain)
                    traced_jobs.append(index)
                    overheads.append(traced / plain - 1.0)
            index += 1
    finally:
        jobs.teardown(ctx)

    record = {
        "metadata": _metadata(args, quasilat_threads),
        "rationale": WORKLOADS[args.workload].rationale,
        "loop": "closed, one client, one job at a time; job 0 is a checked warm-up",
        "jobs": loop.params,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "fail_frac": {"value": loop.failed / loop.attempted, "unit": "ratio",
                      "samples": loop.attempted},
        "deliberate_out_of_core_requests": loop.requests,
        "mismatches": loop.mismatches[:50],
    }
    out: dict[str, dict] = {}
    if not times:
        sys.exit("no job completed")
    if args.trace == 0:
        tail_value, tail_name = metrics.tail(times)
        out["setup_s"] = _metric(statistics.median(setup_times), "s")
        out["job_s.p50"] = _metric(statistics.median(times), "s")
        out["job_s.tail"] = _metric(tail_value, "s")
        out["jobs_per_s"] = _metric(len(times) / sum(times), "1/s")
        out["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        record["samples"] = {"setup_s": len(setup_times), "job_s": len(times)}
        record["setup_s_probes"] = setup_times
        record["job_s.tail_percentile"] = tail_name
        record["job_s"] = times
    else:
        layer = metrics.per_layer(tracer.spans, tracer.counts, traced_jobs, loop.refusals,
                                  loop.unexpected, statistics.median(overheads))
        out = {name: _metric(layer[name], unit) for name, unit in metrics.PER_LAYER.items()}
        record["samples"] = {"traced_jobs": len(traced_jobs), "spans": len(tracer.spans)}
        record["tracing_overhead"] = {
            "definition": "median over paired passes of traced/untraced job time - 1",
            "untraced_job_s.p50": statistics.median(times),
            "pairs": len(overheads),
        }
    record["metrics"] = out
    print(json.dumps(record, indent=1))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
