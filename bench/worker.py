"""Run one workload in this interpreter and write its record as JSON.

``run.py`` starts this script once per benchmark run, so the peak memory it
reports belongs to that workload alone. Passes repeat, one CLI call after the
other, until the timed passes fill ``--seconds``; every pass is checked
outside its timed region. With ``--trace 1`` it instead runs one untraced and
one traced pass on the same inputs and reports per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parent

# Passes cycle through this many input sets drawn from the seed, so the
# inputs (and with them the largest trajectory, hence peak memory) do not
# depend on how many passes fit into the run.
INPUT_SETS = 4


def _peak_rss_mb() -> tuple[float, float]:
    """Peak resident memory of this process and of its largest child (a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


def _environment(ergoflux, seed: int) -> dict:
    import scipy

    worker_count = getattr(ergoflux.scenarios, "_worker_count", None)
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ERGOFLUX_THREADS": os.environ.get("ERGOFLUX_THREADS"),
        "pool_workers": worker_count() if worker_count is not None else None,
        "ergoflux": str(Path(ergoflux.__file__).parent),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy problem sizes for the self-test")
    ap.add_argument("--record", type=Path, required=True)
    args = ap.parse_args()

    import ergoflux
    from ergoflux import cli

    size = workloads.TOY if args.toy else workloads.FULL
    plan = workloads.PLANS[args.workload]
    workdir = BENCH / "out" / f"work-{args.workload}-{os.getpid()}"
    checker = workloads.Checker(ergoflux)

    def timed_pass(index: int, tracer: Tracer | None = None):
        calls = plan(np.random.default_rng([args.seed, index % INPUT_SETS]), workdir, size)
        workloads.prepare(calls)
        t0 = time.perf_counter()
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.request = i
            workloads.run_call(cli, call)
        return time.perf_counter() - t0, calls

    record = {"workload": args.workload, "trace": args.trace, "toy": args.toy}
    try:
        if args.trace:
            untraced, calls = timed_pass(0)
            checker.check(calls)
            tracer = Tracer(ergoflux)
            tracer.install()
            try:
                traced, calls = timed_pass(0, tracer)
            finally:
                tracer.uninstall()
            checker.check(calls)
            record["per_layer"] = tracer.metrics(untraced, traced)
            record["spans"] = len(tracer.start)
            tracer.save(BENCH / "out" / f"spans-{args.workload}.npz")
        else:
            durations: list[float] = []
            while True:
                elapsed, calls = timed_pass(len(durations))
                durations.append(elapsed)
                checker.check(calls)
                if sum(durations) + statistics.median(durations) > args.seconds:
                    break
            record["passes"] = durations
            own, child = _peak_rss_mb()
            record["peak_rss_mb"] = own + child
            record["peak_rss_parts_mb"] = [own, child]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = checker.tally
    record.update(
        attempted=tally.attempted,
        failed=tally.failed,
        reasons=tally.reasons,
        answers=checker.answers,
        env=_environment(ergoflux, args.seed),
    )
    args.record.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
