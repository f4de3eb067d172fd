"""ergoflux benchmark: one command, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload maps --seed 1 --seconds 30 --trace 0

Workloads are ``maps``, ``pulse_shaping`` and ``audit`` (see README.md here).
One client drives ``ergoflux.cli.run`` in a closed loop: each call starts
after the previous one returns. ``--trace 0`` reports ``setup_s``, ``wall_s``
and ``peak_rss_mb``; ``--trace 1`` runs the workload serially
(``ERGOFLUX_THREADS=1``) once untraced and once traced and reports per-layer
self times and counts. Human-readable lines come first; the last line of
standard output is the JSON result. The package is used from ``src/`` as
checked out; nothing is installed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("maps", "pulse_shaping", "audit")
SETUP_PROBES = 5
DEADLINE_S = 175.0


def _die(message: str, code: int) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def _run(argv: list[str], env: dict, deadline: float) -> int:
    """Run a child in its own process group; kill the whole group if it overruns."""
    proc = subprocess.Popen(argv, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def _setup_seconds(env: dict, deadline: float) -> list[float]:
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        if _run([sys.executable, "-c", "import ergoflux.cli"], env, deadline) != 0:
            raise RuntimeError("importing ergoflux failed")
        times.append(time.perf_counter() - t0)
    return times


def _source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ergoflux").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None  # a checkout without git history has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def _spread(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="toy problem sizes (self-test only)")
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ergoflux" / "__init__.py").is_file():
        return _die(f"no ergoflux sources under {ROOT / 'src'}", 2)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if args.trace:
        env["ERGOFLUX_THREADS"] = "1"  # pool workers would hide their spans
    else:
        env.pop("ERGOFLUX_THREADS", None)  # the pool keeps its default size

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.unlink(missing_ok=True)
    try:
        setup = [] if args.trace else _setup_seconds(env, deadline)
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--record", str(record_path)]
        if args.toy:
            argv.append("--toy")
        code = _run(argv, env, deadline)
    except subprocess.TimeoutExpired:
        return _die(f"{args.workload} overran {DEADLINE_S:.0f} s", 3)
    except RuntimeError as exc:
        return _die(str(exc), 2)
    if code != 0 or not record_path.is_file():
        return _die(f"worker exited with {code}", 2)

    record = json.loads(record_path.read_text(encoding="utf-8"))
    record["env"].update(_source_identity())
    attempted, failed = record["attempted"], record["failed"]

    if args.trace:
        from spans import PER_LAYER

        values = record["per_layer"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        print(f"workload {args.workload}  seed {args.seed}  traced serially (ERGOFLUX_THREADS=1), "
              f"{record['spans']} spans")
        for name, unit in PER_LAYER:
            print(f"  {name:40s} {values[name]:.6g} {unit}")
    else:
        wall, q1, q3 = _spread(record["passes"])
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
        print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
              f"pool workers {record['env']['pool_workers']}")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s   median of {len(setup)} fresh interpreters")
        print(f"  wall_s       {wall:.4f} s   median per pass, q1 {q1:.4f}, q3 {q3:.4f}, n={len(record['passes'])}")
        print(f"  peak_rss_mb  {record['peak_rss_mb']:.1f} MB  parent plus largest pool child")
    print(f"  fail_ratio   {failed / max(attempted, 1):.6g} ratio  ({failed} of {attempted} operations)")
    for reason in record["reasons"]:
        print(f"  failure: {reason}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    record_path.write_text(json.dumps({**record, "metrics": metrics}), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
