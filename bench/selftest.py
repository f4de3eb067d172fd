"""Self-test of the benchmark at toy problem sizes.

    python3 -m pytest -q bench/selftest.py     (or: python3 bench/selftest.py)

Checks that every metric ``BENCHMARK.json`` names is printed with its unit,
that a deliberately corrupted answer raises the failure count, that the
traced run reports every per-layer metric with repeatable counts, and that
the benchmark refuses to run without the package sources. The file name
keeps it out of the repository's default test collection.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def _result(workload: str, trace: int, seed: int = 3) -> dict:
    code, lines = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                         "--trace", str(trace), "--toy")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload):
    result = _result(workload, trace=0)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0.0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_with_exact_counts(workload):
    first, second = _result(workload, trace=1), _result(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = [k for k, unit in expected.items() if unit == "count"]
    assert [first["metrics"][k]["value"] for k in counts] == [second["metrics"][k]["value"] for k in counts]
    used = {"maps": "scenarios.stop_search.calls", "pulse_shaping": "optimizer.gradient.calls",
            "audit": "verification.bound_scan.cells"}[workload]
    assert first["metrics"][used]["value"] > 0


def _toy_pass(workload: str, tmp_path: Path):
    import ergoflux
    from ergoflux import cli

    calls = workloads.PLANS[workload](np.random.default_rng(7), tmp_path, workloads.TOY)
    workloads.prepare(calls)
    for call in calls:
        workloads.run_call(cli, call)
    return ergoflux, calls


def _failures(ergoflux, calls) -> int:
    checker = workloads.Checker(ergoflux)
    checker.check(calls)
    return checker.tally.failed


def _replace_in(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_corrupted_map_cell_counts_as_failure(tmp_path):
    ergoflux, calls = _toy_pass("maps", tmp_path)
    clean = _failures(ergoflux, calls)
    sweep_i = next(c for c in calls if c.kind == "sweep_i")
    last = sweep_i.out.read_text(encoding="utf-8").splitlines()[-1].split(",")
    # the criterion-01 cell, nudged by 1e-5: still below the ergotropy, but off its pinned value
    _replace_in(sweep_i.out, ",".join(last), ",".join([*last[:2], repr(float(last[2]) + 1e-5), *last[3:]]))
    assert _failures(ergoflux, calls) == clean + 1


def test_corrupted_pulse_answer_counts_as_failure(tmp_path):
    ergoflux, calls = _toy_pass("pulse_shaping", tmp_path)
    clean = _failures(ergoflux, calls)
    summary = json.loads(calls[0].stdout)
    summary["charge"] *= 1.0 + 1e-6
    calls[0].stdout = json.dumps(summary)
    assert _failures(ergoflux, calls) == clean + 1


def test_corrupted_audit_report_counts_as_failure(tmp_path):
    ergoflux, calls = _toy_pass("audit", tmp_path)
    assert _failures(ergoflux, calls) == 0
    report = json.loads(calls[0].out.read_text(encoding="utf-8"))
    report["suites"]["conservation"]["passed"] = False
    calls[0].out.write_text(json.dumps(report), encoding="utf-8")
    assert _failures(ergoflux, calls) == 1


def test_refuses_to_run_without_sources():
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        code, lines = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
