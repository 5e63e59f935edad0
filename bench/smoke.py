#!/usr/bin/env python3
"""Smoke test for the benchmark itself; takes about a minute.

    python3 bench/smoke.py

Runs every workload for a single round (``--seconds 0``), untraced and
traced, and checks that:

* the last line of output has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and the metric names and units match
  BENCHMARK.json;
* every op passed the correctness gate, apart from the known defects;
* traced and untraced runs of the same ops gave byte-identical outputs, so
  the span wrappers change nothing;
* in a directory holding only BENCHMARK.json and the benchmark, the run
  fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 5


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(["bench/run.py", "--workload", workload, "--seed", str(SEED),
                "--seconds", "0", "--trace", str(trace)], ROOT)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(last)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in last["metrics"].items()}
    if emitted != declared:
        errors.append(f"{tag}: metrics {sorted(set(emitted) ^ set(declared))} differ")
    if not last["correct"]:
        errors.append(f"{tag}: incorrect")
    result = json.loads((BENCH / "out" / f"{workload}-s{SEED}-t{trace}.json").read_text())
    for reason in result["failures"]:
        if "traced and untraced" in reason:
            errors.append(f"{tag}: {reason}")
    print(f"{tag}: {last['attempted']} ops, {last['failed']} failed, "
          f"correct={last['correct']}")
    return errors


def check_bare_directory() -> list[str]:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["bench/run.py", "--workload", "verify_catalogue", "--seed", "0",
                "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_workload(spec, workload, trace)
    for err in errors:
        print("FAIL", err)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
