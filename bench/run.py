#!/usr/bin/env python3
"""hhcert benchmark: run one workload, check every op, print its metrics.

    python3 bench/run.py --workload verify_catalogue --seed 3 --seconds 12 --trace 0
    python3 bench/run.py --workload all            # every workload, untraced and traced

Run from anywhere; the library is taken from ``src/`` next to this
directory, and every file the run writes goes to ``bench/out/``.  With
``--trace 0`` the last line of stdout carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  See
bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

# set-up time is the median of this many fresh processes: the measured run's
# own and these extra ones, which stop right after set-up
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150.0
DEFAULT_SEED = 0
# The reference timing (worker.reference_seconds) on the reference machine
# in a quiet phase.  Op timings are scaled by REFERENCE_S / measured
# reference, which cancels the machine's drift in speed.
REFERENCE_S = {"cli_cold": 0.200}
REFERENCE_S_IN_PROCESS = 0.0020
# the first this many ops of the default seed have recorded output digests
DIGEST_OPS = 256

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def environment() -> dict:
    """Where the numbers were measured."""
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    cube_mb = wl.CERT_GRID[0] ** 2 * wl.CERT_GRID[1] * 8 / 1e6
    l3 = caches.get("L3 Unified", "")
    if l3.endswith("K"):
        l3_mb = int(l3[:-1]) * 1024 / 1e6
        fit = ("fits, so certify_fine measures cache-resident work, not DRAM "
               "bandwidth; the L3 is shared with other tenants" if cube_mb < l3_mb
               else "does not fit, so certify_fine also measures DRAM traffic")
        cube_note = (f"one float64 cube is {cube_mb:.2f} MB against an L3 of "
                     f"{l3_mb:.0f} MB ({l3}): it {fit}")
    else:
        cube_note = f"one float64 cube is {cube_mb:.2f} MB; the L3 size is unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "loadavg_at_start": list(os.getloadavg()),
        "certify_fine_cube": cube_note,
    }


def digest_env(env: dict) -> dict:
    return {key: env[key] for key in ("python", "numpy", "machine", "cpu_model")}


def op_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def spawn_worker(workload: str, seed: int, mode: str, seconds: float,
                 prefix: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
           "--out", str(prefix)]
    t0 = perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed_scale(workload: str, reference_s: list[float]) -> list[float]:
    """Per round, the reference time on the reference machine over the mean
    of the two reference timings that bracket the round."""
    ref = REFERENCE_S.get(workload, REFERENCE_S_IN_PROCESS)
    return [2.0 * ref / (before + after)
            for before, after in zip(reference_s, reference_s[1:])]


def op_mix(workload: str, ops: dict[int, dict], counts: dict[int, int]) -> dict:
    """How many ops of each kind ran: by category, and by theorem id,
    checker or subcommand."""
    by_cat: dict[str, int] = {}
    by_kind: dict[str, int] = {}
    for index, n in counts.items():
        op = ops[index]
        by_cat[op["cat"]] = by_cat.get(op["cat"], 0) + n
        if workload == "verify_catalogue":
            kind = f"{op['tid']} hypotheses={'on' if op['hyp'] else 'off'}"
        elif workload == "certify_fine":
            kind = op["checker"]
        elif workload == "stress_mixed":
            kind = "r" if op["r"] is not None else "alpha_m"
        else:
            kind = wl.cli_argv(op)[0]
        by_kind[kind] = by_kind.get(kind, 0) + n
    return {"by_category": dict(sorted(by_cat.items())),
            "by_kind": dict(sorted(by_kind.items()))}


def check_records(workload: str, seed: int, prefix: Path, env: dict) -> dict:
    """Check every op record against the oracle and the recorded digests."""
    recorded = {}
    if seed == DEFAULT_SEED and DIGESTS.exists():
        book = json.loads(DIGESTS.read_text(encoding="utf-8"))
        if book.get("env") == digest_env(env):
            recorded = book["workloads"].get(workload, {})
    known = wl.KNOWN_DEFECTS.get(workload, frozenset())
    ops: dict[int, dict] = {}
    first_output: dict[int, str] = {}
    verdicts: dict[int, str | None] = {}
    counts: dict[int, int] = {}
    latencies = []
    killed = []
    attempted = failed = unexpected = 0
    failures: dict[str, int] = {}
    digests: dict[str, str] = {}
    path = Path(f"{prefix}.ops.jsonl")
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            index, traced, seconds, status, out = json.loads(line)
            attempted += 1
            latencies.append(seconds * 1e3)
            killed.append(status == "timeout")
            if index not in ops:
                ops[index] = wl.make_op(workload, seed, index)
                first_output[index] = out
                reason = status if status != "ok" else oracle.check_op(
                    workload, ops[index], out)
                if reason is None:
                    digests[str(index)] = op_digest(out)
                    if recorded.get(str(index), digests[str(index)]) != digests[str(index)]:
                        reason = "output differs from the recorded digest"
                verdicts[index] = reason
            reason = verdicts[index]
            if reason is None and out != first_output[index]:
                reason = "traced and untraced outputs differ"
            if reason is None and seconds > wl.OP_LIMIT_S:
                reason = f"over the {wl.OP_LIMIT_S:g} s op limit"
            counts[index] = counts.get(index, 0) + 1
            if reason is not None:
                failed += 1
                key = f"{ops[index]['cat']}: {reason}"[:200]
                failures[key] = failures.get(key, 0) + 1
                unexpected += ops[index]["cat"] not in known
    path.unlink()
    return {"attempted": attempted, "failed": failed, "unexpected": unexpected,
            "latencies": latencies, "killed": killed, "failures": failures,
            "digests": digests,
            "digests_compared": sum(1 for i in digests if i in recorded),
            "op_mix": op_mix(workload, ops, counts)}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    prefix = OUT / f"{workload}-s{seed}-t{trace}"
    env = environment()
    setups = [spawn_worker(workload, seed, "probe", 0.0, prefix)["setup_s"]
              for _ in range(0 if trace else SETUP_PROBES)]
    summary = spawn_worker(workload, seed, "trace" if trace else "run", seconds, prefix)
    setups.append(summary["setup_s"])
    checked = check_records(workload, seed, prefix, env)
    lat = checked.pop("latencies")
    killed = checked.pop("killed")
    attempted, failed = checked["attempted"], checked["failed"]
    if trace:
        values, units = summary["layers"], spans.PER_LAYER_UNITS
    else:
        # an op killed at the time limit took the limit, however fast the
        # machine ran, so its time is not scaled
        scale = speed_scale(workload, summary["reference_s"])
        per_round = len(wl.ROUNDS[workload])
        scaled = [ms if killed[i] else ms * scale[i // per_round]
                  for i, ms in enumerate(lat)]
        limit_s = [0.0] * len(scale)
        for i, ms in enumerate(lat):
            if killed[i]:
                limit_s[i // per_round] += ms / 1e3
        busy_s = sum((s - t) * k + t for s, t, k in zip(summary["round_s"], limit_s, scale))
        rss_kb = summary["children_maxrss_kb" if workload == "cli_cold" else "maxrss_kb"]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(lat) / busy_s,
            "op_ms_p50": statistics.median(scaled),
            "op_ms_p90": statistics.quantiles(scaled, n=10, method="inclusive")[8],
            "peak_rss_mb": rss_kb * 1024 / 1e6,
            "ok_frac": (attempted - failed) / attempted,
        }
        raw = {"ops_per_s": len(lat) / sum(summary["round_s"]),
               "op_ms_p50": statistics.median(lat),
               "op_ms_p90": statistics.quantiles(lat, n=10, method="inclusive")[8]}
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": checked.pop("unexpected") == 0,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "op_samples": len(lat), "rounds": summary["rounds"],
        "setup_samples_s": setups,
        "metrics": metrics,
        "panels_per_integral": summary.get("panels_per_integral"),
        "spans": summary.get("spans"),
        "unscaled": None if trace else raw,
        "reference_s": summary["reference_s"],
        "environment": env,
        **checked,
    }
    # digests are in op order, so this covers the run's outputs in order
    result["digest"] = hashlib.sha256("".join(result["digests"].values()).encode()).hexdigest()
    (OUT / f"{workload}-s{seed}-t{trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def record_digests(workloads: list[str], seconds: float) -> None:
    """Store the default seed's per-op output digests for later runs to match."""
    book = {"env": digest_env(environment()), "workloads": {}}
    if DIGESTS.exists():
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        if recorded.get("env") == book["env"]:
            book["workloads"] = recorded["workloads"]
    for workload in workloads:
        digests = run_one(workload, DEFAULT_SEED, seconds, 0)["digests"]
        book["workloads"][workload] = {
            index: digest for index, digest in digests.items() if int(index) < DIGEST_OPS}
    DIGESTS.write_text(json.dumps(book, indent=0) + "\n", encoding="utf-8")


def print_result(res: dict) -> None:
    tag = f"{res['workload']} seed={res['seed']} trace={res['trace']}"
    print(f"# {tag}: {res['op_samples']} ops in {res['rounds']} rounds, "
          f"failed_frac={res['failed_frac']:.4f} ({res['failed']}/{res['attempted']}), "
          f"correct={res['correct']}")
    for name, m in res["metrics"].items():
        print(f"{tag} {name} = {m['value']:.6g} {m['unit']}")
    for reason, n in res["failures"].items():
        print(f"{tag} failed x{n}: {reason}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help=f"record output digests of seed {DEFAULT_SEED} and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hhcert" / "__init__.py").is_file():
        print(f"error: no hhcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=ROOT, capture_output=True, check=False)
    workloads = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_digests:
        record_digests(workloads, args.seconds)
        return 0
    if args.workload == "all":
        results = [run_one(w, args.seed, args.seconds, t) for w in workloads for t in (0, 1)]
        for res in results:
            print_result(res)
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{name}": m for r in results
                        for name, m in r["metrics"].items()}}))
        return 0
    res = run_one(args.workload, args.seed, args.seconds, args.trace)
    print_result(res)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
