"""One fresh process that sets up a workload and runs its timed loop.

run.py starts this script; it is not meant to be run by hand.  Modes:

* ``probe``: set up (import, generate the first round, one warm-up op) and
  report the set-up time only;
* ``run``: set up, then run whole rounds of ops until ``--seconds`` have
  passed, untraced;
* ``trace``: the same loop, but each round runs twice, once untraced and
  once with span wrappers installed, in alternating order; the spans give
  the per-layer figures and the time difference gives the tracing overhead.

Set-up time is measured from ``--t0``, the parent's ``perf_counter`` just
before it spawned this process (CLOCK_MONOTONIC is shared by all processes).
Each op's record, ``[index, traced, seconds, status, output]``, is appended
to ``<out>.ops.jsonl`` once its round ends; the summary is the last line of
stdout.
"""

from time import perf_counter

T_FIRST = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# the library entry points the benchmark itself calls; tracing rebinds them
API = types.SimpleNamespace()
CHECKERS = {"alpha_m": "check_alpha_m_convex", "r": "check_r_convex",
            "dom_alpha_m": "check_dominated_alpha_m", "dom_r": "check_dominated_r"}


def load_library() -> dict:
    """Import hhcert, bind API, and return the modules tracing wraps."""
    import hhcert
    from hhcert import convexity, hh, jsonio, quadrature, search

    for name in ("parse", "run_verifier", "report_json", "stress",
                 "summary_json", "StressConfig", "Interval", "GridSpec",
                 *CHECKERS.values()):
        setattr(API, name, getattr(hhcert, name))
    API.dumps = jsonio.dumps
    API.parse_input = hhcert.parse  # parsing outside an op is never traced
    return {"api": API, "hhcert.quadrature": quadrature,
            "hhcert.convexity": convexity, "hhcert.hh": hh, "hhcert.search": search}


def _witness(w) -> dict | None:
    if w is None:
        return None
    return {"x": w.x, "y": w.y, "lambda": w.lam, "lhs": w.lhs, "rhs": w.rhs,
            "gap": w.gap}


class Runner:
    """Turns an op into a zero-argument call that returns its output text."""

    def __init__(self, out_prefix: str, tracer: spans.Tracer) -> None:
        self.child_trace = f"{out_prefix}.child.json"
        self.child_stdout = f"{out_prefix}.child.out"
        self.children_maxrss_kb = 0
        self.tracer = tracer
        self.cli_timings: list[tuple[float, float, float]] = []

    def prepare(self, op: dict, traced: bool):
        return getattr(self, f"_{op['kind']}")(op, traced)

    def _verify(self, op: dict, traced: bool):
        def call() -> str:
            f = API.parse(op["f"])
            g = API.parse(op["g"]) if op["g"] is not None else None
            rep = API.run_verifier(op["tid"], f, g, a=op["a"], b=op["b"],
                                   alpha=op["alpha"], m=op["m"], r=op["r"],
                                   hypotheses=op["hyp"])
            return API.report_json(rep)
        return call

    def _certify(self, op: dict, traced: bool):
        # parsing is set-up for the op, not part of it
        f = API.parse_input(op["f"])
        g = API.parse_input(op["g"]) if op["g"] is not None else None
        iv = API.Interval(op["a"], op["b"])
        grid = API.GridSpec(op["n_xy"], op["n_lambda"])
        params = ((op["alpha"], op["m"]) if op["checker"].endswith("alpha_m")
                  else (op["r"],))
        args = (f, iv) if g is None else (f, g, iv)

        def call() -> str:
            res = getattr(API, CHECKERS[op["checker"]])(*args, *params, grid)
            return API.dumps({
                "verdict": "pass" if res.passed else "violation",
                "points_checked": res.points_checked,
                "witness": _witness(res.witness),
                "first_witness": _witness(res.first_witness),
                "f0_nonpositive": res.f0_nonpositive})
        return call

    def _stress(self, op: dict, traced: bool):
        if op["r"] is None:
            pools = {"alpha_pool": (op["alpha"],), "m_pool": (op["m"],), "r_pool": ()}
        else:
            pools = {"alpha_pool": (), "m_pool": (), "r_pool": (op["r"],)}
        cfg = API.StressConfig(seed=op["seed"], trials=1,
                               intervals=(API.Interval(0.0, op["hi"]),), **pools)
        return lambda: API.summary_json(API.stress(cfg))

    def _cli(self, op: dict, traced: bool):
        argv = wl.cli_argv(op)
        if traced:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), self.child_trace, *argv]
        else:
            cmd = [sys.executable, "-m", "hhcert", *argv]

        def call() -> str:
            spawn = perf_counter()
            code, stdout = self._run_child(cmd)
            if traced:
                self._adopt_child(spawn)
            return json.dumps({"exit": code, "stdout": stdout.decode("utf-8", "replace")})
        return call

    def _run_child(self, cmd: list[str]) -> tuple[int, bytes]:
        """Run one child to exit or to the op limit, keeping its own peak RSS.

        A child killed at the limit does not count towards the peak: its
        memory grows for as long as it is allowed to spin.
        """
        with open(self.child_stdout, "w+b") as out:
            os.unlink(self.child_stdout)  # the open file outlives its name
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=subprocess.DEVNULL)
            pidfd = os.pidfd_open(proc.pid)
            try:
                finished = bool(select.select([pidfd], [], [], wl.OP_LIMIT_S)[0])
                if not finished:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if not finished:
                raise subprocess.TimeoutExpired(cmd, wl.OP_LIMIT_S)
            self.children_maxrss_kb = max(self.children_maxrss_kb, usage.ru_maxrss)
            out.seek(0)
            return proc.returncode, out.read()

    def _adopt_child(self, spawn: float) -> None:
        path = Path(self.child_trace)
        child = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        self.cli_timings.append(((child["t_first"] - spawn) * 1e3,
                                 child["import_s"] * 1e3, child["run_s"] * 1e3))
        self.tracer.adopt(child["spans"], self.tracer.stack[-1], self.tracer.op)


def reference_seconds(cli: bool) -> float:
    """Time a fixed computation that shares no code with hhcert.

    It gauges how fast the machine runs right now: the same mix of small and
    large numpy calls and interpreted Python as the in-process ops, or, for
    cli_cold, a fresh interpreter that imports numpy.
    """
    start = perf_counter()
    if cli:
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True)
        return perf_counter() - start
    import numpy as np
    small = np.linspace(0.0, 2.0, 15)
    large = np.linspace(0.0, 2.0, 20000)
    for _ in range(100):
        bool(np.all(np.isfinite(np.exp(small) * 1.5 + small * small)))
    for _ in range(2):
        float((np.exp(large) * large + np.sqrt(large + 1.0)).sum())
    total = 0
    for k in range(10000):
        total += k * k
    return perf_counter() - start


def run_round(runner: Runner, tracer: spans.Tracer, ops: list[dict],
              traced: bool) -> list[list]:
    records = []
    for op in ops:
        call = runner.prepare(op, traced)
        if traced:
            tracer.op = op["index"]
            span = tracer.open("bench.op")
        start = perf_counter()
        try:
            out, status = call(), "ok"
        except subprocess.TimeoutExpired:
            out, status = "", "timeout"
        except Exception as exc:  # an op that raises fails; the run goes on
            out, status = "", f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if traced:
            tracer.close(span)
        records.append([op["index"], int(traced), seconds, status, out])
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "run", "trace"))
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", required=True, help="path prefix for this run's files")
    args = ap.parse_args()

    interpreter_ms = (T_FIRST - args.t0) * 1e3
    namespaces: dict = {}
    import_ms = 0.0
    if args.workload != "cli_cold":
        start = perf_counter()
        namespaces = load_library()
        import_ms = (perf_counter() - start) * 1e3
    tracer = spans.Tracer()
    runner = Runner(args.out, tracer)
    ops = wl.round_ops(args.workload, args.seed, 0)
    try:
        runner.prepare(wl.warmup_op(args.workload), False)()
    except Exception:  # the warm-up only warms; the timed ops are checked
        pass
    ready = perf_counter()
    setup_s = ready - args.t0
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    deadline = ready + args.seconds
    rounds = 0
    seconds = {False: 0.0, True: 0.0}
    cli = args.workload == "cli_cold"
    # a reference timing before the first round and after every round, so
    # each round is bracketed by two
    reference = [reference_seconds(cli)]
    round_s: list[float] = []
    with open(f"{args.out}.ops.jsonl", "w", encoding="utf-8") as fh:
        while True:
            start = perf_counter()
            if args.mode == "trace":
                order = (False, True) if rounds % 2 == 0 else (True, False)
            else:
                order = (False,)
            for traced in order:
                if traced:
                    tracer.install(namespaces, spans.LIBRARY_WRAPS + spans.API_WRAPS)
                try:
                    records = run_round(runner, tracer, ops, traced)
                finally:
                    tracer.uninstall()
                seconds[traced] += sum(rec[2] for rec in records)
                fh.writelines(json.dumps(rec) + "\n" for rec in records)
            round_s.append(perf_counter() - start)
            rounds += 1
            reference.append(reference_seconds(cli))
            if perf_counter() >= deadline:
                break
            ops = wl.round_ops(args.workload, args.seed, rounds)
    wall_s = perf_counter() - ready

    summary = {
        "setup_s": setup_s, "wall_s": wall_s, "rounds": rounds, "round_s": round_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": runner.children_maxrss_kb,
        "reference_s": reference,
    }
    if args.mode == "trace":
        n_traced = rounds * len(ops)
        layers = spans.layer_metrics(tracer.spans, n_traced)
        if runner.cli_timings:
            interpreter_ms, import_ms, run_ms = (
                statistics.median(col) for col in zip(*runner.cli_timings))
        else:
            run_ms = 0.0
        layers["cli.interpreter_ms"] = interpreter_ms
        layers["cli.import_ms"] = import_ms
        layers["cli.run_ms"] = run_ms
        layers["trace.overhead_pct"] = (seconds[True] / seconds[False] - 1.0) * 100
        summary["layers"] = layers
        summary["panels_per_integral"] = spans.panel_histogram(tracer.spans)
        summary["spans"] = len(tracer.spans)
        spans.write_spans(f"{args.out}.spans.jsonl.gz", tracer.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
