"""Span tracing from outside the library, and the per-layer metrics built on it.

Each public function is wrapped under the name its caller module imported it
by (``hhcert.hh.integrate``, ``hhcert.convexity.evaluate``, ...), so a call
from one layer into another becomes a child span of the caller's span.  A span
is ``[name, start, end, parent, op, info]``; spans stay in a list and are
written out once, after the run.  Nothing under ``src/`` changes: uninstalling
restores every original binding.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter

__all__ = ["Tracer", "LIBRARY_WRAPS", "API_WRAPS", "PER_LAYER_UNITS",
           "layer_metrics", "panel_histogram", "write_spans"]


def _evaluate_kind(args, kwargs) -> tuple[str, int]:
    x = args[1] if len(args) > 1 else kwargs["x"]
    n = int(getattr(x, "size", 1))
    kind = "scalar" if n <= 1 else ("panel" if n < 1024 else "grid")
    return f"expr.evaluate.{kind}", n


def _subdivisions(res) -> int:
    return res.subdivisions


def _check_outcome(res) -> tuple[int, bool]:
    return res.points_checked, res.passed


# span name (or, for evaluate, a namer that also returns the point count) and
# the function that extracts a count from the result
_EVALUATE = (_evaluate_kind, None)
_INTEGRATE = ("quadrature.integrate", _subdivisions)
_CHECK = ("convexity.check", _check_outcome)
_VERIFY = ("hh.verify", None)
_DUMPS = ("jsonio.dumps", None)
_CHECKERS = ("check_alpha_m_convex", "check_r_convex",
             "check_dominated_alpha_m", "check_dominated_r")

# (caller module, name it imported, span)
LIBRARY_WRAPS = (
    [("hhcert.quadrature", "evaluate", _EVALUATE),
     ("hhcert.convexity", "evaluate", _EVALUATE),
     ("hhcert.convexity", "_power_mean_raw", ("means.power_mean", None)),
     ("hhcert.hh", "evaluate", _EVALUATE),
     ("hhcert.hh", "integrate", _INTEGRATE),
     ("hhcert.hh", "gen_log_mean", ("means.gen_log_mean", None)),
     ("hhcert.hh", "dumps", _DUMPS)]
    + [("hhcert.hh", name, _CHECK) for name in _CHECKERS]
    + [("hhcert.search", name, _CHECK)
       for name in ("check_alpha_m_convex", "check_r_convex", "check_dominated_r")]
    + [("hhcert.search", name, _VERIFY)
       for name in ("theorem_a", "t1_first", "t1_second", "t2", "gill_r", "gr_dominated")]
    + [("hhcert.search", "dumps", _DUMPS),
       ("hhcert.cli", "parse", ("expr.parse", None)),
       ("hhcert.cli", "integrate", _INTEGRATE),
       ("hhcert.cli", "run_verifier", _VERIFY),
       ("hhcert.cli", "power_mean", ("means.power_mean", None)),
       ("hhcert.cli", "gen_log_mean", ("means.gen_log_mean", None)),
       ("hhcert.cli", "stress", ("search.stress", None)),
       ("hhcert.cli", "tightness_scan", ("search.scan", None)),
       ("hhcert.cli", "dumps", _DUMPS)]
    + [("hhcert.cli", name, _CHECK) for name in _CHECKERS])

# the benchmark's own calls into the library, made through one namespace
API_WRAPS = (
    [("api", "parse", ("expr.parse", None)),
     ("api", "run_verifier", _VERIFY),
     ("api", "stress", ("search.stress", None)),
     ("api", "dumps", _DUMPS)]
    + [("api", name, _CHECK) for name in _CHECKERS])


class Tracer:
    """Records nested spans while installed; ``op`` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, info=None) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, info]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, span):
        namer, extract = span
        tracer = self

        def traced(*args, **kwargs):
            if callable(namer):
                name, info = namer(args, kwargs)
            else:
                name, info = namer, None
            rec = tracer.open(name, info)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if extract is not None:
                rec[5] = extract(res)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self, namespaces: dict, wraps) -> None:
        for ns_name, attr, span in wraps:
            ns = namespaces.get(ns_name)
            if ns is None or not hasattr(ns, attr):
                continue
            fn = getattr(ns, attr)
            self._saved.append((ns, attr, fn))
            setattr(ns, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, fn = self._saved.pop()
            setattr(ns, attr, fn)

    def adopt(self, child_spans: list, parent: int, op: int) -> None:
        """Append spans recorded in a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _, info in child_spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par,
                               op, info])


def write_spans(path, spans: list) -> None:
    """One JSON array per line: name, start_s, end_s, parent, op, info."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


PER_LAYER_UNITS = {
    "expr.parse.calls": "calls/op",
    "expr.parse.self_ms": "ms/op",
    "expr.evaluate.scalar.calls": "calls/op",
    "expr.evaluate.scalar.self_ms": "ms/op",
    "expr.evaluate.panel.calls": "calls/op",
    "expr.evaluate.panel.self_ms": "ms/op",
    "expr.evaluate.grid.calls": "calls/op",
    "expr.evaluate.grid.points": "points/op",
    "expr.evaluate.grid.self_ms": "ms/op",
    "expr.evaluate.grid.ns_per_point": "ns/point",
    "quadrature.integrate.calls": "calls/op",
    "quadrature.integrate.self_ms": "ms/op",
    "quadrature.panels_examined": "panels/op",
    "quadrature.panels_accepted": "panels/op",
    "quadrature.accept_ratio": "ratio",
    "convexity.check.calls": "calls/op",
    "convexity.check.self_ms": "ms/op",
    "convexity.check.triples": "triples/op",
    "convexity.check.ns_per_triple": "ns/triple",
    "convexity.check.pass_ratio": "ratio",
    "convexity.cube_mb": "MB-computed",
    "means.power_mean.calls": "calls/op",
    "means.power_mean.self_ms": "ms/op",
    "means.gen_log_mean.calls": "calls/op",
    "means.gen_log_mean.self_ms": "ms/op",
    "hh.verify.calls": "calls/op",
    "hh.verify.self_ms": "ms/op",
    "hh.integrals_per_verify": "ratio",
    "hh.grid_checks_per_verify": "ratio",
    "search.stress.self_ms": "ms/op",
    "search.certify.attempts": "checks/op",
    "search.certify.accept_ratio": "ratio",
    "jsonio.dumps.calls": "calls/op",
    "jsonio.dumps.self_ms": "ms/op",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, n_ops: int) -> dict[str, float]:
    """Per-op layer figures from the spans of ``n_ops`` traced ops.

    Self time is a span's duration minus the time its direct children cover.
    A layer a workload never enters reports 0.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, (name, start, end, *_) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]

    def under(i: int, name: str, direct: bool) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            if direct:
                return False
            p = spans[p][3]
        return False

    grid_points = examined = accepted = triples = passed = 0
    check_s = 0.0
    cube_points = 0
    verify_integrals = verify_checks = certify = certify_ok = 0
    for i, (name, start, end, _, _, info) in enumerate(spans):
        if name == "expr.evaluate.grid":
            grid_points += info
        if name.startswith("expr.evaluate") and under(i, "quadrature.integrate", True):
            examined += 1
        elif name == "quadrature.integrate":
            accepted += info or 0
            verify_integrals += under(i, "hh.verify", False)
        elif name == "convexity.check":
            check_s += end - start
            verify_checks += under(i, "hh.verify", False)
            if info is not None:
                triples += info[0]
                passed += info[1]
                cube_points = max(cube_points, info[0])
            if under(i, "search.stress", True):
                certify += 1
                certify_ok += bool(info and info[1])

    per_op = 1.0 / max(n_ops, 1)
    out: dict[str, float] = {}
    for layer in ("expr.parse", "expr.evaluate.scalar", "expr.evaluate.panel",
                  "expr.evaluate.grid", "quadrature.integrate", "convexity.check",
                  "means.power_mean", "means.gen_log_mean", "hh.verify",
                  "jsonio.dumps"):
        out[f"{layer}.calls"] = calls.get(layer, 0) * per_op
        out[f"{layer}.self_ms"] = self_s.get(layer, 0.0) * 1e3 * per_op
    out["expr.evaluate.grid.points"] = grid_points * per_op
    out["expr.evaluate.grid.ns_per_point"] = _ratio(
        self_s.get("expr.evaluate.grid", 0.0) * 1e9, grid_points)
    out["quadrature.panels_examined"] = examined * per_op
    out["quadrature.panels_accepted"] = accepted * per_op
    out["quadrature.accept_ratio"] = _ratio(accepted, examined)
    out["convexity.check.triples"] = triples * per_op
    out["convexity.check.ns_per_triple"] = _ratio(check_s * 1e9, triples)
    out["convexity.check.pass_ratio"] = _ratio(passed, calls.get("convexity.check", 0))
    # bytes of one float64 (n_xy, n_xy, n_lambda) array: computed, not measured
    out["convexity.cube_mb"] = cube_points * 8 / 1e6
    n_verify = calls.get("hh.verify", 0)
    out["hh.integrals_per_verify"] = _ratio(verify_integrals, n_verify)
    out["hh.grid_checks_per_verify"] = _ratio(verify_checks, n_verify)
    out["search.stress.self_ms"] = self_s.get("search.stress", 0.0) * 1e3 * per_op
    out["search.certify.attempts"] = certify * per_op
    out["search.certify.accept_ratio"] = _ratio(certify_ok, certify)
    return out


def panel_histogram(spans: list) -> dict[str, int]:
    """Accepted panels per integral, bucketed by powers of four."""
    edges = ((1, "1"), (3, "2-3"), (15, "4-15"), (63, "16-63"), (255, "64-255"),
             (1023, "256-1023"))
    hist = {label: 0 for _, label in edges}
    hist["1024+"] = 0
    for name, *_, info in spans:
        if name == "quadrature.integrate" and info is not None:
            label = next((lab for top, lab in edges if info <= top), "1024+")
            hist[label] += 1
    return hist
