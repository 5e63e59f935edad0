"""Run one hhcert command line the way ``python -m hhcert`` does, traced.

Usage: python3 bench/cli_child.py TRACE_JSON ARG...

Times the interpreter start (from the first line here), ``import
hhcert.cli`` and ``cli.run(argv)``, records spans with the same wrappers as
in-process tracing, and writes both to TRACE_JSON.  Standard output and the
exit code are those of the command itself.
"""

from time import perf_counter

T_FIRST = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import hhcert.cli
    from hhcert import convexity, hh, quadrature, search
    imported = perf_counter()
    tracer = spans.Tracer()
    tracer.install({"hhcert.quadrature": quadrature, "hhcert.convexity": convexity,
                    "hhcert.hh": hh, "hhcert.search": search, "hhcert.cli": hhcert.cli},
                   spans.LIBRARY_WRAPS)
    try:
        code = hhcert.cli.run(argv)
    finally:
        done = perf_counter()
        tracer.uninstall()
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"t_first": T_FIRST, "import_s": imported - start,
                   "run_s": done - imported, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
