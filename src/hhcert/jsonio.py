"""Deterministic JSON rendering for reports and summaries.

The stdlib encoder formats floats with ``repr``, whose digit count varies
by value.  Machine-readable output here always carries 17 significant
digits (enough to round-trip binary64) and preserves key insertion order,
so identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

__all__ = ["dumps", "fmt_float"]


def fmt_float(v: float) -> str:
    if not math.isfinite(v):    # inputs are finite: a float64 result overflowed
        raise ValueError(f"float64 overflow: cannot print non-finite float {v!r}")
    return f"{v:.17g}"


def dumps(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{_quote(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
