"""Deterministic JSON/CSV rendering.

The stock ``json`` module renders floats with shortest-roundtrip repr, which
is stable but does not pin a digit count. Reports here are meant to be
byte-comparable across runs, so floats are always rendered with 17
significant digits and dictionaries keep insertion order. Keys and strings
are quoted by ``json``'s own ASCII encoder, as ``json.dumps`` quotes a
``str`` by default. JSON has no literal for infinity or NaN, so ``dumps``
writes non-finite floats as ``null``; ``render_float`` (used for CSV and
text) and ``as_fraction_text`` keep ``inf``/``nan``.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any


def render_float(x: float) -> str:
    """17-significant-digit decimal rendering, round-trip exact for float64."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def dumps(obj: Any) -> str:
    """Serialize to JSON, two-space indented, with deterministic float
    rendering and key order."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj: Any, out: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    closepad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, val) in enumerate(obj.items()):
            out.append(pad + encode_basestring_ascii(str(key)) + ": ")
            _emit(val, out, level + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(closepad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if all(isinstance(v, (int, float, str, bool)) or v is None for v in seq):
            out.append("[" + ", ".join(_scalar(v) for v in seq) + "]")
            return
        out.append("[\n")
        for k, val in enumerate(seq):
            out.append(pad)
            _emit(val, out, level + 1)
            out.append(",\n" if k < len(seq) - 1 else "\n")
        out.append(closepad + "]")
    else:
        out.append(_scalar(obj))


def _scalar(v: Any) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return render_float(v) if math.isfinite(v) else "null"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    return json.dumps(v)        # raises TypeError for what JSON cannot hold


def as_fraction_text(x: float) -> str:
    """Render ``x`` as p/q when it is within 1e-12 of a fraction with q <= 100."""
    if not math.isfinite(x):
        return render_float(x)
    from fractions import Fraction      # only text reports use it; not imported at start-up
    fr = Fraction(x).limit_denominator(100)
    if abs(x - float(fr)) <= 1e-12:
        if fr.denominator == 1:
            return str(fr.numerator)
        return f"{fr.numerator}/{fr.denominator}"
    return render_float(x)
