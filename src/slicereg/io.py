"""File formats and report rendering.

Function files are JSON: a polynomial is {"coeffs": [c0, c1, ...]}
where each entry is either a 4-element array [w, x1, x2, x3] of JSON
numbers or a bare number (slice-preserving shorthand); true and false are
not numbers.  Only zero coefficients are dropped from the end; a nonzero
one whose squared norm is below the least normal double, or overflows, is
an input error, and so is a numerator whose coefficient norms sum to a
number whose square overflows.  A rational function is
{"num": <polynomial>, "den": <polynomial with real coefficients>}.

Reports render as json (sorted keys, so byte-identical for identical
inputs), csv rows, or human-readable text.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import sys
from collections.abc import Iterator
from pathlib import Path

from .errors import SliceRegError
from .quaternions import Quaternion
from .slicepoly import DEGREE_CAP, SlicePolynomial
from .zeros_poles import SemiregularFunction

__all__ = [
    "InputFormatError",
    "parse_polynomial",
    "parse_function",
    "load_function",
    "polynomial_to_dict",
    "function_to_dict",
    "render_json",
    "render_reports_csv",
    "report_text_lines",
]


class InputFormatError(SliceRegError):
    """Malformed input: a function file, a corpus manifest or a command-line value."""


def _parse_coefficient(entry, index: int) -> Quaternion:
    # exact types: JSON true/false load as bool, an int subclass
    parts = [entry, 0.0, 0.0, 0.0] if type(entry) in (int, float) else entry
    if not (isinstance(parts, (list, tuple)) and len(parts) == 4 and all(type(v) in (int, float) for v in parts)):
        raise InputFormatError(
            f"coefficient {index} must be a real number or a 4-element array of numbers, got {entry!r}"
        )
    try:
        q = Quaternion.from_array(parts)
    except OverflowError as exc:
        raise InputFormatError(f"coefficient {index}: {exc}") from exc
    if not all(map(math.isfinite, q)):
        raise InputFormatError(f"coefficient {index} must be finite, got {entry!r}")
    if any(q) and not sys.float_info.min <= q.norm2() < math.inf:  # N(f) squares each nonzero coefficient
        raise InputFormatError(f"coefficient {index} is out of range: its squared norm must be a normal double,"
                               f" got {entry!r}")
    return q


def parse_polynomial(record: dict) -> SlicePolynomial:
    if not isinstance(record, dict) or "coeffs" not in record:
        raise InputFormatError('polynomial record must be a JSON object with a "coeffs" key')
    coeffs = record["coeffs"]
    if not isinstance(coeffs, list):
        raise InputFormatError('"coeffs" must be a list')
    try:
        return SlicePolynomial([_parse_coefficient(c, i) for i, c in enumerate(coeffs)])
    except ValueError as exc:  # the degree cap
        raise InputFormatError(str(exc)) from exc


def parse_function(record: dict) -> SlicePolynomial | SemiregularFunction:
    """The function of a record; a numerator that is not slice-preserving
    may have at most half the degree cap, which N(num) must keep, and the
    square of the sum of the numerator's coefficient norms must be finite."""
    if isinstance(record, dict) and ("num" in record or "den" in record):
        if not ("num" in record and "den" in record):
            raise InputFormatError('rational record needs both "num" and "den"')
        den = parse_polynomial(record["den"])
        if not den.is_slice_preserving():
            raise InputFormatError("denominator coefficients must be real")
        f = SemiregularFunction(den, parse_polynomial(record["num"]))
        num = f.num
    else:
        f = num = parse_polynomial(record)
    if num.degree > DEGREE_CAP // 2 and not num.is_slice_preserving():
        raise InputFormatError(f"numerator is not slice-preserving and its degree {num.degree} exceeds"
                               f" {DEGREE_CAP // 2}, so N(num) would exceed the cap {DEGREE_CAP}")
    total = sum(q.abs() for q in num.coeffs)  # N(num) and the stems' |F1|^2 + |F2|^2 reach total^2
    if not math.isfinite(total * total):  # not total ** 2, which raises on overflow
        raise InputFormatError(f"numerator is out of range: its coefficient norms sum to {total:.3g}, squaring to inf")
    return f


def load_function(path: str | Path) -> SlicePolynomial | SemiregularFunction:
    p = Path(path)
    try:
        record = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputFormatError(f"no such file: {p}") from None
    except OSError as exc:  # a directory, no permission, ...
        raise InputFormatError(f"cannot read {p}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{p}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return parse_function(record)
    except InputFormatError as exc:
        raise InputFormatError(f"{p}: {exc}") from exc


def polynomial_to_dict(p: SlicePolynomial) -> dict:
    if p.is_slice_preserving(0.0):
        return {"coeffs": [c.w for c in p.coeffs]}
    return {"coeffs": [list(c) for c in p.coeffs]}


def function_to_dict(f: SlicePolynomial | SemiregularFunction) -> dict:
    if isinstance(f, SemiregularFunction):
        return {"num": polynomial_to_dict(f.num), "den": {"coeffs": f.den.tolist()}}
    return polynomial_to_dict(f)


def render_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_reports_csv(rows: list[dict]) -> str:
    """Flat CSV for corpus runs; nested values are JSON-encoded."""
    if not rows:
        return ""
    keys = sorted({k for row in rows for k in row})
    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        flat = {
            k: json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
            for k, v in row.items()
        }
        writer.writerow(flat)
    return buf.getvalue()


def report_text_lines(obj, indent: int = 0) -> Iterator[str]:
    """The text view of a json payload, one line at a time: a key or list
    item per line, its nested values indented under it."""
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                yield f"{pad}{k}:"
                yield from report_text_lines(v, indent + 1)
            else:
                yield f"{pad}{k}: {v!r}"
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                yield f"{pad}-"
                yield from report_text_lines(item, indent + 1)
            else:
                yield f"{pad}- {item!r}"
