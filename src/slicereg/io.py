"""File formats and report rendering.

Function files are JSON: a polynomial is {"coeffs": [c0, c1, ...]}
where each entry is either a 4-element array [w, x1, x2, x3] or a bare
real number (slice-preserving shorthand).  A rational function is
{"num": <polynomial>, "den": <polynomial with real coefficients>}.

Reports render as json (sorted keys, so byte-identical for identical
inputs), csv rows, or human-readable text.
"""

from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path

from .errors import SliceRegError
from .quaternions import Quaternion
from .slicepoly import SlicePolynomial
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
    "render_report_text",
]


class InputFormatError(SliceRegError):
    """Malformed input: a function file, a corpus manifest or a command-line value."""


def _parse_coefficient(entry, index: int) -> Quaternion:
    if isinstance(entry, (int, float)):
        return Quaternion.real(float(entry))
    if isinstance(entry, (list, tuple)) and len(entry) == 4:
        try:
            return Quaternion.from_array(entry)
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"coefficient {index}: {exc}") from exc
    raise InputFormatError(
        f"coefficient {index} must be a real number or a 4-element array, got {entry!r}"
    )


def parse_polynomial(record: dict) -> SlicePolynomial:
    if not isinstance(record, dict) or "coeffs" not in record:
        raise InputFormatError('polynomial record needs a "coeffs" key')
    coeffs = record["coeffs"]
    if not isinstance(coeffs, list):
        raise InputFormatError('"coeffs" must be a list')
    return SlicePolynomial([_parse_coefficient(c, i) for i, c in enumerate(coeffs)])


def parse_function(record: dict) -> SlicePolynomial | SemiregularFunction:
    if "num" in record or "den" in record:
        if not ("num" in record and "den" in record):
            raise InputFormatError('rational record needs both "num" and "den"')
        den = parse_polynomial(record["den"])
        if not den.is_slice_preserving():
            raise InputFormatError("denominator coefficients must be real")
        return SemiregularFunction(den, parse_polynomial(record["num"]))
    return parse_polynomial(record)


def load_function(path: str | Path) -> SlicePolynomial | SemiregularFunction:
    p = Path(path)
    try:
        record = json.loads(p.read_text())
    except FileNotFoundError:
        raise InputFormatError(f"no such file: {p}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return parse_function(record)
    except InputFormatError as exc:
        raise InputFormatError(f"{p}: {exc}") from exc


def polynomial_to_dict(p: SlicePolynomial) -> dict:
    if p.is_slice_preserving(0.0):
        return {"coeffs": [c.w for c in p.coeffs]}
    return {"coeffs": [list(c.components()) for c in p.coeffs]}


def function_to_dict(f: SlicePolynomial | SemiregularFunction) -> dict:
    if isinstance(f, SemiregularFunction):
        return {"num": polynomial_to_dict(f.num), "den": polynomial_to_dict(f.den)}
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


def render_report_text(payload: dict) -> str:
    lines: list[str] = []

    def walk(obj, indent: int = 0) -> None:
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in obj:
                v = obj[k]
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v!r}")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(item, indent + 1)
                else:
                    lines.append(f"{pad}- {item!r}")

    walk(payload)
    return "\n".join(lines) + "\n"
