"""Matrix file format and structured command reports.

Matrices travel as UTF-8 JSON objects

    {"rows": r, "cols": c, "data": [[[re, im], ...], ...]}

with one [re, im] decimal pair per entry.  All floats are written with 17
significant digits, which round-trips IEEE doubles losslessly, and objects
are emitted with sorted keys so serialization is byte-deterministic.

One writer, :func:`_render_matrix`, turns every matrix into text.  A
matrix file holds that text, and a report embeds the same text, so a
matrix written to a file and embedded in a report is rendered once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, ParseError
from .linalg import as_complex_matrix

__all__ = [
    "payload_to_matrix",
    "parse_matrix_file",
    "write_matrix_file",
    "dumps_deterministic",
    "Report",
    "format_report",
]


def _format_float(x: float) -> str:
    """17-significant-digit decimal with a guaranteed fraction part."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    text = format(float(x), ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


# Entry templates indexed by 2 * (re is bare) + (im is bare).  A float is
# bare when %.17g prints it without a fraction part or an exponent: an
# integer below 1e17 in magnitude.  %.1f prints the same digits plus ".0",
# which is what _format_float writes for it.  The last template is the
# text of an exact +0.0+0.0j entry, written without formatting.
_ENTRY = ("[%.17g,%.17g]", "[%.17g,%.1f]", "[%.1f,%.17g]", "[%.1f,%.1f]", "[0.0,0.0]")
_ZERO = len(_ENTRY) - 1


def _render_matrix(pairs: np.ndarray) -> str:
    """JSON text of a matrix payload from its rows x cols x 2 [re, im] floats.

    The same bytes as :func:`dumps_deterministic` of the nested-list
    payload, formatted in one pass.  The floats must be finite.  Entries
    with a -0.0 part are formatted, which keeps their sign bits.
    """
    rows, cols, _ = pairs.shape
    bare = (np.floor(pairs) == pairs) & (np.abs(pairs) < 1e17)
    zero = ~(pairs.view(np.uint64).any(-1))  # both parts are +0.0, bit for bit
    kinds = np.where(zero, _ZERO, 2 * bare[..., 0] + bare[..., 1]).tolist()
    template = ",".join("[" + ",".join([_ENTRY[k] for k in row]) + "]" for row in kinds)
    data = template % tuple(pairs[~zero].ravel().tolist())
    return f'{{"cols":{cols},"data":[{data}],"rows":{rows}}}'


class _Json(str):
    """JSON text that :func:`_emit` splices into a document verbatim."""


def _emit(obj) -> str:
    if isinstance(obj, _Json):  # before the str branch, which would quote it
        return obj
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}:{_emit(v)}" for k, v in sorted(obj.items()))
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_deterministic(obj) -> str:
    """JSON text with sorted keys and 17-significant-digit floats."""
    return _emit(obj) + "\n"


# The Python types json.load gives JSON numbers; bool is not among them.
_NUMBER = frozenset((int, float))


def _all_lists(items) -> bool:
    """Whether every item is a list, as ``isinstance`` tests it."""
    return all(issubclass(t, list) for t in set(map(type, items)))


def _plain_values(data: list, cols: int) -> np.ndarray | None:
    """The 2 * rows * cols floats of ``data``, or None when any row or entry is malformed.

    Checks the whole payload at once: every row a list of ``cols`` entries,
    every entry a list of two JSON numbers, every number finite as a float.
    """
    if not _all_lists(data) or set(map(len, data)) != {cols}:
        return None
    entries = list(chain.from_iterable(data))
    if not _all_lists(entries) or set(map(len, entries)) != {2}:
        return None
    flat = list(chain.from_iterable(entries))
    if not _NUMBER.issuperset(map(type, flat)):
        return None
    try:
        values = np.array(flat, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    return values if np.isfinite(values).all() else None


def _check_entry(i: int, j: int, entry) -> None:
    """Raise ParseError unless entry (i, j) is a pair of finite JSON numbers."""
    if not isinstance(entry, list) or len(entry) != 2:
        raise ParseError(f"entry ({i}, {j}) is not an [re, im] pair")
    try:
        re, im = float(entry[0]), float(entry[1])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"entry ({i}, {j}) is not numeric: {exc}") from exc
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ParseError(f"entry ({i}, {j}) is not finite")
    if type(entry[0]) not in _NUMBER or type(entry[1]) not in _NUMBER:
        raise ParseError(f"entry ({i}, {j}) is not a pair of JSON numbers")


def _raise_first_error(data: list, cols: int) -> None:
    """Raise the error of the first malformed row or entry of ``data``, in row-major order."""
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise DimensionMismatch(f"row {i} has {len(row) if isinstance(row, list) else 'non-list'} entries, expected {cols}")
        for j, entry in enumerate(row):
            _check_entry(i, j, entry)


def payload_to_matrix(payload) -> np.ndarray:
    """Parse the matrix dict back into a complex array.

    ``rows`` and ``cols`` must be JSON integers and each entry a pair of
    JSON numbers.  Raises ParseError for structural problems and
    DimensionMismatch when the data does not fill the declared rows x cols
    shape.  The data is checked and converted in bulk; only a payload that
    fails is walked entry by entry, to name its first malformed row or entry.
    """
    if not isinstance(payload, dict):
        raise ParseError(f"matrix payload must be an object, got {type(payload).__name__}")
    try:
        rows = int(payload["rows"])
        cols = int(payload["cols"])
        data = payload["data"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix payload: {exc}") from exc
    if type(payload["rows"]) is not int or type(payload["cols"]) is not int:
        raise ParseError(f"matrix dimensions must be integers, got {payload['rows']!r} x {payload['cols']!r}")
    if rows < 1 or cols < 1:
        raise ParseError(f"matrix dimensions must be positive, got {rows} x {cols}")
    if not isinstance(data, list) or len(data) != rows:
        raise DimensionMismatch(f"expected {rows} data rows, got {len(data) if isinstance(data, list) else 'non-list'}")
    values = _plain_values(data, cols)
    if values is None:
        _raise_first_error(data, cols)
    return values.view(complex).reshape(rows, cols)


def parse_matrix_file(path) -> np.ndarray:
    """Read a matrix JSON file; ParseError covers I/O, UTF-8 and JSON failures, too deep nesting included."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from exc
    return payload_to_matrix(payload)


def write_matrix_file(path, m) -> str:
    """Write a matrix file; returns its JSON text, which a report embeds as is.

    The file holds that text plus a newline.
    """
    m = as_complex_matrix(m)
    text = _Json(_render_matrix(np.stack([m.real, m.imag], -1)))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return text


@dataclass
class Report:
    """Structured outcome of one CLI command."""

    command: str
    inputs: list = field(default_factory=list)
    verdict: str = ""
    metrics: dict = field(default_factory=dict)
    factors: dict | None = None

    def to_payload(self) -> dict:
        payload = {
            "command": self.command,
            "inputs": list(self.inputs),
            "verdict": self.verdict,
            "metrics": dict(self.metrics),
        }
        if self.factors is not None:
            payload["factors"] = dict(self.factors)
        return payload


def format_report(report: Report, mode: str = "text") -> str:
    """Render a report; json mode is byte-deterministic, text is line-per-metric."""
    if mode == "json":
        return dumps_deterministic(report.to_payload())
    if mode != "text":
        raise ValueError(f"unknown report mode {mode!r}")
    lines = [f"command: {report.command}"]
    for path in report.inputs:
        lines.append(f"input: {path}")
    lines.append(f"verdict: {report.verdict}")
    for key in report.metrics:
        value = report.metrics[key]
        lines.append(f"{key} = {value if isinstance(value, str) else _emit(value)}")
    if report.factors:
        lines.append(f"factors: {', '.join(sorted(report.factors))}")
    return "\n".join(lines) + "\n"
