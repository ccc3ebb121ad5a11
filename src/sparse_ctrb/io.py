"""System-file and report formats for the command-line interface.

A system file is JSON with row-major matrices::

    {"name": "plant", "D": [[...], ...], "H": [[...], ...], "A": [[...], ...]}

``A`` and ``name`` are optional.  Reports are JSON objects rendered with
sorted keys and a fixed layout so identical inputs and flags produce
byte-identical bytes; wall-clock timing is therefore opt-in (``elapsed_ms``
appears only when requested).  Indices in reports are 0-based.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .ctrb import SystemModel
from .errors import InputError
from .linalg import Tolerance

__all__ = [
    "SCHEMA_VERSION",
    "SYSTEM_SCHEMA",
    "REPORT_SCHEMA",
    "load_system",
    "system_to_dict",
    "save_system",
    "build_report",
    "render_report",
]

SCHEMA_VERSION = 1

_MATRIX_SCHEMA = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}

SYSTEM_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "sparse-ctrb system file",
    "type": "object",
    "required": ["D", "H"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "D": _MATRIX_SCHEMA,
        "H": _MATRIX_SCHEMA,
        "A": _MATRIX_SCHEMA,
    },
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "sparse-ctrb report",
    "type": "object",
    "required": [
        "schema_version",
        "command",
        "system",
        "arguments",
        "result",
        "witnesses",
        "warnings",
        "tolerance",
        "exact",
    ],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {
            "type": "string",
            "enum": ["check", "bounds", "decompose", "oracle", "steer"],
        },
        "system": {"type": ["string", "null"]},
        "arguments": {"type": "object"},
        "result": {"type": "object"},
        "witnesses": {"type": ["object", "null"]},
        "warnings": {"type": "array", "items": {"type": "string"}},
        "tolerance": {
            "type": "object",
            "required": ["rank_rel", "eig_cluster", "residual_abs"],
            "additionalProperties": False,
            "properties": {
                "rank_rel": {"type": "number"},
                "eig_cluster": {"type": "number"},
                "residual_abs": {"type": "number"},
            },
        },
        "exact": {"type": "boolean"},
        "elapsed_ms": {"type": "number"},
    },
}


# Exact types only: bool is a subclass of int and must not pass as a number.
_NUMBERS = frozenset((int, float))


def _floats(rows, name):
    """``rows``, lists of JSON numbers, as one float64 array."""
    for row in rows:
        if not _NUMBERS.issuperset(map(type, row)):
            bad = next(x for x in row if type(x) not in _NUMBERS)
            raise InputError(f"{name} entries must be numbers, got {bad!r}")
    try:
        return np.array(rows, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise InputError(f"{name} entries must fit in a float: {exc}") from exc


def _parse_matrix(obj, name):
    if not (isinstance(obj, list) and obj and all(isinstance(r, list) for r in obj)):
        raise InputError(f"{name} must be a non-empty list of rows")
    width = len(obj[0])
    if width == 0:
        raise InputError(f"{name} rows must be non-empty")
    for i, row in enumerate(obj):
        if len(row) != width:
            raise InputError(f"{name} row {i} has length {len(row)}, expected {width}")
    return _floats(obj, name)


def _read_json(path, label):
    """The JSON content of the file ``path``, named ``label`` in errors."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {label}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{label} is not valid JSON: {exc}") from exc


def load_system(path):
    """Parse a system file; returns ``(SystemModel, name)``.

    Raises :class:`InputError` on malformed content (unreadable JSON, missing
    keys, ragged or non-numeric matrices, dimension mismatches).
    """
    path = Path(path)
    raw = _read_json(path, path)
    if not isinstance(raw, dict):
        raise InputError(f"{path} must contain a JSON object")
    unknown = set(raw) - {"name", "D", "H", "A"}
    if unknown:
        raise InputError(f"{path} has unknown keys: {sorted(unknown)}")
    for key in ("D", "H"):
        if key not in raw:
            raise InputError(f"{path} is missing required key {key!r}")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError("name must be a string")
    d = _parse_matrix(raw["D"], "D")
    h = _parse_matrix(raw["H"], "H")
    a = _parse_matrix(raw["A"], "A") if "A" in raw else None
    try:
        system = SystemModel(D=d, H=h, A=a)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return system, name


def _load_vector(path, length, name):
    """Read a JSON file holding a flat array of ``length`` numbers; ``name``
    (a CLI flag) labels it in errors."""
    data = _read_json(path, f"{name} file {path!r}")
    if not isinstance(data, list):
        raise InputError(f"{name} file must contain a flat JSON array of numbers")
    vector = _floats([data], name)[0]
    if len(vector) != length:
        raise InputError(f"{name} must have {length} entries, got {len(vector)}")
    return vector


def system_to_dict(sys: SystemModel, name=None):
    out = {}
    if name is not None:
        out["name"] = name
    out["D"] = [[float(x) for x in row] for row in sys.D]
    out["H"] = [[float(x) for x in row] for row in sys.H]
    if sys.A is not None:
        out["A"] = [[float(x) for x in row] for row in sys.A]
    return out


def save_system(path, sys: SystemModel, name=None):
    Path(path).write_text(
        json.dumps(system_to_dict(sys, name), indent=2, sort_keys=True) + "\n"
    )


def to_jsonable(value):
    """Deterministic JSON representation for report values."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.complexfloating):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biuf":
            return value.tolist()
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value)!r}")


def build_report(
    command: str,
    system_name,
    arguments: dict,
    result: dict,
    tolerance: Tolerance,
    witnesses=None,
    warnings=(),
    exact: bool = False,
    elapsed_ms=None,
) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "system": system_name,
        "arguments": to_jsonable(arguments),
        "result": to_jsonable(result),
        "witnesses": to_jsonable(witnesses),
        "warnings": [str(w) for w in warnings],
        "tolerance": dataclasses.asdict(tolerance),
        "exact": bool(exact),
    }
    if elapsed_ms is not None:
        report["elapsed_ms"] = float(elapsed_ms)
    return report


# What ``json.dumps(v, allow_nan=False)`` encodes with; without an indent it
# takes the C encoder.
_ENCODER = json.JSONEncoder(allow_nan=False)
# Scalars whose JSON text never holds ", ": a list of only these is encoded
# in one call of the C encoder and its separators are then re-indented.
_FLAT = frozenset((float, int, bool, type(None)))


def _render(value, pad, out):
    """Append the ``indent=2, sort_keys=True`` JSON text of ``value`` (string
    keys, as :func:`build_report` makes them) at indentation ``pad`` to
    ``out``."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        opening = "{\n"
        for key in sorted(value):
            out.append(f"{opening}{inner}{_ENCODER.encode(key)}: ")
            _render(value[key], inner, out)
            opening = ",\n"
        out.append(f"\n{pad}}}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        if _FLAT.issuperset(map(type, value)):
            body = _ENCODER.encode(value)[1:-1].replace(", ", ",\n" + inner)
            out.append(f"[\n{inner}{body}\n{pad}]")
            return
        opening = "[\n"
        for item in value:
            out.append(opening + inner)
            _render(item, inner, out)
            opening = ",\n"
        out.append(f"\n{pad}]")
    else:
        out.append(_ENCODER.encode(value))


def render_report(report: dict) -> str:
    """The bytes of ``json.dumps(report, indent=2, sort_keys=True,
    allow_nan=False)`` plus a newline, without the pure-Python encoder that
    any ``indent`` forces: lists of numbers, booleans and nulls go through the
    C encoder whole.  nan and inf raise ``ValueError``."""
    out = []
    _render(report, "", out)
    out.append("\n")
    return "".join(out)
