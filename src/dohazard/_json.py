"""JSON files: one reader, one writer, and the field rules that configs
and fit files are checked by."""

from __future__ import annotations

import json
import sys

from .errors import ParseError, ValidationError


def read_object(path, what: str) -> dict:
    """The JSON object stored at path; ParseError for malformed JSON (with
    its line number), bytes that are not UTF-8 or an integer past Python's
    digit limit; ValidationError when the top level is not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # UnicodeDecodeError, or int() refusing a literal
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object")
    return raw


def write_object(path, payload: dict) -> None:
    """payload as JSON with sorted keys, indented by two, and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def refuse_unknown(raw: dict, known, what: str) -> None:
    """ValidationError naming the first key of raw, in sorted order, that
    is not in known; what names the object, such as 'scenario config'."""
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValidationError(f"{what} has unknown field '{unknown[0]}'")


def require_int(raw: dict, key: str) -> int:
    value = raw[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"field '{key}' must be an integer, got {value!r}")
    return value


def require_number(raw: dict, key: str, name: str | None = None, shape=(), what: str = "a finite number"):
    """raw[key] when finite_numbers(raw[key], shape): a float, or for a
    shape, the nested lists. Otherwise ValidationError naming the field as
    name (default: key) and saying what it must be."""
    value = raw[key]
    if not finite_numbers(value, shape):
        raise ValidationError(f"field '{name or key}' must be {what}, got {value!r}")
    return value if shape else float(value)


def finite_numbers(value, shape) -> bool:
    """value is a nested list of finite JSON numbers of exactly this shape;
    a None length matches any. An integer too large for a float64 is not
    finite here, so the later float conversion cannot overflow."""
    if not shape:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return (
        isinstance(value, list)
        and shape[0] in (None, len(value))
        and all(finite_numbers(v, shape[1:]) for v in value)
    )
