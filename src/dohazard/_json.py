"""JSON files: one reader, one writer, and the field rules that configs
and fit files are checked by. The writer writes the bytes of json.dump
with sorted keys and an indent of two, but a list of finite floats, such
as a fit's baseline, goes out a thousand floats per write."""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii

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


# Floats per write when write_object writes a list of finite floats: about
# 25 KB of text, joined from some 80 KB of repr strings, so that a write adds
# little to the peak memory of a fit's save.
_FLOATS_PER_WRITE = 1024


def write_object(path, payload: dict) -> None:
    """payload as JSON with sorted keys, indented by two, and a final
    newline: the bytes of json.dump(payload, fh, sort_keys=True, indent=2)
    and "\n". json.dump's indenting encoder takes a Python step and a
    write per list item; here each list of finite floats is written from
    float.__repr__, _FLOATS_PER_WRITE floats per write (_write)."""
    with open(path, "w", encoding="utf-8") as fh:
        _write(fh.write, payload, "\n")
        fh.write("\n")


def _write(write, value, newline: str) -> None:
    """Write the JSON text of value, in pieces, with write, as
    json.dump(value, fh, sort_keys=True, indent=2) writes it; newline is
    the line break and indent of the line value ends on. A string, an int
    or a finite float is written as json.dump's encoder writes it; any
    other scalar or an empty container is json.dumps's text, and a key that
    is not a string the string of that text, as json.dump writes it."""
    inner = newline + "  "
    if isinstance(value, dict) and value:
        for i, (key, item) in enumerate(sorted(value.items())):
            key = encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key))
            write(("," if i else "{") + inner + key + ": ")
            _write(write, item, inner)
        write(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        if _finite_floats(value):
            for start in range(0, len(value), _FLOATS_PER_WRITE):
                chunk = map(float.__repr__, value[start:start + _FLOATS_PER_WRITE])
                write(("," if start else "[") + inner + ("," + inner).join(chunk))
        else:
            for i, item in enumerate(value):
                write(("," if i else "[") + inner)
                _write(write, item, inner)
        write(newline + "]")
    elif isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif type(value) is int or type(value) is float and math.isfinite(value):
        write(repr(value))
    else:
        write(json.dumps(value))


def _finite_floats(values) -> bool:
    """Every item of values is a float (not a subclass) and finite; both
    checks run in C, with no Python step per item."""
    return set(map(type, values)) <= {float} and all(map(math.isfinite, values))


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
    finite here, so the later float conversion cannot overflow. A list of
    floats alone, as a fit file's, is checked in one pass (_finite_floats)."""
    if not shape:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    if not isinstance(value, list) or shape[0] not in (None, len(value)):
        return False
    if len(shape) == 1 and _finite_floats(value):
        return True
    return all(finite_numbers(v, shape[1:]) for v in value)
