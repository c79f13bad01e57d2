"""Files of the package: one field-driven JSON codec, one text reader, one
CSV tokenizer, one text writer; and the value rules every layer checks its
inputs by: is_real for a number, bound_pairs for a box.

Run configs, the grade context and the fuzzy model files all encode and
decode through ConfigCodec; every JSON file the package writes goes through
json_text and every one it reads through read_json. Every file the package
reads, JSON or CSV, goes through read_text, and every CSV text it reads is
split into rows by csv_rows. Every file it writes, JSON or CSV or text,
goes through write_text.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
from dataclasses import fields
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .errors import InfeasibleSpec, SchemaMismatch, ValidationError


def read_text(path: str) -> str:
    """The UTF-8 text of a file; a file that cannot be opened or is not
    UTF-8 is a one-line ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"cannot read {path}: {err}") from None


def csv_rows(text: str) -> list[list[str]]:
    """The rows csv.reader with the excel dialect gives for `text`; a text
    it rejects is a one-line SchemaMismatch.

    Only a quote, a carriage return, a NUL (rejected by Python 3.10) or a
    field longer than csv.field_size_limit() makes csv.reader do more than
    split on newlines and commas. Text with none of them is split here
    directly: an empty line is an empty row, and a final newline ends the
    last row rather than starting one.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if ('"' in text or "\r" in text or "\0" in text
            or max(map(len, lines), default=0) > csv.field_size_limit()):
        reader = csv.reader(io.StringIO(text))
        try:
            return list(reader)
        except csv.Error as err:
            raise SchemaMismatch(
                f"CSV line {reader.line_num}: {err}") from None
    return [line.split(",") if line else [] for line in lines]


def read_json(path: str):
    """The JSON document in a file; an unreadable file or bad JSON is a
    one-line ValidationError. Every number must be finite: NaN, Infinity,
    -Infinity and literals that overflow a float, such as 1e999, are bad
    JSON."""
    text = read_text(path)
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except ValueError as err:  # JSONDecodeError, or a non-finite number
        raise ValidationError(f"{path} is not valid JSON: {err}") from None


def _finite(text: str) -> float:
    """A JSON number's float, or ValueError if it is not finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def write_text(path: str, text: str) -> None:
    """Replace the file at `path` with `text`: UTF-8, line ends as given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def json_text(doc) -> str:
    """A document as the package writes it: indented, sorted keys, one
    trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class ConfigCodec:
    """JSON codec of the config dataclasses, driven by their fields.

    to_dict encodes tuples as lists and nested configs as dicts. from_dict
    takes a JSON object, rejects unknown keys, and decodes a nested config
    field from its own object (null only where the field defaults to None)
    and a tuple-of-configs field from a list of such objects. Every other
    value must fit its field's annotation: a bool field takes only a bool,
    an int field an int but not a bool, a float field a real number, a str
    field a str, null only where the annotation admits None, and a
    tuple field a list, whose items are left to the dataclass's
    __post_init__. A missing field takes its default. A TypeError or
    ValueError raised while building the dataclass is reported as a
    ValidationError.
    """

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data):
        return _decode(cls, data, "config")


def _decode(cls, data, label: str):
    if not isinstance(data, dict):
        raise ValidationError(
            f"{label} must be a JSON object, got {json_kind(data)}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ValidationError(f"unknown {label} keys: {sorted(unknown)}")
    hints = _type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        hint = hints[name]
        nested = _config_class(hint)
        if nested is None or get_origin(hint) is tuple:
            if not fits(hint, value):
                expected = hint.__name__ if isinstance(hint, type) else hint
                raise ValidationError(
                    f"bad {label}: {name} must be {expected}, "
                    f"got {json_kind(value)}")
            if nested is not None:
                value = tuple(_decode(nested, item, f"{name}[{i}]")
                              for i, item in enumerate(value))
        elif not (value is None and known[name].default is None):
            value = _decode(nested, value, name)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"bad {label}: {err}") from None


# a config class's resolved field annotations, evaluated once per class
# rather than on every decode; callers only read the dict
_type_hints = functools.lru_cache(maxsize=64)(get_type_hints)


def json_kind(value) -> str:
    """A JSON value's kind as messages name it: null, or its type's name."""
    return "null" if value is None else type(value).__name__


def is_real(value) -> bool:
    """Whether a value is a real number, numpy's too, but not a bool or a
    string: the number rule of every float setting, bound and grade."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def bound_pairs(bounds, n: int | None = None, label: str = "search box"
                ) -> tuple[tuple[float, float], ...]:
    """bounds as (lo, hi) pairs of floats: the one check of a search box,
    the engine's and ProblemSpec's. A box is one or more pairs, n if given,
    of real numbers (is_real), or ValidationError; a bound that is not
    finite or lo > hi is an InfeasibleSpec. Messages start with label."""
    count = f"{n} " if n else ""
    try:
        pairs = tuple((lo, hi) for lo, hi in bounds)
        real = all(is_real(lo) and is_real(hi) for lo, hi in pairs)
    except (TypeError, ValueError):  # not a sequence of pairs
        real = False
    if not real:
        raise ValidationError(f"{label} needs {count}(lo, hi) pairs")
    if not pairs or n and len(pairs) != n:
        raise ValidationError(
            f"{label} needs {count}(lo, hi) pairs, got {len(pairs)}")
    box = []
    for lo, hi in pairs:
        try:
            lo, hi = float(lo), float(hi)
        except OverflowError:  # an int too large for a float
            lo = hi = math.inf
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InfeasibleSpec(f"{label} contains a non-finite bound")
        if lo > hi:
            raise InfeasibleSpec(f"{label} interval [{lo}, {hi}] is empty")
        box.append((lo, hi))
    return tuple(box)


def fits(hint, value) -> bool:
    """Whether a JSON value may fill a field annotated `hint`."""
    if get_origin(hint) in (Union, UnionType):
        return any(fits(t, value) for t in get_args(hint))
    if get_origin(hint) is tuple:
        return isinstance(value, (list, tuple))
    if hint is float:
        return is_real(value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, hint)


def _encode(value):
    if isinstance(value, ConfigCodec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _config_class(hint):
    """The config class a field annotation names, or None."""
    for t in (hint, *get_args(hint)):
        if ConfigCodec in getattr(t, "__mro__", ()):
            return t
    return None
