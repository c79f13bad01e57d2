"""Files of the package: one field-driven JSON codec, one text reader, one
text writer.

Run configs, the grade context and the fuzzy model files all encode and
decode through ConfigCodec; every JSON file the package writes goes through
json_text and every one it reads through read_json. Every file the package
reads, JSON or CSV, goes through read_text, and every file it writes, JSON
or CSV or text, through write_text.
"""

from __future__ import annotations

import functools
import json
from dataclasses import fields
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .errors import ValidationError


def read_text(path: str) -> str:
    """The UTF-8 text of a file; a file that cannot be opened or is not
    UTF-8 is a one-line ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"cannot read {path}: {err}") from None


def read_json(path: str):
    """The JSON document in a file; an unreadable file or bad JSON is a
    one-line ValidationError."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(f"{path} is not valid JSON: {err}") from None


def write_text(path: str, text: str, newline: str | None = None) -> None:
    """Write `text` to the file at `path`, UTF-8, with open()'s `newline`
    handling, replacing what the file held."""
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
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
    an int field an int but not a bool, a float field an int or a float, a
    str field a str, null only where the annotation admits None, and a
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
            f"{label} must be a JSON object, got {_json_kind(data)}")
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
            if not _fits(hint, value):
                expected = hint.__name__ if isinstance(hint, type) else hint
                raise ValidationError(
                    f"bad {label}: {name} must be {expected}, "
                    f"got {_json_kind(value)}")
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


def _json_kind(value) -> str:
    return "null" if value is None else type(value).__name__


def _fits(hint, value) -> bool:
    """Whether a JSON value may fill a field annotated `hint`."""
    if get_origin(hint) in (Union, UnionType):
        return any(_fits(t, value) for t in get_args(hint))
    if get_origin(hint) is tuple:
        return isinstance(value, (list, tuple))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
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
