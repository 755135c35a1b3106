"""Plain-text `key=value` form of the frozen config dataclasses.

The keys are the dataclass's field names, each a plain setting.  Values print
with `str`, tuples as comma-separated lists.  Parsing starts from the
dataclass's own defaults, so the empty text gives the default object, and
each value must have the type of its field's default; a number must be
finite (`finite` rejects `nan`, `inf` and overflow).  Blank lines and `#`
comments are skipped.  Any other line must be `key=value` with a known key,
or start with one of the row words the caller names (such as `profile t
acc`).  A line that does not parse, or a `profile` row out of order, is
named by its number; a value the dataclass rejects (`horizon_epochs=-1`)
only by its field.  `read_file` puts the file first.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields


class ConfigError(ValueError):
    """Text that does not give a valid object.  A line that does not parse
    is named in the message; `read_file` adds the file."""


def _defaults(cls):
    return {f.name: f.default_factory() if f.default is MISSING else f.default
            for f in fields(cls)}


def finite(text):
    """The float `text` gives; a `ValueError` unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _number(text):
    """An int when the value is integral, a float otherwise."""
    value = finite(text)
    return int(value) if value.is_integer() else value


def _parse(default, text):
    if isinstance(default, str):
        return text
    if isinstance(default, tuple):
        item = finite if all(isinstance(v, float) for v in default) else _number
        return tuple(item(v) for v in text.split(","))
    if isinstance(default, int):
        value = _number(text)
        if not isinstance(value, int):
            raise ValueError(f"{text!r} is not an integer")
        return value
    return finite(text)


def config_lines(obj, skip=()):
    """The `key=value` lines of a config object, in field order."""
    lines = []
    for f in fields(obj):
        if f.name in skip:
            continue
        value = getattr(obj, f.name)
        if isinstance(value, tuple):
            lines.append(f"{f.name}=" + ",".join(str(v) for v in value))
        else:
            lines.append(f"{f.name}={value}")
    return lines


def parse_config(cls, text, rows=()):
    """Field values that `text` sets for `cls`, and its row lines.

    Returns `(values, found)`: `values` maps field names to parsed values,
    and `found` maps each word of `rows` to the `(line number, [tokens after
    the word])` of its lines, in order.
    """
    keys = {name: value for name, value in _defaults(cls).items() if name not in rows}
    values, found = {}, {word: [] for word in rows}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word, *rest = line.split()
        if word in found:
            found[word].append((number, rest))
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigError(f"line {number}: expected key=value, got {line!r}")
        if key not in keys:
            raise ConfigError(f"line {number}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {number}: duplicate key {key!r}")
        try:
            values[key] = _parse(keys[key], value)
        except ValueError as exc:
            raise ConfigError(f"line {number}: bad value for {key!r}: {exc}") from None
    return values, found


def read_file(path, parse_text):
    """`parse_text` of the file at `path`; a `ValueError` it or the UTF-8
    decoding raises comes back as a `ConfigError` starting with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_text(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
