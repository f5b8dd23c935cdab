"""Experiment-file loading: unit-tagged quantities and schema checks.

One walker, validate_block, checks the whole file. The envelope is a
schema like any kind's params: expect and plot are lists of objects with
their own schemas, a plot's y is one column name or a list of them, and
params only has to be an object until its kind's schema checks it.

Experiment configs are JSON objects. Every physical quantity is a string
of the form "<number> <unit>" ("10 MHz", "3 um", "9.012 u"); bare numbers
are only accepted where a field is genuinely dimensionless. The unit
grammar is an SI prefix (f p n u m k M G T) glued to a base unit from

    Hz  V  m  s  u  e  K  Pa  Ohm

where "u" is the unified atomic mass unit (converted to kg) and "e" the
elementary charge (converted to C). An exact base-unit match wins over a
prefix split, so "u" is always the mass unit and "um" is micrometers.

Frequencies declared angular in a schema are multiplied by 2*pi on the
way in, so handlers always see rad/s; rate-type fields (unit Hz, not
angular) pass through as plain 1/s. Numbers must be finite: NaN,
Infinity and values that overflow (such as "1e400 MHz") are rejected.
Integers must lie within their field's lo..hi bounds, and a schema sets
hi so that no array the field sizes can outgrow memory. A key that only
some choices of a string field read is rejected under the others. The
output names (output, plot[i].file) must be bare file names, so that
every output lands in the run's output directory. Every validation
failure raises ConfigError with the dotted path of the offending key in
the message.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from typing import Any

from scipy.constants import atomic_mass, elementary_charge

from .errors import ConfigError

KINDS = (
    "trap", "modes", "rabi", "gate", "cool", "heat", "noise", "clock",
    "tomography",
)

# base unit -> (dimension label, factor to SI)
_BASE_UNITS = {
    "Hz": ("Hz", 1.0),
    "V": ("V", 1.0),
    "m": ("m", 1.0),
    "s": ("s", 1.0),
    "u": ("kg", atomic_mass),
    "e": ("C", elementary_charge),
    "K": ("K", 1.0),
    "Pa": ("Pa", 1.0),
    "Ohm": ("Ohm", 1.0),
}

_PREFIXES = {
    "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3,
    "k": 1e3, "M": 1e6, "G": 1e9, "T": 1e12,
}

_QUANTITY_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-z]+)\s*$"
)

# longest bases first so "Ohm" is tried before "m"
_BASES_BY_LENGTH = sorted(_BASE_UNITS, key=len, reverse=True)


def _resolve_unit(token: str):
    """(dimension, SI factor) for a unit token, or None if unknown."""
    if token in _BASE_UNITS:
        dim, f = _BASE_UNITS[token]
        return dim, f
    for base in _BASES_BY_LENGTH:
        if token.endswith(base):
            head = token[: -len(base)]
            if head in _PREFIXES:
                dim, f = _BASE_UNITS[base]
                return dim, f * _PREFIXES[head]
    return None


def parse_quantity(value: Any, dimension: str, path: str) -> float:
    """Parse "<number> <unit>" into an SI float of the required dimension."""
    if isinstance(value, bool) or not isinstance(value, str):
        raise ConfigError(
            f"{path}: physical quantities need a unit suffix, "
            f"e.g. \"10 MHz\" (got {value!r})"
        )
    m = _QUANTITY_RE.match(value)
    if not m:
        raise ConfigError(
            f"{path}: cannot parse quantity {value!r} "
            "(expected '<number> <unit>')"
        )
    number, token = m.groups()
    resolved = _resolve_unit(token)
    if resolved is None:
        raise ConfigError(f"{path}: unknown unit {token!r} in {value!r}")
    dim, factor = resolved
    if dim != dimension:
        raise ConfigError(
            f"{path}: expected a quantity in {dimension}, got {value!r} ({dim})"
        )
    return _finite(float(number) * factor, value, path)


@dataclass(frozen=True)
class Field:
    """One schema slot: value kind, unit handling, default."""

    # quantity|number|int|str|bool|number_list|int_list|block, str_list (a
    # bare string is a list of one) or block_list (objects matching schema)
    kind: str
    unit: str = ""               # dimension label for quantity kinds
    angular: bool = False        # multiply by 2*pi (cyclic -> angular frequency)
    required: bool = False
    default: Any = None
    choices: tuple | dict = ()   # allowed strings, or a dict of each one's own keys
    schema: dict | None = None   # of a block or block_list; None takes any object
    lo: int | None = None        # inclusive bounds for kinds int and int_list
    hi: int | None = None


def _finite(x: float, v: Any, path: str) -> float:
    if not math.isfinite(x):
        raise ConfigError(f"{path}: {v!r} is not a finite number")
    return x


def _want_number(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a plain number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    return _finite(x, v, path)


def _want_int(v: Any, path: str, lo: int | None = None, hi: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{path}: must be >= {lo}")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}: must be <= {hi}")
    return v


def validate_block(block: Any, schema: dict | None, path: str) -> dict:
    """Check a config mapping against a schema, converting units.

    It checks the whole file: the envelope at path "" (whose keys print
    without a leading dot), then the kind's params. Unknown keys are
    rejected; missing required keys are reported; the returned dict
    carries SI floats for quantities and defaults for absent optional
    keys. A key that a choice field's dict lists (the field comes first)
    belongs only to the choices that list it: under another choice it is
    rejected if given and defaulted if not. With schema None the block
    only has to be an object and is returned as given.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object, got {type(block).__name__}")
    if schema is None:
        return block
    prefix = f"{path}." if path else ""
    for key in block:
        if key not in schema:
            raise ConfigError(f"{prefix}{key}: unknown key")
    out = {}
    scoped = {}                  # key -> the choice field whose dict lists it
    for key, f in schema.items():
        here = prefix + key
        name = scoped.get(key)
        if name is not None and key not in schema[name].choices[out[name]]:
            if key in block:
                raise ConfigError(f"{here}: not a parameter of {name} {out[name]!r}")
            out[key] = f.default
            continue
        if isinstance(f.choices, dict):
            scoped.update((k, key) for keys in f.choices.values() for k in keys)
        if key not in block:
            if f.required:
                raise ConfigError(f"{here}: required key missing")
            out[key] = f.default
            continue
        v = block[key]
        if f.kind == "quantity":
            x = parse_quantity(v, f.unit, here)
            out[key] = _finite(x * (2.0 * math.pi), v, here) if f.angular else x
        elif f.kind == "number":
            out[key] = _want_number(v, here)
        elif f.kind == "int":
            out[key] = _want_int(v, here, f.lo, f.hi)
        elif f.kind == "str":
            if not isinstance(v, str):
                raise ConfigError(f"{here}: expected a string, got {v!r}")
            if f.choices and v not in f.choices:
                raise ConfigError(
                    f"{here}: must be one of {list(f.choices)}, got {v!r}"
                )
            out[key] = v
        elif f.kind == "bool":
            if not isinstance(v, bool):
                raise ConfigError(f"{here}: expected true/false, got {v!r}")
            out[key] = v
        elif f.kind == "number_list":
            if not isinstance(v, list) or not v:
                raise ConfigError(f"{here}: expected a nonempty list of numbers")
            out[key] = [_want_number(x, f"{here}[{i}]") for i, x in enumerate(v)]
        elif f.kind == "int_list":
            if not isinstance(v, list) or not v:
                raise ConfigError(f"{here}: expected a nonempty list of integers")
            out[key] = [_want_int(x, f"{here}[{i}]", f.lo, f.hi)
                        for i, x in enumerate(v)]
        elif f.kind == "str_list":
            v = [v] if isinstance(v, str) else v
            if not (isinstance(v, list) and v and all(isinstance(s, str) for s in v)):
                raise ConfigError(
                    f"{here}: expected a string or a nonempty list of strings")
            out[key] = v
        elif f.kind == "block":
            out[key] = validate_block(v, f.schema, here)
        elif f.kind == "block_list":
            if not isinstance(v, list):
                raise ConfigError(
                    f"{here}: expected a list of objects, got {type(v).__name__}")
            out[key] = [validate_block(x, f.schema, f"{here}[{i}]")
                        for i, x in enumerate(v)]
        else:  # pragma: no cover - schema author error
            raise ConfigError(f"{here}: schema declares unknown kind {f.kind!r}")
    return out


# ---------------------------------------------------------------------------
# envelope: the fields shared by every experiment file


_EXPECTATION_SCHEMA = {
    "metric": Field("str", required=True),
    "value": Field("number"),
    "rtol": Field("number"),
    "atol": Field("number"),
    "min": Field("number"),
    "max": Field("number"),
}

_PLOT_SCHEMA = {
    "x": Field("str", required=True),
    "y": Field("str_list", required=True),
    "title": Field("str", default=""),
    "file": Field("str"),
}

_ENVELOPE_SCHEMA = {
    "kind": Field("str", required=True, choices=KINDS),
    "params": Field("block", required=True),    # the kind's schema checks it later
    "description": Field("str", default=""),
    "seed": Field("int", default=0, lo=0),
    "expect": Field("block_list", schema=_EXPECTATION_SCHEMA),
    "plot": Field("block_list", schema=_PLOT_SCHEMA),
    "output": Field("str"),
    "strict": Field("bool", default=False),
}


@dataclass
class ExperimentConfig:
    """Parsed envelope (defaults from _ENVELOPE_SCHEMA); params stay kind-specific."""

    kind: str
    params: dict
    description: str
    seed: int
    expect: list
    plots: list
    output: str | None
    strict: bool


def parse_config_text(text: str, origin: str = "config") -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except ValueError as err:       # JSONDecodeError, or an integer too long to read
        raise ConfigError(f"{origin}: not valid JSON ({err})") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{origin}: top level must be an object")
    if isinstance(raw.get("plot"), dict):       # one plot object is a list of one
        raw["plot"] = [raw["plot"]]
    v = validate_block(raw, _ENVELOPE_SCHEMA, "")
    if v["output"] == "":
        raise ConfigError("output: expected a nonempty string")
    v["expect"] = v["expect"] or []
    v["plots"] = v.pop("plot") or []
    # a name with a path in it could write outside the output directory
    seps = {"/", os.sep, os.altsep} - {None}
    names = [("output", v["output"])]
    names += [(f"plot[{i}].file", pl["file"]) for i, pl in enumerate(v["plots"])]
    for key, name in names:
        if name in (".", "..") or any(s in (name or "") for s in seps):
            raise ConfigError(f"{key}: expected a bare file name, found {name!r}")
    for i, e in enumerate(v["expect"]):
        modes = [k for k in ("value", "min", "max") if e[k] is not None]
        if len(modes) != 1:
            raise ConfigError(
                f"expect[{i}]: needs exactly one of value/min/max, found {modes}"
            )
        if modes[0] != "value" and (e["rtol"] is not None or e["atol"] is not None):
            raise ConfigError(f"expect[{i}]: rtol/atol only combine with value")
    return ExperimentConfig(**v)
