"""Experiment-file loading: unit-tagged quantities and schema checks.

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
some choices of a string field read is rejected under the others. Every
validation failure raises ConfigError with the dotted path of the
offending key in the message.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
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

    kind: str                    # quantity|number|int|str|bool|number_list|int_list|block
    unit: str = ""               # dimension label for quantity kinds
    angular: bool = False        # multiply by 2*pi (cyclic -> angular frequency)
    required: bool = False
    default: Any = None
    choices: tuple | dict = ()   # allowed strings, or a dict of each one's own keys
    schema: dict | None = None   # sub-schema for kind="block"
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


def validate_block(block: Any, schema: dict, path: str) -> dict:
    """Check a config mapping against a schema, converting units.

    Unknown keys are rejected; missing required keys are reported; the
    returned dict carries SI floats for quantities and defaults for
    absent optional keys. A key that a choice field's dict lists (the
    field comes first) belongs only to the choices that list it: under
    another choice it is rejected if given and defaulted if not.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object, got {type(block).__name__}")
    for key in block:
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown key")
    out = {}
    scoped = {}                  # key -> the choice field whose dict lists it
    for key, f in schema.items():
        here = f"{path}.{key}"
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
                    f"{here}: {v!r} is not one of {list(f.choices)}"
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
        elif f.kind == "block":
            out[key] = validate_block(v, f.schema or {}, here)
        else:  # pragma: no cover - schema author error
            raise ConfigError(f"{here}: schema declares unknown kind {f.kind!r}")
    return out


# ---------------------------------------------------------------------------
# envelope: the fields shared by every experiment file


_EXPECT_KEYS = {"metric", "value", "rtol", "atol", "min", "max"}


def _validate_expect(items: Any, path: str) -> list[dict]:
    if not isinstance(items, list):
        raise ConfigError(f"{path}: expected a list of expectation objects")
    out = []
    for i, item in enumerate(items):
        here = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{here}: expected an object")
        for key in item:
            if key not in _EXPECT_KEYS:
                raise ConfigError(f"{here}.{key}: unknown key")
        if not isinstance(item.get("metric"), str):
            raise ConfigError(f"{here}.metric: required string missing")
        modes = [k for k in ("value", "min", "max") if k in item]
        if len(modes) != 1:
            raise ConfigError(
                f"{here}: needs exactly one of value/min/max, found {modes}"
            )
        for num_key in ("value", "rtol", "atol", "min", "max"):
            if num_key in item:
                _want_number(item[num_key], f"{here}.{num_key}")
        if modes[0] != "value" and ("rtol" in item or "atol" in item):
            raise ConfigError(f"{here}: rtol/atol only combine with value")
        out.append(dict(item))
    return out


_PLOT_KEYS = {"x", "y", "title", "file"}


def _validate_plots(spec: Any, path: str) -> list[dict]:
    items = spec if isinstance(spec, list) else [spec]
    out = []
    for i, item in enumerate(items):
        here = f"{path}[{i}]" if isinstance(spec, list) else path
        if not isinstance(item, dict):
            raise ConfigError(f"{here}: expected a plot object")
        for key in item:
            if key not in _PLOT_KEYS:
                raise ConfigError(f"{here}.{key}: unknown key")
        if not isinstance(item.get("x"), str):
            raise ConfigError(f"{here}.x: required string missing")
        y = item.get("y")
        if isinstance(y, str):
            y = [y]
        if not (isinstance(y, list) and y and all(isinstance(s, str) for s in y)):
            raise ConfigError(f"{here}.y: expected a column name or list of names")
        for opt in ("title", "file"):
            if opt in item and not isinstance(item[opt], str):
                raise ConfigError(f"{here}.{opt}: expected a string")
        out.append({"x": item["x"], "y": y,
                    "title": item.get("title", ""), "file": item.get("file")})
    return out


_TOP_KEYS = {"kind", "description", "seed", "params", "expect", "plot",
             "output", "strict"}


@dataclass
class ExperimentConfig:
    """Parsed envelope of one experiment file; params stay kind-specific."""

    kind: str
    params: dict
    description: str = ""
    seed: int = 0
    expect: list = field(default_factory=list)
    plots: list = field(default_factory=list)
    output: str | None = None
    strict: bool = False


def parse_config_text(text: str, origin: str = "config") -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except ValueError as err:       # JSONDecodeError, or an integer too long to read
        raise ConfigError(f"{origin}: not valid JSON ({err})") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{origin}: top level must be an object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"{key}: unknown key")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"kind: must be one of {list(KINDS)}, got {kind!r}")
    params = raw.get("params")
    if not isinstance(params, dict):
        raise ConfigError("params: required object missing")
    cfg = ExperimentConfig(kind=kind, params=params)
    if "description" in raw:
        if not isinstance(raw["description"], str):
            raise ConfigError("description: expected a string")
        cfg.description = raw["description"]
    if "seed" in raw:
        cfg.seed = _want_int(raw["seed"], "seed", lo=0)
    if "expect" in raw:
        cfg.expect = _validate_expect(raw["expect"], "expect")
    if "plot" in raw:
        cfg.plots = _validate_plots(raw["plot"], "plot")
    if "output" in raw:
        if not isinstance(raw["output"], str) or not raw["output"]:
            raise ConfigError("output: expected a nonempty string")
        cfg.output = raw["output"]
    if "strict" in raw:
        if not isinstance(raw["strict"], bool):
            raise ConfigError("strict: expected true/false")
        cfg.strict = raw["strict"]
    return cfg
