"""Run-config sections, their one typed parser, and canonical JSON helpers.

`parse_section` is the one place that checks a config value against its
field's declared type; each section's `validate()` keeps only its range and
membership rules. Canonical JSON means sorted keys with a fixed layout, so
any two runs that produce the same values produce byte-identical files.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import TypeVar

from .errors import ConfigError

ENCODER_KINDS = ("smn", "attendgru_only")
STATEMENT_ENCODINGS = ("positional", "eos")
GATE_QUERIES = ("constant_q", "summary_vector")
GATE_SQUASHES = ("none", "sigmoid")

Section = TypeVar("Section")

# Scalar field type -> (the JSON values it accepts, its name, its plural).
_SCALARS = {int: (int, "an integer", "integers"), float: ((int, float), "a number", "numbers"),
            str: (str, "a string", "strings")}


def canonical_json(obj) -> str:
    """Pretty canonical form used for config and report files."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def canonical_json_line(obj) -> str:
    """Compact one-line canonical form used inside checkpoint headers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@functools.cache
def _field_types(cls: type) -> dict[str, object]:
    """Field name -> resolved declared type, for section dataclass `cls`."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _describe(kind) -> str:
    """What a JSON value of declared type `kind` must be, for error messages."""
    if kind in _SCALARS:
        return _SCALARS[kind][1]
    args = typing.get_args(kind)
    if type(None) in args:
        return f"{_describe(args[0])} or null"
    size = "" if args[-1] is Ellipsis else f"{len(args)} "
    return f"a JSON list of {size}{_SCALARS[args[0]][2]}"


def _typed(value, kind, name: str):
    """`value` as declared type `kind`, with JSON lists made tuples; raises
    TypeError on a value of another kind and ValueError on a NaN or infinite
    number. A nested section is parsed whole, its errors labelled `name`."""
    if kind in _SCALARS:
        if isinstance(value, bool) or not isinstance(value, _SCALARS[kind][0]):
            raise TypeError
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError
        return value
    if is_dataclass(kind):
        return parse_section(value, name, kind)
    args = typing.get_args(kind)
    if type(None) in args:  # X | None
        return None if value is None else _typed(value, args[0], name)
    variadic = args[-1] is Ellipsis  # tuple[...]
    if not isinstance(value, (list, tuple)) or not variadic and len(value) != len(args):
        raise TypeError
    return tuple(_typed(v, args[0 if variadic else i], name) for i, v in enumerate(value))


def parse_section(raw, label: str, cls: type[Section]) -> Section:
    """The config section `cls` built from its JSON value `raw`, an object
    whose keys name fields of `cls`, then checked by its `validate()`, if it
    has one; the error messages call it `label`. Each value must have its
    field's declared type: `int`, `float`, `str`, `X | None`, a fixed or
    variadic `tuple[...]` (a JSON list, never a bare string) or a nested
    section. NaN, infinite numbers and booleans are refused as numbers."""
    if not isinstance(raw, dict):
        raise ConfigError(f"the {label} section must be a JSON object, got {type(raw).__name__}")
    kinds = _field_types(cls)
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown {label} keys: {', '.join(unknown)}")
    values = {}
    for name, value in raw.items():
        try:
            values[name] = _typed(value, kinds[name], name)
        except TypeError:
            raise ConfigError(f"invalid {label}: {name} must be {_describe(kinds[name])}, "
                              f"got {value!r}") from None
        except ValueError:
            raise ConfigError(f"invalid {label}: {name} must be finite, got {value!r}") from None
    section = cls(**values)
    return section.validate() if hasattr(section, "validate") else section


@dataclass
class ModelConfig:
    tdatlen: int = 200
    comlen: int = 13
    e_dim: int = 100
    l_dim: int = 100
    h: int = 3
    n: int = 70
    y: int = 30
    batch: int = 100
    code_vocab_size: int = 69725
    summary_vocab_size: int = 10908
    projection_dim: int = 256
    encoder_kind: str = "smn"
    statement_encoding: str = "positional"
    gate_query: str = "constant_q"
    q_fill: float = 0.1
    rng_seed: int = 0
    gate_squash: str = "none"
    grad_clip: float | None = None

    def validate(self) -> "ModelConfig":
        if self.e_dim != self.l_dim:
            raise ConfigError(
                f"e_dim ({self.e_dim}) must equal l_dim ({self.l_dim}): statement "
                "vectors, memories, and decoder states share one width"
            )
        for name in ("tdatlen", "e_dim", "l_dim", "h", "n", "y", "batch", "projection_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.comlen < 2:
            raise ConfigError(f"comlen must be >= 2 (room for <s> and </s>), got {self.comlen}")
        if self.code_vocab_size <= 4 or self.summary_vocab_size <= 4:
            raise ConfigError("vocabulary sizes must exceed the 4 reserved ids")
        if self.encoder_kind not in ENCODER_KINDS:
            raise ConfigError(f"encoder_kind must be one of {ENCODER_KINDS}, got {self.encoder_kind!r}")
        if self.statement_encoding not in STATEMENT_ENCODINGS:
            raise ConfigError(
                f"statement_encoding must be one of {STATEMENT_ENCODINGS}, got {self.statement_encoding!r}"
            )
        if self.gate_query not in GATE_QUERIES:
            raise ConfigError(f"gate_query must be one of {GATE_QUERIES}, got {self.gate_query!r}")
        if self.gate_squash not in GATE_SQUASHES:
            raise ConfigError(f"gate_squash must be one of {GATE_SQUASHES}, got {self.gate_squash!r}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigError(f"grad_clip must be positive when set, got {self.grad_clip}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        return parse_section(raw, "model config", cls)
