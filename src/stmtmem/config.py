"""Model hyperparameters and canonical JSON helpers.

Canonical JSON means sorted keys with a fixed layout, so any two runs that
produce the same values produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, TypeVar

from .errors import ConfigError

ENCODER_KINDS = ("smn", "attendgru_only")
STATEMENT_ENCODINGS = ("positional", "eos")
GATE_QUERIES = ("constant_q", "summary_vector")
GATE_SQUASHES = ("none", "sigmoid")

Section = TypeVar("Section")

# Declared type of a numeric section field -> the JSON values it accepts.
_NUMBER_FIELDS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
                  "float | None": ((int, float, type(None)), "a number or null")}


def canonical_json(obj) -> str:
    """Pretty canonical form used for config and report files."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def canonical_json_line(obj) -> str:
    """Compact one-line canonical form used inside checkpoint headers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _finite(value) -> bool:
    """False for a NaN or infinite number, also inside a list; Python's JSON
    reader accepts NaN and Infinity."""
    if isinstance(value, float):
        return math.isfinite(value)
    return not isinstance(value, (list, tuple)) or all(_finite(v) for v in value)


def parse_section(raw, label: str, cls: type[Section],
                  build: Callable[..., Section] | None = None) -> Section:
    """Build the config section `cls` from its JSON value `raw`, an object
    whose keys name fields of `cls`; the error messages call it `label`.

    `build(**raw)` makes and validates the section; by default it is
    `cls(**raw).validate()`. A TypeError or ValueError raised on the way (a
    value of the wrong type or length) becomes a ConfigError, like every
    other defect of the file. First, no value may be a NaN or infinite
    number, an int field must hold an integer (no float or boolean) and a
    float field a number.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"the {label} section must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {label} keys: {', '.join(unknown)}")
    for name, value in raw.items():
        if not _finite(value):
            raise ConfigError(f"invalid {label}: {name} must be finite, got {value!r}")
    for f in fields(cls):
        if f.name in raw and str(f.type) in _NUMBER_FIELDS:
            kinds, wanted = _NUMBER_FIELDS[str(f.type)]
            if isinstance(raw[f.name], bool) or not isinstance(raw[f.name], kinds):
                raise ConfigError(f"invalid {label}: {f.name} must be {wanted}, got {raw[f.name]!r}")
    try:
        return build(**raw) if build else cls(**raw).validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {label}: {exc}") from exc


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
