"""Deterministic synthetic corpora for desk-scale experiments.

Every generated sample contains exactly one payload statement placed at a
random mid-function position; the reference summary is a pure function of
that statement's tokens. Surrounding filler statements reuse the same verb
and object pools as decoys, so a model has to locate the payload statement
rather than keying on token frequencies.

Families:
  emit     payload: emit <verb> <obj> ;          summary: <verb> the <obj> data
  getter   payload: return this . <field> ;      summary: returns the <field> value
  setter   payload: this . <field> = <var> ;     summary: updates the <field> value

With max_payloads > 1 a sample carries several payload statements of its
family and the summary describes the LAST one, so earlier payloads act as
in-family decoys and the answer depends on statement order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import parse_section
from .corpus import NEWLINE_TOKEN, Sample
from .errors import ConfigError

VERBS = (
    "save", "load", "send", "close", "open", "reset", "copy", "merge",
    "scan", "sort", "flush", "drop", "mark", "pack", "trim", "lock",
)
OBJECTS = (
    "user", "file", "queue", "cache", "index", "token", "buffer", "record",
    "config", "stream", "batch", "field", "node", "entry", "page", "slot",
)
FIELDS = ("name", "width", "height", "status", "owner", "limit", "offset", "label")
VARS = ("i", "j", "k", "tmp", "val", "cnt")
NUMS = ("0", "1", "2", "7", "10", "42")
FAMILIES = ("emit", "getter", "setter")


@dataclass
class SyntheticSpec:
    projects: int = 10
    samples_per_project: int = 20
    statement_range: tuple[int, int] = (3, 8)
    families: tuple[str, ...] = FAMILIES
    max_payloads: int = 1

    def validate(self) -> "SyntheticSpec":
        if self.projects < 1 or self.samples_per_project < 1:
            raise ConfigError("synthetic spec needs positive project and sample counts")
        lo, hi = self.statement_range
        if lo < 3 or hi < lo:
            raise ConfigError(
                f"statement_range must satisfy 3 <= lo <= hi (payloads sit mid-function), got {self.statement_range}"
            )
        bad = sorted(set(self.families) - set(FAMILIES))
        if bad or not self.families:
            raise ConfigError(f"unknown template families: {bad}; choose from {FAMILIES}")
        if not 1 <= self.max_payloads <= lo - 2:
            raise ConfigError(
                f"max_payloads must lie in [1, statement_range.lo - 2], got {self.max_payloads}"
            )
        return self

    @classmethod
    def from_dict(cls, raw: dict) -> "SyntheticSpec":
        return parse_section(raw, "synthetic spec", cls)


def _pick(rng: np.random.Generator, pool):
    return pool[int(rng.integers(len(pool)))]


def _filler(rng: np.random.Generator) -> list[str]:
    # Fillers reuse the payload marker tokens in non-statement-initial
    # positions, so flat token patterns are ambiguous while the
    # statement-initial structure stays decisive.
    kind = int(rng.integers(7))
    if kind == 0:
        return [_pick(rng, VARS), "=", _pick(rng, VARS), "+", _pick(rng, NUMS), ";"]
    if kind == 1:
        return ["if", "(", _pick(rng, VARS), ">", _pick(rng, NUMS), ")", "{", "}"]
    if kind == 2:
        return [_pick(rng, OBJECTS), ".", "append", "(", _pick(rng, VARS), ")", ";"]
    if kind == 3:
        return ["log", ".", "emit", "(", _pick(rng, VERBS), ")", ";"]
    if kind == 4:
        return [_pick(rng, VARS), "=", _pick(rng, OBJECTS), ".", "size", "(", ")", ";"]
    if kind == 5:
        return ["if", "(", _pick(rng, VARS), ")", "return", ";"]
    return [_pick(rng, VARS), ".", _pick(rng, FIELDS), "=", _pick(rng, NUMS), ";"]


def _payload(rng: np.random.Generator, family: str) -> tuple[list[str], list[str]]:
    if family == "emit":
        verb, obj = _pick(rng, VERBS), _pick(rng, OBJECTS)
        return ["emit", verb, obj, ";"], [verb, "the", obj, "data"]
    if family == "getter":
        fld = _pick(rng, FIELDS)
        return ["return", "this", ".", fld, ";"], ["returns", "the", fld, "value"]
    fld, var = _pick(rng, FIELDS), _pick(rng, VARS)
    return ["this", ".", fld, "=", var, ";"], ["updates", "the", fld, "value"]


def generate_synthetic_corpus(spec: SyntheticSpec, seed: int) -> list[Sample]:
    """Build the corpus; a fixed seed yields a bytewise-identical dataset."""
    spec.validate()
    rng = np.random.default_rng(seed)
    lo, hi = spec.statement_range
    samples = []
    for p in range(spec.projects):
        project_id = f"proj{p:03d}"
        for s in range(spec.samples_per_project):
            family = spec.families[int(rng.integers(len(spec.families)))]
            count = int(rng.integers(lo, hi + 1))
            n_payloads = int(rng.integers(1, spec.max_payloads + 1))
            mid = rng.permutation(np.arange(1, count - 1))[:n_payloads]
            positions = set(int(i) for i in mid)
            payloads = {pos: _payload(rng, family) for pos in sorted(positions)}
            summary = payloads[max(positions)][1]
            code: list[str] = []
            for t in range(count):
                stmt = payloads[t][0] if t in positions else _filler(rng)
                code.extend(stmt)
                code.append(NEWLINE_TOKEN)
            samples.append(Sample(f"{project_id}_fn{s:03d}", project_id, code, summary))
    return samples
