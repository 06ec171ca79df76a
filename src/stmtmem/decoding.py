"""Greedy autoregressive decoding and mean-softmax ensembling.

Ensembles average the member models' next-word probability vectors with
equal weights at every step; members are trained independently and only
combined at prediction time. Members must agree on the summary vocabulary
and comlen; code-side shapes may differ, so each member decodes from its
own encoding of the sample. A member encodes a sample once
(`LoadedModel.encode`); each decode step then runs only its decoder head
(`LoadedModel.next_dist`).

Prediction file (bit-exact contract): one line per sample, UTF-8:
    sample_id<TAB>predicted tokens space-separated
An empty prediction leaves the second field empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ModelConfig
from .corpus import (
    BOS_ID,
    EOS_ID,
    EncodedSample,
    PAD_ID,
    Sample,
    UNK_ID,
    Vocabulary,
    encode_sample,
)
from .errors import DataError, DimensionError, UsageError
from .model import EncoderState, MemoryTrace, batch_inputs, encode, head, prefix_row
# Not called: benchmarks/tracing.py hooks this name to count the full
# forwards decoding makes, which is none since it encodes once per sample.
from .model import forward  # noqa: F401
from .params import ParameterSet
from .tensor import no_grad

MAX_GENERATED = 12
_BANNED_IDS = (PAD_ID, BOS_ID, UNK_ID)


@dataclass
class LoadedModel:
    params: ParameterSet
    config: ModelConfig

    def encode(self, encoded: EncodedSample, collect_trace: bool = False) -> EncoderState:
        """The sample's prefix-independent state; computed once per sample."""
        with no_grad():
            return encode(batch_inputs([encoded]), self.params, self.config,
                          collect_trace=collect_trace)

    def next_dist(self, state: EncoderState, prefix_ids,
                  collect_trace: bool = False) -> tuple[np.ndarray, MemoryTrace | None]:
        """Next-word distribution after `prefix_ids`, from an encoded sample."""
        row = prefix_row(prefix_ids, self.config.comlen)
        with no_grad():
            dists, traces = head(state, row[None], self.params, self.config,
                                 collect_trace=collect_trace)
        return dists.data[0].copy(), traces[0] if traces else None

    def predict_dist(self, encoded: EncodedSample, prefix_ids,
                     collect_trace: bool = False) -> tuple[np.ndarray, MemoryTrace | None]:
        return self.next_dist(self.encode(encoded, collect_trace), prefix_ids, collect_trace)


@dataclass
class PredictionRecord:
    sample_id: str
    tokens: list[str]


def ensemble_distribution(dists) -> np.ndarray:
    """Equal-weight arithmetic mean of probability vectors. Summands are
    accumulated in a canonical order so the result is bit-identical under
    any permutation of the inputs."""
    if not dists:
        raise UsageError("ensemble_distribution: no distributions")
    length = dists[0].shape[0]
    for d in dists[1:]:
        if d.shape != (length,):
            raise DimensionError(f"distribution lengths differ: {d.shape} vs ({length},)")
    for d in dists:
        if abs(float(d.sum()) - 1.0) > 1e-9:
            raise UsageError(f"input is not a probability vector (sum {float(d.sum())})")
    ordered = sorted(dists, key=lambda d: d.tobytes())
    out = ordered[0].copy()
    for d in ordered[1:]:
        out += d
    out /= len(dists)
    return out


def _check_models(models, vocab: Vocabulary) -> ModelConfig:
    if not models:
        raise UsageError("greedy_decode: no models")
    first = models[0].config
    for m in models[1:]:
        if m.config.summary_vocab_size != first.summary_vocab_size:
            raise UsageError(
                f"ensemble members disagree on summary vocabulary size: "
                f"{m.config.summary_vocab_size} vs {first.summary_vocab_size}"
            )
        if m.config.comlen != first.comlen:
            raise UsageError(
                f"ensemble members disagree on comlen: {m.config.comlen} vs {first.comlen}"
            )
    if first.summary_vocab_size != len(vocab):
        raise UsageError(
            f"model summary vocabulary size {first.summary_vocab_size} does not match "
            f"the vocabulary file ({len(vocab)} tokens)"
        )
    return first


def greedy_decode(models, encoded, vocab: Vocabulary,
                  collect_trace: bool = False) -> tuple[PredictionRecord, MemoryTrace | None]:
    """Decode one sample: start from [<s>]; at each step average every
    model's next-word distribution, take the argmax (ties to the lowest id),
    stop on </s> or after 12 generated tokens. Reserved non-terminal ids are
    never emitted. Each member encodes the sample once, before the first
    step; a step runs only the members' decoder heads.

    `encoded` is one EncodedSample shared by all members, or one per member
    when their code-side shapes differ. Returns the record plus the first
    decode step's memory trace of the first member when requested.
    """
    config = _check_models(models, vocab)
    if isinstance(encoded, EncodedSample):
        per_model = [encoded] * len(models)
    else:
        per_model = list(encoded)
        if len(per_model) != len(models):
            raise UsageError(f"got {len(per_model)} encodings for {len(models)} models")
    states = [m.encode(enc, collect_trace=collect_trace and index == 0)
              for index, (m, enc) in enumerate(zip(models, per_model))]
    limit = min(MAX_GENERATED, config.comlen - 1)
    prefix = [BOS_ID]
    tokens: list[str] = []
    trace = None
    for step in range(limit):
        member_dists = []
        for index, (m, state) in enumerate(zip(models, states)):
            want_trace = collect_trace and step == 0 and index == 0
            dist, t = m.next_dist(state, prefix, collect_trace=want_trace)
            if want_trace:
                trace = t
            member_dists.append(dist)
        dist = ensemble_distribution(member_dists)
        masked = dist.copy()
        masked[list(_BANNED_IDS)] = -1.0
        nxt = int(np.argmax(masked))
        if nxt == EOS_ID:
            break
        tokens.append(vocab.decode(nxt))
        prefix.append(nxt)
    return PredictionRecord(per_model[0].sample_id, tokens), trace


def predict_corpus(models, samples: Sequence[Sample], code_vocab: Vocabulary,
                   sum_vocab: Vocabulary, out_path: str,
                   dump_gates_path: str | None = None) -> list[PredictionRecord]:
    """Decode every sample in input order and write the prediction file;
    optionally dump the first decode step's memory trace per sample
    (one line per hop: sample_id, hop index, n gate values)."""
    for m in models:
        if m.config.code_vocab_size != len(code_vocab):
            raise UsageError(
                f"model code vocabulary size {m.config.code_vocab_size} does not match "
                f"the vocabulary file ({len(code_vocab)} tokens)"
            )
    records = []
    gate_lines: list[str] = []
    for sample in samples:
        per_model = [encode_sample(sample, code_vocab, sum_vocab, m.config) for m in models]
        record, trace = greedy_decode(models, per_model, sum_vocab,
                                      collect_trace=dump_gates_path is not None)
        records.append(record)
        if dump_gates_path is not None and trace is not None:
            for hop in range(trace.gates.shape[0]):
                values = " ".join(f"{v:.6f}" for v in trace.gates[hop])
                gate_lines.append(f"{sample.sample_id}\t{hop}\t{values}")
    write_predictions(out_path, records)
    if dump_gates_path is not None:
        try:
            with open(dump_gates_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(gate_lines) + ("\n" if gate_lines else ""))
        except OSError as exc:
            raise DataError(f"cannot write gate dump to {dump_gates_path}: {exc}") from exc
    return records


def write_predictions(path: str, records) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(f"{r.sample_id}\t{' '.join(r.tokens)}\n")
    except OSError as exc:
        raise DataError(f"cannot write predictions to {path}: {exc}") from exc


def read_predictions(path: str) -> dict[str, list[str]]:
    """Parse a prediction file into sample_id -> tokens, preserving order."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise DataError(f"cannot read predictions {path}: {exc}") from exc
    out: dict[str, list[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields, got {len(parts)}")
        out[parts[0]] = parts[1].split()
    return out
