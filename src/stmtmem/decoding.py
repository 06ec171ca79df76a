"""Greedy autoregressive decoding and mean-softmax ensembling.

Ensembles average the member models' next-word probability vectors with
equal weights at every step; members are trained independently and only
combined at prediction time. Members must agree on the summary vocabulary
and comlen; code-side shapes may differ, so each member decodes from its
own encoding of the sample. Samples decode in lockstep chunks: a member
encodes a chunk once (`LoadedModel.encode`); each step runs its decoder head
once over the rows still decoding (`LoadedModel.next_dist`). A one-row
matmul takes another BLAS path than a row of a larger batch, so a batched
row's distributions match its one-row ones within 1e-9, not bitwise.

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
    read_records,
    write_text,
)
from .errors import DimensionError, UsageError
from .model import EncoderState, MemoryTrace, batch_inputs, encode, head, prefix_row
# Not called: benchmarks/tracing.py hooks this name to count the full
# forwards decoding makes, which is none since it encodes once per sample.
from .model import forward  # noqa: F401
from .params import ParameterSet
from .tensor import no_grad

MAX_GENERATED = 12
CHUNK_SAMPLES = 100       # samples decoded in lockstep by predict_corpus
_BANNED_IDS = (PAD_ID, BOS_ID, UNK_ID)


@dataclass
class LoadedModel:
    params: ParameterSet
    config: ModelConfig

    def encode(self, encoded: Sequence[EncodedSample],
               collect_trace: bool = False) -> EncoderState:
        """The samples' prefix-independent state, one row per sample."""
        inputs = batch_inputs(encoded)
        with no_grad():
            return encode(inputs, self.params, self.config,
                          collect_trace=collect_trace).select(inputs.rows)

    def next_dist(self, state: EncoderState, prefixes,
                  collect_trace: bool = False) -> tuple[np.ndarray, list[MemoryTrace] | None]:
        """Next-word distributions [B, v] after each row's prefix."""
        rows = np.stack([prefix_row(p, self.config.comlen) for p in prefixes])
        with no_grad():
            dists, traces = head(state, rows, self.params, self.config,
                                 collect_trace=collect_trace)
        return dists.data, traces

    def predict_dist(self, encoded: EncodedSample, prefix_ids,
                     collect_trace: bool = False) -> tuple[np.ndarray, MemoryTrace | None]:
        dists, traces = self.next_dist(self.encode([encoded], collect_trace), [prefix_ids],
                                       collect_trace)
        return dists[0].copy(), traces[0] if traces else None


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


def _decode_lockstep(models, per_model, vocab: Vocabulary,
                     collect_trace: bool) -> tuple[list[list[str]], list[MemoryTrace | None]]:
    """Greedy-decode S samples together; `per_model[i]` holds member i's
    encodings of them. Returns each sample's tokens and, when requested,
    its first-step memory trace from the first member."""
    config = _check_models(models, vocab)
    states = [m.encode(encs, collect_trace=collect_trace and index == 0)
              for index, (m, encs) in enumerate(zip(models, per_model))]
    live = list(range(len(per_model[0])))     # the sample decoded in each state row
    prefixes = [[BOS_ID] for _ in live]
    tokens: list[list[str]] = [[] for _ in live]
    traces: list[MemoryTrace | None] = [None] * len(live)
    for step in range(min(MAX_GENERATED, config.comlen - 1)):
        member_dists = []
        for index, (m, state) in enumerate(zip(models, states)):
            want_trace = collect_trace and step == 0 and index == 0
            dists, step_traces = m.next_dist(state, [prefixes[s] for s in live],
                                             collect_trace=want_trace)
            if step_traces:
                traces = step_traces
            member_dists.append(dists)
        kept = []
        for row, s in enumerate(live):
            masked = ensemble_distribution([d[row] for d in member_dists])
            masked[list(_BANNED_IDS)] = -1.0
            nxt = int(np.argmax(masked))
            if nxt != EOS_ID:
                tokens[s].append(vocab.decode(nxt))
                prefixes[s].append(nxt)
                kept.append(row)
        if not kept:
            break
        if len(kept) < len(live):
            states = [state.select(kept) for state in states]
            live = [live[row] for row in kept]
    return tokens, traces


def greedy_decode(models, encoded, vocab: Vocabulary,
                  collect_trace: bool = False) -> tuple[PredictionRecord, MemoryTrace | None]:
    """Decode one sample: start from [<s>]; at each step average every
    model's next-word distribution, take the argmax (ties to the lowest id),
    stop on </s> or after 12 generated tokens. Reserved non-terminal ids are
    never emitted. This is the one-sample case of the lockstep loop that
    predict_corpus runs over chunks.

    `encoded` is one EncodedSample shared by all members, or one per member
    when their code-side shapes differ. Returns the record plus the first
    decode step's memory trace of the first member when requested.
    """
    if isinstance(encoded, EncodedSample):
        per_model = [encoded] * len(models)
    else:
        per_model = list(encoded)
        if len(per_model) != len(models):
            raise UsageError(f"got {len(per_model)} encodings for {len(models)} models")
    tokens, traces = _decode_lockstep(models, [[enc] for enc in per_model], vocab,
                                      collect_trace)
    return PredictionRecord(per_model[0].sample_id, tokens[0]), traces[0]


def predict_corpus(models, samples: Sequence[Sample], code_vocab: Vocabulary,
                   sum_vocab: Vocabulary, out_path: str,
                   dump_gates_path: str | None = None) -> list[PredictionRecord]:
    """Decode every sample in input order, CHUNK_SAMPLES at a time in
    lockstep, and write the prediction file; optionally dump the first
    decode step's memory trace per sample (one line per hop: sample_id, hop
    index, n gate values)."""
    for m in models:
        if m.config.code_vocab_size != len(code_vocab):
            raise UsageError(
                f"model code vocabulary size {m.config.code_vocab_size} does not match "
                f"the vocabulary file ({len(code_vocab)} tokens)"
            )
    records = []
    gate_lines: list[str] = []
    for start in range(0, len(samples), CHUNK_SAMPLES):
        chunk = samples[start:start + CHUNK_SAMPLES]
        per_model = [[encode_sample(s, code_vocab, sum_vocab, m.config) for s in chunk]
                     for m in models]
        tokens, traces = _decode_lockstep(models, per_model, sum_vocab,
                                          collect_trace=dump_gates_path is not None)
        for sample, sample_tokens, trace in zip(chunk, tokens, traces):
            records.append(PredictionRecord(sample.sample_id, sample_tokens))
            if trace is not None:
                for hop in range(trace.gates.shape[0]):
                    values = " ".join(f"{v:.6f}" for v in trace.gates[hop])
                    gate_lines.append(f"{sample.sample_id}\t{hop}\t{values}")
    write_predictions(out_path, records)
    if dump_gates_path is not None:
        write_text(dump_gates_path, "".join(line + "\n" for line in gate_lines), "gate dump")
    return records


def write_predictions(path: str, records) -> None:
    write_text(path, "".join(f"{r.sample_id}\t{' '.join(r.tokens)}\n" for r in records),
               "predictions")


def read_predictions(path: str) -> dict[str, list[str]]:
    """Parse a prediction file into sample_id -> tokens, preserving order."""
    return {sid: tokens.split() for _, (sid, tokens) in read_records(path, "predictions", 2)}
