"""Greedy autoregressive decoding and mean-softmax ensembling.

Ensembles average the member models' next-word probability vectors with
equal weights at every step; members are trained independently and only
combined at prediction time. Members must agree on the summary vocabulary
and comlen; code-side shapes may differ, so each member decodes from its
own encoding of the sample, which members that encode alike share. Samples
decode in lockstep chunks: a member encodes a chunk once
(`LoadedModel.encode`); each step runs its decoder head once over the rows
still decoding (`LoadedModel.next_dist`). A one-row matmul takes another
BLAS path than a row of a larger batch, so a batched row's distributions
match its one-row ones within 1e-9, not bitwise.

Prediction file (bit-exact contract): one line per sample, UTF-8:
    sample_id<TAB>predicted tokens space-separated
An empty prediction leaves the second field empty.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    encoding_key,
    read_records,
    write_text,
)
from .errors import DimensionError, UsageError
from .model import EncoderState, batch_inputs, encode, forward, head, prefix_row
from .params import ParameterSet
from .tensor import no_grad

MAX_GENERATED = 12
CHUNK_SAMPLES = 100       # samples decoded in lockstep by predict_corpus
_BANNED_IDS = (PAD_ID, BOS_ID, UNK_ID)


@dataclass
class LoadedModel:
    params: ParameterSet
    config: ModelConfig

    def encode(self, encoded: Sequence[EncodedSample]) -> EncoderState:
        """The samples' prefix-independent state, one row per sample."""
        with no_grad():
            return encode(batch_inputs(encoded), self.params, self.config)

    def next_dist(self, state: EncoderState,
                  prefixes) -> tuple[np.ndarray, np.ndarray | None]:
        """Next-word distributions [B, v] after each row's prefix, and the
        gates [B, h, n] (None without the memory branch)."""
        rows = np.stack([prefix_row(p, self.config.comlen) for p in prefixes])
        with no_grad():
            dists, gates = head(state, rows, self.params, self.config)
        return dists.data, gates

    def predict_dist(self, encoded: EncodedSample,
                     prefix_ids) -> tuple[np.ndarray, np.ndarray | None]:
        """The one-sample forward pass after `prefix_ids`."""
        row = prefix_row(prefix_ids, self.config.comlen)
        return forward(replace(encoded, summary_ids=row), self.params, self.config)


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
        if not abs(float(d.sum()) - 1.0) <= 1e-9:       # NaN sums fail too
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


def _decode_lockstep(models, per_model,
                     vocab: Vocabulary) -> tuple[list[list[str]], np.ndarray | None]:
    """Greedy-decode S samples together; `per_model[i]` holds member i's
    encodings of them. Returns each sample's tokens and the first member's
    first-step gates [S, h, n] (None without the memory branch)."""
    config = _check_models(models, vocab)
    states = [m.encode(encs) for m, encs in zip(models, per_model)]
    live = list(range(len(per_model[0])))     # the sample decoded in each state row
    prefixes = [[BOS_ID] for _ in live]
    tokens: list[list[str]] = [[] for _ in live]
    gates = None
    for step in range(min(MAX_GENERATED, config.comlen - 1)):
        outputs = [m.next_dist(state, [prefixes[s] for s in live])
                   for m, state in zip(models, states)]
        member_dists = [dists for dists, _ in outputs]
        if step == 0:
            gates = outputs[0][1]
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
    return tokens, gates


def greedy_decode(models, encoded,
                  vocab: Vocabulary) -> tuple[PredictionRecord, np.ndarray | None]:
    """Decode one sample: start from [<s>]; at each step average every
    model's next-word distribution, take the argmax (ties to the lowest id),
    stop on </s> or after 12 generated tokens. Reserved non-terminal ids are
    never emitted. This is the one-sample case of the lockstep loop that
    predict_corpus runs over chunks.

    `encoded` is one EncodedSample shared by all members, or one per member
    when their code-side shapes differ. Returns the record and the first
    member's first-step gates [h, n] (None without the memory branch).
    """
    if isinstance(encoded, EncodedSample):
        per_model = [encoded] * len(models)
    else:
        per_model = list(encoded)
        if len(per_model) != len(models):
            raise UsageError(f"got {len(per_model)} encodings for {len(models)} models")
    tokens, gates = _decode_lockstep(models, [[enc] for enc in per_model], vocab)
    record = PredictionRecord(per_model[0].sample_id, tokens[0])
    return record, None if gates is None else gates[0]


def predict_corpus(models, samples: Sequence[Sample], code_vocab: Vocabulary,
                   sum_vocab: Vocabulary, out_path: str,
                   dump_gates_path: str | None = None) -> list[PredictionRecord]:
    """Decode every sample in input order, CHUNK_SAMPLES at a time in
    lockstep, and write the prediction file; members that encode alike
    share one encoding of each chunk. Optionally dump the first
    member's first-step gates per sample (one line per hop: sample_id, hop
    index, n gate values; no lines without the memory branch)."""
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
        configs = {encoding_key(m.config): m.config for m in models}
        encoded = {key: [encode_sample(s, code_vocab, sum_vocab, config) for s in chunk]
                   for key, config in configs.items()}
        per_model = [encoded[encoding_key(m.config)] for m in models]
        tokens, gates = _decode_lockstep(models, per_model, sum_vocab)
        records += [PredictionRecord(s.sample_id, t) for s, t in zip(chunk, tokens)]
        if dump_gates_path is not None and gates is not None:
            for sample, sample_gates in zip(chunk, gates):
                for hop, row in enumerate(sample_gates):
                    values = " ".join(f"{v:.6f}" for v in row)
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
