"""The statement-memory summarization network.

The wiring follows the classic attention seq2seq layout (token-encoder GRU,
summary-decoder GRU, dot-product attention, per-timestep relu projection,
flatten, dense softmax over the summary vocabulary) and adds an episodic
memory branch over per-statement vectors: each hop walks the statement list
once, a scalar gate decides how much each statement updates the running
memory, and the decoder attends over the stacked per-hop memories exactly
like it attends over encoder states. encoder_kind="attendgru_only" disables
the memory branch, leaving the plain seq2seq sub-network.

Statement vectors come from either a position-weighted bag of embeddings
(statement_encoding="positional") or the final state of a GRU read over the
statement's words ("eos"). The gate query is a constant vector
(gate_query="constant_q", every entry q_fill) or the decoder GRU's final
state ("summary_vector").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import ModelConfig
from .corpus import EncodedSample
from .errors import UsageError
from .params import ParameterSet, glorot_init, uniform_init
# gru_cell is not called: benchmarks/tracing.py hooks this name for its
# per-GRU metrics, which read 0 now that every recurrence is one
# gru_sequence call.
from .tensor import gru_cell  # noqa: F401
from .tensor import (
    GRUWeights,
    Tensor,
    attend,
    concat,
    constant,
    dense,
    embedding_lookup,
    episodic_gate,
    gru_sequence,
    no_grad,
    relu,
    reshape,
    slice_axis,
    softmax,
    weighted_bag,
)

def _param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    e, l = config.e_dim, config.l_dim
    specs: list[tuple[str, tuple[int, ...], str]] = [
        ("embed.code", (config.code_vocab_size, e), "embedding"),
        ("embed.summary", (config.summary_vocab_size, e), "embedding"),
    ]
    gru_names = ["enc_gru", "dec_gru"]
    if config.encoder_kind == "smn":
        gru_names.append("episodic_gru")
        if config.statement_encoding == "eos":
            gru_names.append("eos_gru")
    shapes = {"w": (e, l), "u": (l, l), "b": (l,)}
    specs += [(f"{gru}.{part}", shapes[part[0]], "bias" if part[0] == "b" else "weight")
              for gru in gru_names for part in GRUWeights._fields]
    ctx_width = 3 * l if config.encoder_kind == "smn" else 2 * l
    specs.append(("proj.w", (ctx_width, config.projection_dim), "weight"))
    specs.append(("proj.b", (config.projection_dim,), "bias"))
    specs.append(("out.w", (config.comlen * config.projection_dim, config.summary_vocab_size), "weight"))
    specs.append(("out.b", (config.summary_vocab_size,), "bias"))
    return specs


def parameter_count(config: ModelConfig) -> int:
    """Total trainable scalars; a pure function of the configuration."""
    return sum(math.prod(shape) for _, shape, _ in _param_specs(config))


def init_params(config: ModelConfig) -> ParameterSet:
    """Seeded init: embeddings uniform(-0.05, 0.05), weights Glorot-uniform,
    biases zero. The draw order is fixed, so identical configs give
    bitwise-identical parameters."""
    rng = np.random.default_rng(config.rng_seed)
    params = ParameterSet()
    for name, shape, kind in _param_specs(config):
        if kind == "embedding":
            params.add(name, uniform_init(rng, shape, -0.05, 0.05))
        elif kind == "weight":
            params.add(name, glorot_init(rng, shape))
        else:
            params.add(name, np.zeros(shape))
    return params


def gru_weights(params: ParameterSet, prefix: str) -> GRUWeights:
    return GRUWeights(*(params[f"{prefix}.{part}"] for part in GRUWeights._fields))


def positional_matrix(x_dim: int, y_len: int) -> np.ndarray:
    """Position-weight matrix with 1-based indices:

        P[x-1, y-1] = (1 - y/Y) - (x/X) * (1 - 2*y/Y)

    Column y=Y collapses to x/X and, for even Y, the middle column is the
    constant 0.5.
    """
    if x_dim < 1 or y_len < 1:
        raise UsageError(f"positional_matrix needs positive dims, got {x_dim}x{y_len}")
    xs = np.arange(1, x_dim + 1, dtype=np.float64)[:, None]
    ys = np.arange(1, y_len + 1, dtype=np.float64)[None, :]
    return (1.0 - ys / y_len) - (xs / x_dim) * (1.0 - 2.0 * ys / y_len)


@dataclass
class ModelInputs:
    """One batch of numpy-side model inputs (prefix-form summaries). The
    code side holds each distinct sample once; every batch row has its own
    summary and the row of its sample."""

    code_ids: np.ndarray       # [K, tdatlen] int64, K distinct samples
    stmt_ids: np.ndarray       # [K, n, Y] int64
    stmt_lengths: np.ndarray   # [K, n] int64
    summary_ids: np.ndarray    # [B, comlen] int64
    rows: np.ndarray           # [B] int64, each batch row's sample in [0, K)


def batch_inputs(samples: Sequence[EncodedSample],
                 summary_rows: Sequence[np.ndarray] | None = None) -> ModelInputs:
    """Stack each distinct sample (by identity) once, in first-seen order,
    and record the row of every entry; `summary_rows` overrides the stored
    summaries (used for teacher-forcing prefixes and decoding)."""
    first_row: dict[int, int] = {}
    rows = np.array([first_row.setdefault(id(s), len(first_row)) for s in samples],
                    dtype=np.int64)
    distinct = list({id(s): s for s in samples}.values())
    code = np.stack([s.code_ids for s in distinct])
    stmt = np.stack([s.stmt_ids for s in distinct])
    lens = np.stack([s.stmt_lengths for s in distinct])
    if summary_rows is None:
        summary = np.stack([s.summary_ids for s in samples])
    else:
        summary = np.stack(summary_rows)
    return ModelInputs(code, stmt, lens, summary, rows)


def prefix_row(prefix_ids: Sequence[int], comlen: int) -> np.ndarray:
    """Pad a decoder prefix out to comlen slots."""
    if len(prefix_ids) > comlen:
        raise UsageError(f"summary prefix of length {len(prefix_ids)} exceeds comlen {comlen}")
    row = np.zeros(comlen, dtype=np.int64)
    row[: len(prefix_ids)] = prefix_ids
    return row


def _length_mask(lengths: np.ndarray, depth: int) -> np.ndarray:
    # [*, depth] float mask of positions below the per-row length
    return (np.arange(depth) < np.asarray(lengths)[..., None]).astype(np.float64)


def encode_statements_positional(stmt_ids: np.ndarray, stmt_lengths: np.ndarray,
                                 embedding: Tensor, p_matrix: np.ndarray) -> Tensor:
    """F_t = sum over word positions y of emb(word) * P[:, y], restricted to
    the statement's true length; all-pad rows stay zero."""
    mask = _length_mask(stmt_lengths, stmt_ids.shape[2])          # [B, n, Y]
    return weighted_bag(embedding, stmt_ids, p_matrix.T, mask)    # [B, n, e]


def encode_statements_eos(stmt_ids: np.ndarray, stmt_lengths: np.ndarray,
                          embedding: Tensor, w: GRUWeights) -> Tensor:
    """F_t = final GRU state over the statement's words. The length mask
    gates the GRU, so a row's state is frozen past its true length and an
    empty row never moves from zero. The GRU runs once per distinct
    statement, keyed by its length and words, and each slot reads its
    statement's state; the empty slots share one all-zero key."""
    b, n, y = stmt_ids.shape
    flat_lengths = stmt_lengths.reshape(b * n)
    # later steps change nothing; with no statement at all one keeps every row 0
    steps = max(int(flat_lengths.max(initial=0)), 1)
    keys = np.column_stack([flat_lengths, stmt_ids.reshape(b * n, y)[:, :steps]])
    distinct, slot_rows = np.unique(keys, axis=0, return_inverse=True)
    emb = embedding_lookup(embedding, distinct[:, 1:])                        # [R, steps, e]
    states = gru_sequence(emb, w, gate=constant(_length_mask(distinct[:, 0], steps)))
    return embedding_lookup(slice_axis(states, 1, steps - 1), slot_rows.reshape(b, n))


def memory_hops(f: Tensor, q: Tensor, valid: np.ndarray, hops: int,
                w: GRUWeights, gate_squash: str) -> tuple[Tensor, np.ndarray]:
    """Run `hops` episodes over the statements [B, n, d]. Within a hop the
    episode memory m starts at zero and each statement t applies

        m <- a_t * GRU(F_t, m) + (1 - a_t) * m,    a_t = g_t * valid_t

    with every g_t of a hop gated against the previous hop's final memory
    (hop 1 against the zero memory), so a pad statement (valid [B, n] false)
    leaves m as it is. Returns the memory stack [B, hops, d] and the gates
    a [B, hops, n] (pad slots 0)."""
    if hops < 1:
        raise UsageError(f"hops must be >= 1, got {hops}")
    b, n, d = f.shape
    m = constant(np.zeros((b, d)))
    memories = []
    gates = np.zeros((b, hops, n))
    for i in range(hops):
        a = episodic_gate(f, q, m, valid, gate_squash == "sigmoid")   # [B, n]
        m = slice_axis(gru_sequence(f, w, gate=a), 1, n - 1)          # [B, d]
        memories.append(m)
        # a negative gate times a 0 mask is -0.0, which the dump would print
        gates[:, i] = np.where(valid, a.data, 0.0)
    return reshape(concat(memories, 1), (b, hops, d)), gates


@dataclass
class EncoderState:
    """The part of a forward pass that does not read the summary prefix, for
    K distinct samples; `rows` maps each row the head runs on to its sample."""

    h_enc: Tensor                       # [K, T, l] code-GRU states
    rows: np.ndarray                    # [B] each row's sample in [0, K)
    f: Tensor | None = None             # [K, k, d] statement vectors (smn), k <= n used slots
    valid: np.ndarray | None = None     # [K, k] real-statement mask (smn)
    mem: Tensor | None = None           # [K, h, d] memory stack (constant_q)
    gates: np.ndarray | None = None     # [K, h, k] gate values (constant_q)

    def select(self, rows: Sequence[int]) -> "EncoderState":
        """Rows `rows` of this state, in order, repeats allowed; no tensor is copied."""
        return replace(self, rows=self.rows[rows])


def encode(inputs: ModelInputs, params: ParameterSet, config: ModelConfig) -> EncoderState:
    """Code-GRU states and statement vectors of a batch (its summary slots
    are not read). Under the constant_q query the memory stack does not
    depend on the prefix either, so it is computed here too."""
    emb_code = embedding_lookup(params["embed.code"], inputs.code_ids)
    state = EncoderState(gru_sequence(emb_code, gru_weights(params, "enc_gru")), inputs.rows)
    if config.encoder_kind == "smn":
        # slots past the batch's last statement are pad steps of every hop,
        # which leave the memory exactly as it is; keep at least one slot
        filled = np.flatnonzero(inputs.stmt_lengths.any(axis=0))
        used = int(filled[-1]) + 1 if filled.size else 1
        stmt_ids, stmt_lengths = inputs.stmt_ids[:, :used], inputs.stmt_lengths[:, :used]
        if config.statement_encoding == "positional":
            p_matrix = positional_matrix(config.e_dim, config.y)
            state.f = encode_statements_positional(stmt_ids, stmt_lengths,
                                                   params["embed.code"], p_matrix)
        else:
            state.f = encode_statements_eos(stmt_ids, stmt_lengths, params["embed.code"],
                                            gru_weights(params, "eos_gru"))
        state.valid = stmt_lengths > 0
        if config.gate_query == "constant_q":
            q = constant(np.full((inputs.code_ids.shape[0], config.l_dim), config.q_fill))
            state.mem, state.gates = memory_hops(state.f, q, state.valid, config.h,
                                                 gru_weights(params, "episodic_gru"),
                                                 config.gate_squash)
    return state


def head(state: EncoderState, summary_ids: np.ndarray, params: ParameterSet,
         config: ModelConfig) -> tuple[Tensor, np.ndarray | None]:
    """Decoder GRU over the prefix-form summaries [B, comlen], attention over
    the code states and the memory stack, and the output layer; returns the
    [B, v] next-word distributions and the gates [B, h, n] (pad and trimmed
    slots 0; None without the memory branch). Under the summary_vector
    query the memory hops run here, gated against the decoder's final
    state."""
    b, rows = summary_ids.shape[0], state.rows
    emb_sum = embedding_lookup(params["embed.summary"], summary_ids)
    h_dec = gru_sequence(emb_sum, gru_weights(params, "dec_gru"))          # [B, C, l]

    gates = None
    parts = []
    parts.append(attend(h_dec, state.h_enc, rows))                          # ctx over code

    if config.encoder_kind == "smn":
        mem, gate_values = state.mem, state.gates
        if config.gate_query == "summary_vector":
            q = slice_axis(h_dec, 1, config.comlen - 1)                     # decoder final state
            mem, gate_values = memory_hops(embedding_lookup(state.f, rows), q, state.valid[rows],
                                           config.h, gru_weights(params, "episodic_gru"),
                                           config.gate_squash)
            rows = np.arange(b)
        parts.append(attend(h_dec, mem, rows))                               # ctx over memories
        gates = np.zeros((b, config.h, config.n))                  # trimmed pad slots read 0
        gates[:, :, :gate_values.shape[2]] = gate_values[rows]

    parts.append(h_dec)
    context = concat(parts, 2)
    proj = relu(dense(context, params["proj.w"], params["proj.b"]))
    flat = reshape(proj, (b, config.comlen * config.projection_dim))
    logits = dense(flat, params["out.w"], params["out.b"])
    return softmax(logits, axis=-1), gates


def _forward_batch(inputs: ModelInputs, params: ParameterSet,
                   config: ModelConfig) -> tuple[Tensor, np.ndarray | None]:
    """Batched forward pass: encode each distinct sample once and run the
    head on the batch rows; returns the [B, v] next-word distributions and
    the [B, h, n] gates (see `head`)."""
    return head(encode(inputs, params, config), inputs.summary_ids, params, config)


def forward(encoded: EncodedSample, params: ParameterSet,
            config: ModelConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """Next-word distribution [v] for one sample whose summary slots hold
    the prefix generated so far (pad after the prefix), and its gates
    [h, n] (None without the memory branch)."""
    if encoded.summary_ids.shape != (config.comlen,):
        raise UsageError(
            f"summary prefix shape {encoded.summary_ids.shape} does not match comlen {config.comlen}"
        )
    with no_grad():
        dists, gates = _forward_batch(batch_inputs([encoded]), params, config)
    return dists.data[0].copy(), None if gates is None else gates[0]
