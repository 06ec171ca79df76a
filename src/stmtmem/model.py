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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ModelConfig
from .corpus import EncodedSample, StatementMatrix
from .errors import UsageError
from .params import ParameterSet, glorot_init, uniform_init
from .tensor import (
    GRUWeights,
    Tensor,
    add,
    add_const,
    broadcast_to,
    concat,
    constant,
    embedding_lookup,
    episodic_gate,
    gru_cell,
    matmul,
    mul,
    neg,
    no_grad,
    relu,
    reshape,
    slice_axis,
    softmax,
    stack,
    sum_axis,
    transpose_last2,
    zeros,
)

_GRU_PARTS = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")


@dataclass
class MemoryTrace:
    """Per-hop memory vectors and per-statement gate values (pad slots 0)."""

    memories: np.ndarray   # [h, l_dim]
    gates: np.ndarray      # [h, n]


@dataclass
class ForwardOutput:
    next_word_dist: np.ndarray          # [v], sums to 1
    trace: MemoryTrace | None = None


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
    for gru in gru_names:
        for part in _GRU_PARTS:
            if part.startswith("w"):
                specs.append((f"{gru}.{part}", (e, l), "weight"))
            elif part.startswith("u"):
                specs.append((f"{gru}.{part}", (l, l), "weight"))
            else:
                specs.append((f"{gru}.{part}", (l,), "bias"))
    ctx_width = 3 * l if config.encoder_kind == "smn" else 2 * l
    specs.append(("proj.w", (ctx_width, config.projection_dim), "weight"))
    specs.append(("proj.b", (config.projection_dim,), "bias"))
    specs.append(("out.w", (config.comlen * config.projection_dim, config.summary_vocab_size), "weight"))
    specs.append(("out.b", (config.summary_vocab_size,), "bias"))
    return specs


def parameter_count(config: ModelConfig) -> int:
    """Total trainable scalars; a pure function of the configuration."""
    return sum(int(np.prod(shape)) for _, shape, _ in _param_specs(config))


def init_params(config: ModelConfig) -> ParameterSet:
    """Seeded init: embeddings uniform(-0.05, 0.05), weights Glorot-uniform,
    biases zero. The draw order is fixed, so identical configs give
    bitwise-identical parameters."""
    rng = np.random.default_rng(config.rng_seed)
    params = ParameterSet(config.rng_seed)
    for name, shape, kind in _param_specs(config):
        if kind == "embedding":
            params.add(name, uniform_init(rng, shape, -0.05, 0.05))
        elif kind == "weight":
            params.add(name, glorot_init(rng, shape))
        else:
            params.add(name, np.zeros(shape))
    return params


def gru_weights(params: ParameterSet, prefix: str) -> GRUWeights:
    return GRUWeights(*(params[f"{prefix}.{part}"] for part in _GRU_PARTS))


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
    """One batch of numpy-side model inputs (prefix-form summaries)."""

    code_ids: np.ndarray       # [B, tdatlen] int64
    stmt_ids: np.ndarray       # [B, n, Y] int64
    stmt_lengths: np.ndarray   # [B, n] int64
    summary_ids: np.ndarray    # [B, comlen] int64


def batch_inputs(samples: Sequence[EncodedSample],
                 summary_rows: Sequence[np.ndarray] | None = None) -> ModelInputs:
    """Stack encoded samples; `summary_rows` overrides the stored summaries
    (used for teacher-forcing prefixes and decoding)."""
    code = np.stack([s.code_ids for s in samples])
    stmt = np.stack([s.statements.ids for s in samples])
    lens = np.stack([s.statements.lengths for s in samples])
    if summary_rows is None:
        summary = np.stack([s.summary_ids for s in samples])
    else:
        summary = np.stack(summary_rows)
    return ModelInputs(code, stmt, lens, summary)


def prefix_row(prefix_ids: Sequence[int], comlen: int) -> np.ndarray:
    """Pad a decoder prefix out to comlen slots."""
    if len(prefix_ids) > comlen:
        raise UsageError(f"summary prefix of length {len(prefix_ids)} exceeds comlen {comlen}")
    row = np.zeros(comlen, dtype=np.int64)
    row[: len(prefix_ids)] = prefix_ids
    return row


def _run_gru(seq_emb: Tensor, w: GRUWeights, l_dim: int) -> Tensor:
    """Unroll a GRU over axis 1 of [B, T, e]; returns all states [B, T, l]."""
    batch, steps = seq_emb.shape[0], seq_emb.shape[1]
    state = zeros((batch, l_dim))
    states = []
    for t in range(steps):
        state = gru_cell(slice_axis(seq_emb, 1, t), state, w)
        states.append(state)
    return stack(states, 1)


def _length_mask(lengths: np.ndarray, depth: int) -> np.ndarray:
    # [*, depth] float mask of positions below the per-row length
    return (np.arange(depth) < np.asarray(lengths)[..., None]).astype(np.float64)


def _encode_statements_positional(stmt_ids: np.ndarray, stmt_lengths: np.ndarray,
                                  embedding: Tensor, p_matrix: np.ndarray) -> Tensor:
    """F_t = sum over word positions y of emb(word) * P[:, y], restricted to
    the statement's true length; all-pad rows stay zero."""
    b, n, y = stmt_ids.shape
    e = embedding.shape[1]
    emb = embedding_lookup(embedding, stmt_ids)                   # [B, n, Y, e]
    pos = broadcast_to(constant(p_matrix.T), (b, n, y, e))        # P'[y, x] per word slot
    mask = broadcast_to(constant(_length_mask(stmt_lengths, y)[..., None]), (b, n, y, e))
    return sum_axis(mul(mul(emb, pos), mask), 2)                  # [B, n, e]


def _encode_statements_eos(stmt_ids: np.ndarray, stmt_lengths: np.ndarray,
                           embedding: Tensor, w: GRUWeights, l_dim: int) -> Tensor:
    """F_t = final GRU state over the statement's words (state frozen past
    each row's true length; empty rows never update, so they stay zero)."""
    b, n, y = stmt_ids.shape
    flat_ids = stmt_ids.reshape(b * n, y)
    flat_lengths = stmt_lengths.reshape(b * n)
    emb = embedding_lookup(embedding, flat_ids)                   # [B*n, Y, e]
    state = zeros((b * n, l_dim))
    steps = int(flat_lengths.max(initial=0))
    for yy in range(steps):
        nxt = gru_cell(slice_axis(emb, 1, yy), state, w)
        alive = broadcast_to(constant((flat_lengths > yy).astype(np.float64)[:, None]),
                             (b * n, l_dim))
        state = add(mul(alive, nxt), mul(add_const(neg(alive), 1.0), state))
    return reshape(state, (b, n, l_dim))


def _memory_hops_batch(f: Tensor, q: Tensor, valid: np.ndarray, hops: int,
                       w: GRUWeights, gate_squash: str,
                       collect_gates: bool = False) -> tuple[Tensor, np.ndarray | None]:
    """Run `hops` episodes over the statements [B, n, d]. Within a hop the
    episode memory m starts at zero and each real statement t applies

        m <- g_t * GRU(F_t, m) + (1 - g_t) * m

    with g_t gated against the previous hop's final memory (hop 1 gates
    against the zero memory). Pad statements are skipped entirely."""
    b, n, d = f.shape
    m_prev = zeros((b, d))
    memories = []
    gates = np.zeros((b, hops, n)) if collect_gates else None
    live_cols = np.flatnonzero(valid.any(axis=0))
    last_t = int(live_cols[-1]) + 1 if live_cols.size else 0
    for i in range(hops):
        m = zeros((b, d))
        for t in range(last_t):
            f_t = slice_axis(f, 1, t)
            g = episodic_gate(f_t, q, m_prev, squash=gate_squash == "sigmoid")   # [B, 1]
            gb = broadcast_to(g, (b, d))
            updated = add(mul(gb, gru_cell(f_t, m, w)), mul(add_const(neg(gb), 1.0), m))
            alive = broadcast_to(constant(valid[:, t:t + 1].astype(np.float64)), (b, d))
            m = add(mul(alive, updated), mul(add_const(neg(alive), 1.0), m))
            if collect_gates:
                gates[:, i, t] = g.data[:, 0] * valid[:, t]
        memories.append(m)
        m_prev = m
    return stack(memories, 1), gates                              # [B, h, d]


@dataclass
class EncoderState:
    """The part of a forward pass that does not read the summary prefix,
    computed once per batch of samples and shared by every decode step."""

    h_enc: Tensor                       # [B, T, l] code-GRU states
    f: Tensor | None = None             # [B, n, d] statement vectors (smn)
    valid: np.ndarray | None = None     # [B, n] real-statement mask (smn)
    mem: Tensor | None = None           # [B, h, d] memory stack (constant_q)
    gates: np.ndarray | None = None     # [B, h, n] gate values (constant_q, when collected)


def _memory(f: Tensor, q: Tensor, valid: np.ndarray, params: ParameterSet,
            config: ModelConfig, collect_trace: bool) -> tuple[Tensor, np.ndarray | None]:
    return _memory_hops_batch(f, q, valid, config.h, gru_weights(params, "episodic_gru"),
                              config.gate_squash, collect_gates=collect_trace)


def encode(inputs: ModelInputs, params: ParameterSet, config: ModelConfig,
           collect_trace: bool = False) -> EncoderState:
    """Code-GRU states and statement vectors of a batch (its summary slots
    are not read). Under the constant_q query the memory stack does not
    depend on the prefix either, so it is computed here too."""
    l = config.l_dim
    emb_code = embedding_lookup(params["embed.code"], inputs.code_ids)
    state = EncoderState(h_enc=_run_gru(emb_code, gru_weights(params, "enc_gru"), l))
    if config.encoder_kind == "smn":
        if config.statement_encoding == "positional":
            p_matrix = positional_matrix(config.e_dim, config.y)
            state.f = _encode_statements_positional(inputs.stmt_ids, inputs.stmt_lengths,
                                                    params["embed.code"], p_matrix)
        else:
            state.f = _encode_statements_eos(inputs.stmt_ids, inputs.stmt_lengths,
                                             params["embed.code"],
                                             gru_weights(params, "eos_gru"), l)
        state.valid = inputs.stmt_lengths > 0
        if config.gate_query == "constant_q":
            q = constant(np.full((inputs.code_ids.shape[0], l), config.q_fill))
            state.mem, state.gates = _memory(state.f, q, state.valid, params, config,
                                             collect_trace)
    return state


def head(state: EncoderState, summary_ids: np.ndarray, params: ParameterSet,
         config: ModelConfig,
         collect_trace: bool = False) -> tuple[Tensor, list[MemoryTrace] | None]:
    """Decoder GRU over the prefix-form summaries [B, comlen], attention over
    the code states and the memory stack, and the output layer; returns the
    [B, v] next-word distributions. Under the summary_vector query the
    memory hops run here, gated against the decoder's final state."""
    b = summary_ids.shape[0]
    emb_sum = embedding_lookup(params["embed.summary"], summary_ids)
    h_dec = _run_gru(emb_sum, gru_weights(params, "dec_gru"), config.l_dim)   # [B, C, l]

    traces = None
    parts = []
    attn_code = softmax(matmul(h_dec, transpose_last2(state.h_enc)), axis=-1)
    parts.append(matmul(attn_code, state.h_enc))                            # ctx over code

    if config.encoder_kind == "smn":
        mem, gate_values = state.mem, state.gates
        if config.gate_query == "summary_vector":
            q = slice_axis(h_dec, 1, config.comlen - 1)                     # decoder final state
            mem, gate_values = _memory(state.f, q, state.valid, params, config, collect_trace)
        attn_mem = softmax(matmul(h_dec, transpose_last2(mem)), axis=-1)
        parts.append(matmul(attn_mem, mem))                                 # ctx over memories
        if collect_trace:
            if gate_values is None:
                raise UsageError("the encoder state was built without collect_trace")
            traces = [MemoryTrace(memories=mem.data[i].copy(), gates=gate_values[i].copy())
                      for i in range(b)]

    parts.append(h_dec)
    context = concat(parts, 2)
    proj = relu(add(matmul(context, params["proj.w"]),
                    broadcast_to(params["proj.b"], (b, config.comlen, config.projection_dim))))
    flat = reshape(proj, (b, config.comlen * config.projection_dim))
    logits = add(matmul(flat, params["out.w"]),
                 broadcast_to(params["out.b"], (b, config.summary_vocab_size)))
    return softmax(logits, axis=-1), traces


def _forward_batch(inputs: ModelInputs, params: ParameterSet, config: ModelConfig,
                   collect_trace: bool = False) -> tuple[Tensor, list[MemoryTrace] | None]:
    """Batched forward pass; returns the [B, v] next-word distributions."""
    return head(encode(inputs, params, config, collect_trace), inputs.summary_ids,
                params, config, collect_trace)


def forward(encoded: EncodedSample, params: ParameterSet, config: ModelConfig,
            collect_trace: bool = False) -> ForwardOutput:
    """Next-word distribution for one sample whose summary slots hold the
    prefix generated so far (pad after the prefix)."""
    if encoded.summary_ids.shape != (config.comlen,):
        raise UsageError(
            f"summary prefix shape {encoded.summary_ids.shape} does not match comlen {config.comlen}"
        )
    with no_grad():
        dists, traces = _forward_batch(batch_inputs([encoded]), params, config,
                                       collect_trace=collect_trace)
    return ForwardOutput(next_word_dist=dists.data[0].copy(),
                         trace=traces[0] if traces else None)


def encode_statements_positional(statements: StatementMatrix, embedding: Tensor,
                                 p_matrix: np.ndarray) -> Tensor:
    """Single-sample statement encoding, [n, e_dim]; pad rows are zero."""
    n, y = statements.ids.shape
    out = _encode_statements_positional(statements.ids[None], statements.lengths[None],
                                        embedding, p_matrix)
    return reshape(out, (n, embedding.shape[1]))


def encode_statements_eos(statements: StatementMatrix, embedding: Tensor,
                          w: GRUWeights) -> Tensor:
    """Single-sample EOS statement encoding, [n, l_dim]; pad rows are zero."""
    n, y = statements.ids.shape
    l_dim = w.uz.shape[0]
    out = _encode_statements_eos(statements.ids[None], statements.lengths[None],
                                 embedding, w, l_dim)
    return reshape(out, (n, l_dim))


def gate(f_k: Tensor, q: Tensor, m_prev: Tensor, gate_squash: str = "none") -> Tensor:
    """Scalar gate for one statement vector against the query and the
    previous memory."""
    if not (f_k.shape == q.shape == m_prev.shape) or f_k.ndim != 1:
        raise UsageError(
            f"gate expects three equal-length vectors, got {f_k.shape}, {q.shape}, {m_prev.shape}"
        )
    d = f_k.shape[0]
    g = episodic_gate(reshape(f_k, (1, d)), reshape(q, (1, d)), reshape(m_prev, (1, d)),
                      squash=gate_squash == "sigmoid")
    return reshape(g, ())


def memory_hops(f: Tensor, q: Tensor, hops: int, w: GRUWeights, statement_count: int,
                gate_squash: str = "none") -> MemoryTrace:
    """Single-sample memory trace: exactly `hops` memory rows regardless of
    how many statements are real; statements beyond statement_count are
    skipped."""
    if hops < 1:
        raise UsageError(f"hops must be >= 1, got {hops}")
    n, d = f.shape
    valid = (np.arange(n) < statement_count)[None, :]
    with no_grad():
        mem, gates = _memory_hops_batch(reshape(f, (1, n, d)), reshape(q, (1, d)), valid,
                                        hops, w, gate_squash, collect_gates=True)
    return MemoryTrace(memories=mem.data[0].copy(), gates=gates[0].copy())
