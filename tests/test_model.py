"""Model components: positional encoding, statement encoders, gate, memory
hops, and the full forward pass."""

import math
from dataclasses import replace

import numpy as np
import pytest

import stmtmem.model
from stmtmem import tensor as T
from stmtmem.corpus import EncodedSample
from stmtmem.errors import DimensionError, UsageError
from stmtmem.model import (
    ModelInputs,
    _forward_batch,
    _length_mask,
    batch_inputs,
    encode_statements_eos,
    encode_statements_positional,
    forward,
    init_params,
    memory_hops,
    parameter_count,
    positional_matrix,
    prefix_row,
)
from stmtmem.verify import model_variants, toy_config

import op_graph


def scalar_gru_weights(wz, uz, bz, wr, ur, br, wh, uh, bh, requires_grad=False):
    mk = lambda v, shape: T.Tensor(np.full(shape, float(v)), requires_grad=requires_grad)
    return T.GRUWeights(mk(wz, (1, 1)), mk(uz, (1, 1)), mk(bz, (1,)),
                        mk(wr, (1, 1)), mk(ur, (1, 1)), mk(br, (1,)),
                        mk(wh, (1, 1)), mk(uh, (1, 1)), mk(bh, (1,)))


def scalar_gru_step(x, h, wz, uz, bz, wr, ur, br, wh, uh, bh):
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    z = sig(wz * x + uz * h + bz)
    r = sig(wr * x + ur * h + br)
    hbar = math.tanh(wh * x + uh * (r * h) + bh)
    return z * h + (1.0 - z) * hbar


def random_gru_weights(rng, e, h):
    mk = lambda shape: T.Tensor(rng.uniform(-0.8, 0.8, shape))
    return T.GRUWeights(mk((e, h)), mk((h, h)), mk((h,)),
                        mk((e, h)), mk((h, h)), mk((h,)),
                        mk((e, h)), mk((h, h)), mk((h,)))


class TestPositionalMatrix:
    def test_closed_forms_at_paper_dims(self):
        x_dim, y_len = 100, 30
        p = positional_matrix(x_dim, y_len)
        xs = np.arange(1, x_dim + 1)
        np.testing.assert_allclose(p[:, -1], xs / x_dim, atol=1e-12)
        np.testing.assert_allclose(p[:, y_len // 2 - 1], 0.5, atol=1e-12)
        ys = np.arange(1, y_len + 1)
        np.testing.assert_allclose(p[-1, :], ys / y_len, atol=1e-12)

    def test_shape(self):
        assert positional_matrix(7, 4).shape == (7, 4)


class TestPositionalEncoding:
    def test_uniform_statement_row_sum(self):
        # Y identical words with all-ones embeddings: F_x = (Y-1)/2 + x/X.
        x_dim, y_len = 6, 4
        ids = np.full((1, 1, y_len), 5, dtype=np.int64)
        table = T.constant(np.ones((8, x_dim)))
        f = encode_statements_positional(ids, np.array([[y_len]]), table,
                                         positional_matrix(x_dim, y_len))
        xs = np.arange(1, x_dim + 1)
        np.testing.assert_allclose(f.data[0, 0], (y_len - 1) / 2 + xs / x_dim, atol=1e-12)

    def test_zero_embedding_gives_zero(self):
        table = T.constant(np.zeros((8, 4)))
        f = encode_statements_positional(np.array([[[1, 2, 3]]]), np.array([[3]]), table,
                                         positional_matrix(4, 3))
        np.testing.assert_array_equal(f.data[0], np.zeros((1, 4)))

    def test_word_in_final_slot_scales_by_x_over_X(self):
        # Only the word in slot Y has a nonzero embedding: F = emb * (x/X).
        x_dim, y_len = 5, 3
        table_data = np.zeros((8, x_dim))
        table_data[6] = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
        f = encode_statements_positional(np.array([[[7, 7, 6]]]), np.array([[3]]),
                                         T.constant(table_data), positional_matrix(x_dim, y_len))
        xs = np.arange(1, x_dim + 1)
        np.testing.assert_allclose(f.data[0, 0], table_data[6] * xs / x_dim, atol=1e-12)

    def test_pad_rows_are_zero(self):
        ids = np.zeros((1, 3, 4), dtype=np.int64)
        ids[0, 0, :2] = [1, 2]
        table = T.constant(np.random.default_rng(0).uniform(-1, 1, (8, 4)))
        f = encode_statements_positional(ids, np.array([[2, 0, 0]]), table,
                                         positional_matrix(4, 4))
        np.testing.assert_array_equal(f.data[0, 1:], np.zeros((2, 4)))

    def test_word_order_changes_statement_vector(self):
        rng = np.random.default_rng(1)
        table = T.constant(rng.uniform(-1, 1, (8, 4)))
        p = positional_matrix(4, 3)
        lengths = np.array([[2]])
        f_ab = encode_statements_positional(np.array([[[5, 6, 0]]]), lengths, table, p).data
        f_ba = encode_statements_positional(np.array([[[6, 5, 0]]]), lengths, table, p).data
        assert not np.allclose(f_ab, f_ba)


class TestEosEncoding:
    def test_zero_weights_give_zero(self):
        w = scalar_gru_weights(0, 0, 0, 0, 0, 0, 0, 0, 0)
        table = T.constant(np.ones((8, 1)))
        f = encode_statements_eos(np.array([[[3, 4, 3]]]), np.array([[3]]), table, w)
        np.testing.assert_array_equal(f.data[0], np.zeros((1, 1)))

    def test_no_statements_gives_zeros(self):
        w = scalar_gru_weights(0.3, 0.5, -0.1, 0.2, -0.4, 0.2, 0.7, 0.6, 0.05)
        table = T.constant(np.ones((8, 1)))
        f = encode_statements_eos(np.zeros((1, 2, 3), dtype=np.int64),
                                  np.zeros((1, 2), dtype=np.int64), table, w)
        np.testing.assert_array_equal(f.data[0], np.zeros((2, 1)))

    def test_two_word_statement_matches_hand_unroll(self):
        args = (0.3, 0.5, -0.1, 0.2, -0.4, 0.2, 0.7, 0.6, 0.05)
        w = scalar_gru_weights(*args)
        table_data = np.zeros((8, 1))
        table_data[3, 0] = 0.9
        table_data[4, 0] = -0.4
        f = encode_statements_eos(np.array([[[3, 4, 0]]]), np.array([[2]]),
                                  T.constant(table_data), w)
        h1 = scalar_gru_step(0.9, 0.0, *args)
        h2 = scalar_gru_step(-0.4, h1, *args)
        np.testing.assert_allclose(f.data[0, 0, 0], h2, atol=1e-12)

    def test_repeated_statements_match_per_slot_encoding(self, monkeypatch):
        # statement [5, 2, 7] fills two slots of sample 0 and one of sample
        # 1; [5, 2] shares its first words but not its length; 3 slots are empty
        a, b, c, a_prefix = [5, 2, 7], [3, 8], [1, 4, 6, 2], [5, 2]
        rows = [[a, b, a, [], a_prefix], [a, c, [], b, []]]
        ids = np.zeros((2, 5, 6), dtype=np.int64)
        lengths = np.zeros((2, 5), dtype=np.int64)
        for k, sample in enumerate(rows):
            for i, words in enumerate(sample):
                ids[k, i, :len(words)], lengths[k, i] = words, len(words)
        rng = np.random.default_rng(13)
        table_data = rng.uniform(-1, 1, (9, 3))
        weight_data = [rng.uniform(-0.8, 0.8, s) for s in [(3, 4), (4, 4), (4,)] * 3]
        projection = T.constant(rng.uniform(0.5, 1.5, (2, 5, 4)))

        def per_slot(table, w):
            steps = int(lengths.max())
            emb = T.embedding_lookup(table, ids.reshape(10, 6)[:, :steps])
            states = T.gru_sequence(emb, w, gate=T.constant(_length_mask(lengths.reshape(10),
                                                                         steps)))
            return T.reshape(T.slice_axis(states, 1, steps - 1), (2, 5, 4))

        gru_rows = []

        def counted(x, *args, **kwargs):
            gru_rows.append(x.shape[0])
            return T.gru_sequence(x, *args, **kwargs)

        monkeypatch.setattr(stmtmem.model, "gru_sequence", counted)
        results = []
        for encode in (lambda table, w: encode_statements_eos(ids, lengths, table, w), per_slot):
            table = T.Tensor(table_data, requires_grad=True)
            w = T.GRUWeights(*(T.Tensor(p, requires_grad=True) for p in weight_data))
            f = encode(table, w)
            op_graph.sum_all(op_graph.mul(f, projection)).backward()
            results.append([f.data, table.grad] + [p.grad for p in w])
        mine, theirs = results
        assert gru_rows == [5]                      # a, b, c, [5, 2] and the empty slot
        assert_within(mine[0], theirs[0])
        empty = mine[0][lengths == 0]
        assert not empty.any() and not np.signbit(empty).any()
        for got, want in zip(mine[1:], theirs[1:]):
            assert_within(got, want)


def gate_value(f, q, m, squash=False):
    """The episodic gate of one statement vector, as a float."""
    f, q, m = (np.asarray(v, dtype=np.float64) for v in (f, q, m))
    g = T.episodic_gate(T.constant(f[None, None]), T.constant(q[None]), T.constant(m[None]),
                        np.ones((1, 1)), squash=squash)
    return float(g.data[0, 0])


class TestGate:
    def test_zero_everything(self):
        zero = np.zeros(3)
        assert gate_value(zero, zero, zero) == 0.0

    def test_hand_computed_value(self):
        g = gate_value([1.0], [0.1], [0.0])
        expected = math.tanh(0.1) + math.tanh(0.0) + math.tanh(0.9) + math.tanh(1.0)
        assert g == pytest.approx(expected, abs=1e-12)
        assert g == pytest.approx(1.57756, abs=5e-6)

    def test_simultaneous_sign_flip_invariance(self):
        rng = np.random.default_rng(2)
        f, q, m = (rng.uniform(-1, 1, 5) for _ in range(3))
        g_pos = gate_value(f, q, m)
        g_neg = gate_value(-f, -q, -m)
        assert g_pos == pytest.approx(g_neg, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gate_value(np.zeros(3), np.zeros(2), np.zeros(3))

    def test_unbounded_by_default_sigmoid_squash_optional(self):
        f = np.full(8, 3.0)
        q = np.full(8, -3.0)
        m = np.zeros(8)
        raw = gate_value(f, q, m)
        assert raw > 1.0
        squashed = gate_value(f, q, m, squash=True)
        assert 0.0 < squashed < 1.0


def one_sample_hops(f, q, hops, w, statement_count,
                    gate_squash="none") -> tuple[np.ndarray, np.ndarray]:
    """memory_hops on a one-sample batch: statement vectors f [n, d], query
    q [d], statements past statement_count padding. Returns the memory rows
    [hops, d] and the gates [hops, n]."""
    f = np.asarray(f, dtype=np.float64)
    valid = (np.arange(f.shape[0]) < statement_count)[None, :]
    mem, gates = memory_hops(T.constant(f[None]), T.constant(np.asarray(q, dtype=np.float64)[None]),
                             valid, hops, w, gate_squash)
    return mem.data[0], gates[0]


class TestMemoryHops:
    def weights(self):
        return scalar_gru_weights(0.3, 0.5, -0.1, 0.2, -0.4, 0.2, 0.7, 0.6, 0.05)

    def test_zero_inputs_give_zero_memories(self):
        w = random_gru_weights(np.random.default_rng(3), 4, 4)
        memories, gates = one_sample_hops(np.zeros((3, 4)), np.zeros(4), 3, w, statement_count=3)
        np.testing.assert_array_equal(memories, np.zeros((3, 4)))
        np.testing.assert_array_equal(gates, np.zeros((3, 3)))

    @pytest.mark.parametrize("hops", [1, 2, 3, 4, 5])
    def test_exactly_h_memory_rows(self, hops):
        rng = np.random.default_rng(hops)
        w = random_gru_weights(rng, 4, 4)
        f = rng.uniform(-1, 1, (2, 4))
        memories, gates = one_sample_hops(f, np.full(4, 0.1), hops, w, statement_count=2)
        assert memories.shape == (hops, 4)
        assert gates.shape == (hops, 2)

    def test_one_dim_hand_unroll(self):
        args = (0.3, 0.5, -0.1, 0.2, -0.4, 0.2, 0.7, 0.6, 0.05)
        w = scalar_gru_weights(*args)
        f1, f2, qv = 0.8, -0.6, 0.1
        memories, gates = one_sample_hops([[f1], [f2]], [qv], 1, w, statement_count=2)

        def hand_gate(fv, q, m):
            return (math.tanh(fv * q) + math.tanh(fv * m)
                    + math.tanh(abs(fv - q)) + math.tanh(abs(fv - m)))

        m = 0.0
        g1 = hand_gate(f1, qv, 0.0)
        m = g1 * scalar_gru_step(f1, m, *args) + (1 - g1) * m
        g2 = hand_gate(f2, qv, 0.0)
        m = g2 * scalar_gru_step(f2, m, *args) + (1 - g2) * m
        assert memories[0, 0] == pytest.approx(m, abs=1e-12)
        assert gates[0, 0] == pytest.approx(g1, abs=1e-12)
        assert gates[0, 1] == pytest.approx(g2, abs=1e-12)

    def test_gate_queries_previous_hop_memory(self):
        args = (0.3, 0.5, -0.1, 0.2, -0.4, 0.2, 0.7, 0.6, 0.05)
        w = scalar_gru_weights(*args)
        f1, qv = 0.8, 0.1
        memories, gates = one_sample_hops([[f1]], [qv], 2, w, statement_count=1)

        def hand_gate(fv, q, m):
            return (math.tanh(fv * q) + math.tanh(fv * m)
                    + math.tanh(abs(fv - q)) + math.tanh(abs(fv - m)))

        g1 = hand_gate(f1, qv, 0.0)
        m1 = g1 * scalar_gru_step(f1, 0.0, *args)
        g2 = hand_gate(f1, qv, m1)
        m2 = g2 * scalar_gru_step(f1, 0.0, *args)
        assert memories[0, 0] == pytest.approx(m1, abs=1e-12)
        assert memories[1, 0] == pytest.approx(m2, abs=1e-12)
        assert gates[1, 0] == pytest.approx(g2, abs=1e-12)

    def test_pad_statements_are_inert(self):
        rng = np.random.default_rng(17)
        w = random_gru_weights(rng, 3, 3)
        for _ in range(200):
            real = rng.uniform(-2, 2, (2, 3))
            pad_a = rng.uniform(-5, 5, (2, 3))
            pad_b = rng.uniform(-5, 5, (2, 3))
            q = rng.uniform(-1, 1, 3)
            f_a = np.vstack([real, pad_a])
            f_b = np.vstack([real, pad_b])
            mem_a, gates_a = one_sample_hops(f_a, q, 2, w, statement_count=2)
            mem_b, _ = one_sample_hops(f_b, q, 2, w, statement_count=2)
            assert mem_a.tobytes() == mem_b.tobytes()
            assert (gates_a[:, 2:] == 0).all()

    def test_statement_order_matters(self):
        rng = np.random.default_rng(23)
        w = random_gru_weights(rng, 3, 3)
        a = rng.uniform(-1, 1, 3)
        b = rng.uniform(-1, 1, 3)
        q = np.full(3, 0.1)
        m_ab, _ = one_sample_hops(np.vstack([a, b]), q, 1, w, 2)
        m_ba, _ = one_sample_hops(np.vstack([b, a]), q, 1, w, 2)
        assert not np.allclose(m_ab, m_ba)

    @pytest.mark.parametrize("squash", ["none", "sigmoid"])
    def test_trailing_pad_slots_change_nothing(self, squash):
        # encode drops the slots past the batch's last statement; the hops
        # over the trimmed statements give the same bytes
        rng = np.random.default_rng(29)
        w = random_gru_weights(rng, 4, 4)
        f = rng.uniform(-2, 2, (4, 6, 4))
        q = T.constant(rng.uniform(-1, 1, (4, 4)))
        valid = np.arange(6) < np.array([3, 1, 0, 2])[:, None]
        mem, gates = memory_hops(T.constant(f), q, valid, 3, w, squash)
        mem_k, gates_k = memory_hops(T.constant(f[:, :3]), q, valid[:, :3], 3, w, squash)
        assert mem.data.tobytes() == mem_k.data.tobytes()
        assert gates[..., :3].tobytes() == gates_k.tobytes()
        assert gates_k.any() and not gates[..., 3:].any()

    def test_hops_must_be_positive(self):
        w = self.weights()
        with pytest.raises(UsageError):
            one_sample_hops([[1.0]], [0.1], 0, w, 1)


def toy_sample(config, rng) -> EncodedSample:
    code = rng.integers(0, config.code_vocab_size, size=config.tdatlen)
    stmt = np.zeros((config.n, config.y), dtype=np.int64)
    lengths = np.zeros(config.n, dtype=np.int64)
    count = int(rng.integers(1, config.n + 1))
    for i in range(count):
        lengths[i] = int(rng.integers(1, config.y + 1))
        stmt[i, :lengths[i]] = rng.integers(4, config.code_vocab_size, size=lengths[i])
    summary = np.zeros(config.comlen, dtype=np.int64)
    summary[0] = 1
    summary[1] = int(rng.integers(4, config.summary_vocab_size))
    return EncodedSample("toy", code, stmt, lengths, summary)


class TestForward:
    def test_distribution_is_normalized(self):
        cfg = toy_config()
        rng = np.random.default_rng(0)
        params = init_params(cfg)
        dist, _ = forward(toy_sample(cfg, rng), params, cfg)
        assert dist.shape == (cfg.summary_vocab_size,)
        assert abs(dist.sum() - 1.0) < 1e-9
        assert (dist >= 0).all()

    def test_fuzzed_outputs_are_distributions(self):
        cfg = toy_config()
        params = init_params(cfg)
        rng = np.random.default_rng(99)
        for _ in range(1000):
            dist, _ = forward(toy_sample(cfg, rng), params, cfg)
            assert abs(dist.sum() - 1.0) < 1e-9
            assert (dist >= 0).all()

    def test_attendgru_is_a_strict_submodel(self):
        cfg = toy_config()
        sub = replace(cfg, encoder_kind="attendgru_only")
        assert parameter_count(sub) < parameter_count(cfg)

    def test_eos_variant_has_its_own_weights(self):
        cfg = toy_config()
        eos = replace(cfg, statement_encoding="eos")
        assert parameter_count(eos) > parameter_count(cfg)

    def test_parameter_count_matches_materialized_params(self):
        for cfg in (toy_config(), replace(toy_config(), encoder_kind="attendgru_only"),
                    replace(toy_config(), statement_encoding="eos")):
            assert sum(t.size for _, t in init_params(cfg).items()) == parameter_count(cfg)

    def test_hop_count_does_not_change_parameter_count(self):
        counts = {parameter_count(replace(toy_config(), h=h)) for h in (1, 2, 3, 4, 5)}
        assert len(counts) == 1

    def test_overlong_prefix_rejected(self):
        cfg = toy_config()
        with pytest.raises(UsageError):
            prefix_row(list(range(cfg.comlen + 1)), cfg.comlen)
        rng = np.random.default_rng(0)
        sample = toy_sample(cfg, rng)
        bad = replace(sample, summary_ids=np.zeros(cfg.comlen + 2, dtype=np.int64))
        with pytest.raises(UsageError):
            forward(bad, init_params(cfg), cfg)

    def test_gates_are_returned_with_pad_slots_zero(self):
        cfg = toy_config()
        rng = np.random.default_rng(1)
        sample = toy_sample(replace(cfg, n=cfg.n - 1), rng)    # the last slot stays empty
        sample.stmt_ids = np.vstack([sample.stmt_ids, np.zeros((1, cfg.y), np.int64)])
        sample.stmt_lengths = np.append(sample.stmt_lengths, 0)
        _, gates = forward(sample, init_params(cfg), cfg)
        assert gates.shape == (cfg.h, cfg.n)
        count = np.count_nonzero(sample.stmt_lengths)
        assert gates[:, :count].all() and not gates[:, count:].any()

    def test_attendgru_has_no_gates(self):
        cfg = replace(toy_config(), encoder_kind="attendgru_only")
        rng = np.random.default_rng(1)
        _, gates = forward(toy_sample(cfg, rng), init_params(cfg), cfg)
        assert gates is None

    @pytest.mark.parametrize("gate_query", ["constant_q", "summary_vector"])
    def test_batch_gates_equal_one_sample_gates(self, gate_query):
        # the training path: 12 rows drawn from 4 samples, each row with its
        # own prefix, against every row's one-sample forward. A matmul row
        # takes another BLAS path at another batch size, so the values agree
        # to rounding; which slots are 0 agrees exactly.
        cfg = replace(toy_config(), gate_query=gate_query)
        rng = np.random.default_rng(5)
        samples = [toy_sample(cfg, rng) for _ in range(4)]
        picks = rng.integers(0, 4, size=12)
        prefixes = [prefix_row([1] + list(rng.integers(4, cfg.summary_vocab_size, size=k)),
                               cfg.comlen) for k in rng.integers(0, cfg.comlen - 1, size=12)]
        inputs = batch_inputs([samples[i] for i in picks], summary_rows=prefixes)
        assert inputs.code_ids.shape[0] < 12
        params = init_params(cfg)
        _, gates = _forward_batch(inputs, params, cfg)
        assert gates.shape == (12, cfg.h, cfg.n)
        for row, (i, prefix) in enumerate(zip(picks, prefixes)):
            _, want = forward(replace(samples[i], summary_ids=prefix), params, cfg)
            assert ((gates[row] == 0) == (want == 0)).all()
            assert np.abs(gates[row] - want).max() <= 1e-12


def reference_attendgru(inputs: ModelInputs, params, config) -> np.ndarray:
    """Independently wired plain-numpy seq2seq attention network (no tape),
    following the published wiring: encoder GRU, decoder GRU, dot-product
    attention, per-timestep relu projection, flatten, dense softmax."""

    def sigmoid(x):
        y = np.empty_like(x)
        posm = x >= 0
        y[posm] = 1.0 / (1.0 + np.exp(-x[posm]))
        ex = np.exp(x[~posm])
        y[~posm] = ex / (1.0 + ex)
        return y

    def softmax(x):
        m = x.max(axis=-1, keepdims=True)
        e = np.exp(x - m)
        return e / e.sum(axis=-1, keepdims=True)

    def w(name):
        return params[name].data

    def run_gru(seq, prefix):
        b, steps, _ = seq.shape
        h = np.zeros((b, config.l_dim))
        states = []
        for t in range(steps):
            x = seq[:, t, :]
            z = sigmoid((x @ w(f"{prefix}.wz") + h @ w(f"{prefix}.uz")) + w(f"{prefix}.bz"))
            r = sigmoid((x @ w(f"{prefix}.wr") + h @ w(f"{prefix}.ur")) + w(f"{prefix}.br"))
            hbar = np.tanh((x @ w(f"{prefix}.wh") + (r * h) @ w(f"{prefix}.uh")) + w(f"{prefix}.bh"))
            h = z * h + (1.0 - z) * hbar
            states.append(h)
        return np.stack(states, axis=1)

    emb_code = w("embed.code")[inputs.code_ids]
    h_enc = run_gru(emb_code, "enc_gru")
    emb_sum = w("embed.summary")[inputs.summary_ids]
    h_dec = run_gru(emb_sum, "dec_gru")
    attn = softmax(np.matmul(h_dec, h_enc.swapaxes(-1, -2)))
    ctx = np.matmul(attn, h_enc)
    context = np.concatenate([ctx, h_dec], axis=2)
    proj = np.maximum(np.matmul(context, w("proj.w")) + w("proj.b"), 0.0)
    flat = proj.reshape(proj.shape[0], config.comlen * config.projection_dim)
    logits = flat @ w("out.w") + w("out.b")
    return softmax(logits)


class TestSubmodelConsistency:
    def test_attendgru_only_matches_reference(self):
        # the kernel adds the biases and blends the states in another order
        # than the textbook formula below, so the two agree within 1e-12
        cfg = replace(toy_config(), encoder_kind="attendgru_only")
        params = init_params(cfg)
        rng = np.random.default_rng(31)
        samples = [toy_sample(cfg, rng) for _ in range(3)]
        inputs = batch_inputs(samples)
        with T.no_grad():
            mine, _ = _forward_batch(inputs, params, cfg)
        theirs = reference_attendgru(inputs, params, cfg)
        assert_within(mine.data, theirs)


def assert_within(mine, theirs, rel=1e-12):
    """Every element of `mine` within `rel` of the largest magnitude in
    `theirs`."""
    assert mine.shape == theirs.shape
    scale = float(np.abs(theirs).max(initial=0.0))
    assert float(np.abs(mine - theirs).max(initial=0.0)) <= rel * scale


class TestFusedKernels:
    """gru_sequence, episodic_gate, attend, weighted_bag, dense and
    cross_entropy are one tape node each, with hand-written backwards.
    Their values and every gradient must agree within 1e-12 relative with
    op_graph's step loops and elementwise graphs, alone and in a whole
    training step of each model variant."""

    @pytest.mark.parametrize("kind", ["plain", "masked", "gated", "gated_squashed"])
    def test_sequence_matches_step_loop(self, kind):
        rng = np.random.default_rng(8)
        b, steps, d = 5, 6, 4
        shapes = [(d, d), (d, d), (d,)] * 3 + [(b, steps, d), (b, d), (b, d), (b, d)]
        arrays = [rng.uniform(-1, 1, s) for s in shapes]
        # rows end early, one is empty: the pad steps' gate still has a gradient
        mask = _length_mask(np.array([6, 3, 1, 0, 5]), steps)
        weights = T.constant(rng.uniform(0.5, 1.5, (b, steps, d)))
        results = []
        for seq_op, gate_op in ((T.gru_sequence, T.episodic_gate),
                                (op_graph.gru_sequence, op_graph.episodic_gate)):
            *w, x, h0, q, m = (T.Tensor(a, requires_grad=True) for a in arrays)
            w = T.GRUWeights(*w)
            leaves = [x, *w]
            if kind == "plain":
                out = seq_op(x, w, h0=h0)
                leaves.append(h0)
            elif kind == "masked":
                gate = T.Tensor(mask, requires_grad=True)
                out = seq_op(x, w, gate=gate)
                leaves.append(gate)
            else:
                gate = gate_op(x, q, m, mask, kind == "gated_squashed")
                out = seq_op(x, w, gate=gate)
                leaves += [q, m]
            op_graph.sum_all(op_graph.mul(out, weights)).backward()
            results.append([out.data] + [leaf.grad for leaf in leaves])
        for mine, theirs in zip(*results):
            assert_within(mine, theirs)

    @pytest.mark.parametrize("squash", [False, True])
    def test_gate_matches_op_graph(self, squash):
        rng = np.random.default_rng(9)
        f = rng.uniform(-1, 1, (16, 3, 5))
        q, m = rng.uniform(-1, 1, (16, 5)), rng.uniform(-1, 1, (16, 5))
        q[0] = f[0, 1]                              # |f - q| = 0: the sign-0 branch
        valid = np.ones((16, 3))
        valid[1:4, 2] = valid[3, 1] = 0.0           # pad statements
        weights = T.constant(rng.uniform(0.5, 1.5, (16, 3)))
        results = []
        for gate_op in (T.episodic_gate, op_graph.episodic_gate):
            ft, qt, mt = (T.Tensor(a, requires_grad=True) for a in (f, q, m))
            g1 = gate_op(ft, qt, mt, valid, squash)
            g2 = gate_op(ft, mt, mt, valid, squash)  # one tensor as query and memory
            op_graph.sum_all(op_graph.mul(op_graph.add(g1, g2), weights)).backward()
            results.append([g1.data, g2.data, ft.grad, qt.grad, mt.grad])
        for mine, theirs in zip(*results):
            assert_within(mine, theirs)

    def test_gru_cell_is_one_sequence_step(self):
        rng = np.random.default_rng(10)
        arrays = [rng.uniform(-1, 1, s) for s in [(3, 4), (4, 4), (4,)] * 3 + [(2, 3), (2, 4)]]
        results = []
        for cell in (T.gru_cell, op_graph.gru_cell):
            *w, x, h = (T.Tensor(a, requires_grad=True) for a in arrays)
            w = T.GRUWeights(*w)
            out = cell(x, h, w)
            op_graph.sum_all(op_graph.mul(cell(x, out, w), out)).backward()
            results.append([out.data, x.grad, h.grad] + [p.grad for p in w])
        for mine, theirs in zip(*results):
            assert_within(mine, theirs)

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(statement_encoding="eos", gate_query="summary_vector", gate_squash="sigmoid"),
        dict(encoder_kind="attendgru_only"),
    ])
    def test_training_step_matches_op_graph(self, overrides, monkeypatch):
        # 16 rows drawn from 6 samples, so the rows read the encoder state
        # through a row map with repeats and its gradients are summed back
        cfg = toy_config(tdatlen=12, n=4, y=4, batch=16, **overrides)
        rng = np.random.default_rng(21)
        samples = [toy_sample(cfg, rng) for _ in range(6)]
        picks = rng.integers(0, 6, size=16)
        prefixes = [prefix_row([1] + list(rng.integers(4, cfg.summary_vocab_size, size=k)),
                               cfg.comlen) for k in rng.integers(0, cfg.comlen - 1, size=16)]
        inputs = batch_inputs([samples[i] for i in picks], summary_rows=prefixes)
        assert len(set(picks.tolist())) == inputs.code_ids.shape[0] < 16
        targets = rng.integers(4, cfg.summary_vocab_size, size=16)

        def step(cross_entropy):
            params = init_params(cfg)
            dists, _ = _forward_batch(inputs, params, cfg)
            T.mean_all(cross_entropy(dists, targets)).backward()
            return [dists.data] + [p.grad for _, p in params.items()]

        fused = step(T.cross_entropy)
        calls = {}
        for name in ("gru_sequence", "episodic_gate", "embedding_lookup", "attend",
                     "weighted_bag", "dense"):
            def counted(*args, _op=getattr(op_graph, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _op(*args, **kwargs)
            monkeypatch.setattr(stmtmem.model, name, counted)
        graph = step(op_graph.cross_entropy)
        smn = cfg.encoder_kind == "smn"
        assert calls["gru_sequence"] == 2 + smn * (cfg.h + (cfg.statement_encoding == "eos"))
        assert calls.get("episodic_gate", 0) == smn * cfg.h
        # the code and summary words; the EOS words and the slots' statement
        # states; the summary_vector memory's statements at the rows
        assert calls["embedding_lookup"] == 2 + smn * (
            2 * (cfg.statement_encoding == "eos") + (cfg.gate_query == "summary_vector"))
        assert calls["attend"] == 1 + smn
        assert calls.get("weighted_bag", 0) == smn * (cfg.statement_encoding == "positional")
        assert calls["dense"] == 2
        assert len(fused) == len(graph)
        for mine, theirs in zip(fused, graph):
            assert_within(mine, theirs)


def interior_nodes(loss: T.Tensor) -> list[T.Tensor]:
    """Every tape node reachable from `loss` (loss included) that has
    parents, i.e. every node a backward pass runs."""
    seen, todo, nodes = {id(loss)}, [loss], []
    while todo:
        node = todo.pop()
        if node._parents:
            nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return nodes


def tape_bytes(loss: T.Tensor) -> int:
    """Bytes of the distinct arrays the tape keeps alive: each interior
    node's data and the arrays its backward closure holds, a view counted
    as the array it views and each array once; parameter data is left
    out, as it lives without the tape."""
    def owner(a):
        while a.base is not None:
            a = a.base
        return a

    nodes = interior_nodes(loss)
    params = {id(owner(p.data)) for node in nodes for p in node._parents
              if not p._parents and p.requires_grad}
    held = {}
    for node in nodes:
        cells = [c.cell_contents for c in node._backward.__closure__ or ()]
        for value in [node.data] + cells:
            if isinstance(value, np.ndarray) and id(owner(value)) not in params:
                held[id(owner(value))] = owner(value)
    return sum(a.nbytes for a in held.values())


class TestTape:
    """Tape nodes and tape bytes per training step, pinned so that a change
    to either shows in review. The node count depends on the hops (h=2
    here, as in the criterion-6 and benchmark `train` configurations), not
    on the widths and lengths; the bytes depend on all the shapes."""

    NODES = {"smn_positional_constant_q": 23, "smn_eos_summary_vector": 28,
             "attendgru_only": 13}
    BYTES = {"smn_positional_constant_q": 698_504, "smn_eos_summary_vector": 920_600,
             "attendgru_only": 537_736}
    TRAIN_SHAPES = dict(tdatlen=96, comlen=13, e_dim=16, l_dim=16, h=2, n=10, y=10,
                        batch=8, code_vocab_size=200, summary_vocab_size=100,
                        projection_dim=32)

    @pytest.mark.parametrize("name", sorted(NODES))
    def test_step_nodes_and_released_gradients(self, name):
        cfg = dict(model_variants(toy_config(**self.TRAIN_SHAPES)))[name]
        rng = np.random.default_rng(5)
        samples = [toy_sample(cfg, rng) for _ in range(4)]
        inputs = batch_inputs(samples + samples)
        params = init_params(cfg)
        dists, _ = _forward_batch(inputs, params, cfg)
        loss = T.mean_all(T.cross_entropy(dists, rng.integers(4, 100, size=8)))
        nodes = interior_nodes(loss)
        assert len(nodes) == self.NODES[name]
        assert tape_bytes(loss) == self.BYTES[name]
        loss.backward()
        assert [node for node in nodes if node.grad is not None] == []
        assert [n for n, p in params.items() if p.grad is None] == []
