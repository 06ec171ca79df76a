"""Greedy decoding, ensembling, and the prediction file contract."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from stmtmem.corpus import (
    BOS_ID,
    EncodedSample,
    RESERVED_TOKENS,
    Sample,
    StatementMatrix,
    Vocabulary,
    build_vocab,
    encode_sample,
)
from stmtmem.decoding import (
    LoadedModel,
    ensemble_distribution,
    greedy_decode,
    predict_corpus,
    read_predictions,
    write_predictions,
)
from stmtmem.errors import DimensionError, UsageError
from stmtmem.model import forward, init_params, prefix_row
from stmtmem.training import train
from stmtmem.verify import toy_config


def vocab_of_size(v):
    return Vocabulary(list(RESERVED_TOKENS) + [f"w{i}" for i in range(v - 4)], max_size=v)


def dummy_encoded(comlen=13):
    return EncodedSample("s1", np.zeros(4, dtype=np.int64),
                         StatementMatrix(np.zeros((2, 3), dtype=np.int64), 0,
                                         np.zeros(2, dtype=np.int64)),
                         np.zeros(comlen, dtype=np.int64))


class StubModel:
    """Fixed per-step distributions; counts encodes and per-step head calls."""

    def __init__(self, dists, v=8, comlen=13):
        self.dists = [np.asarray(d, dtype=np.float64) for d in dists]
        self.config = SimpleNamespace(summary_vocab_size=v, comlen=comlen)
        self.encodes = 0
        self.calls = 0

    def encode(self, encoded, collect_trace=False):
        self.encodes += 1
        return ("state", encoded.sample_id)

    def next_dist(self, state, prefix, collect_trace=False):
        assert state == ("state", "s1")
        self.calls += 1
        step = min(len(prefix) - 1, len(self.dists) - 1)
        return self.dists[step], None


def one_hot(v, hot):
    d = np.zeros(v)
    d[hot] = 1.0
    return d


class TestGreedyDecode:
    def test_immediate_eos_gives_empty_prediction(self):
        model = StubModel([one_hot(8, 2)])
        record, _ = greedy_decode([model], dummy_encoded(), vocab_of_size(8))
        assert record.tokens == []
        assert model.calls == 1
        assert model.encodes == 1

    def test_never_eos_caps_at_twelve_tokens(self):
        model = StubModel([one_hot(8, 5)])
        record, _ = greedy_decode([model], dummy_encoded(), vocab_of_size(8))
        assert len(record.tokens) == 12
        assert record.tokens == ["w1"] * 12
        assert model.calls == 12
        assert model.encodes == 1

    def test_one_forward_call_per_model_per_token_plus_terminator(self):
        steps = [one_hot(8, 5), one_hot(8, 6), one_hot(8, 2)]
        a, b = StubModel(steps), StubModel(steps)
        record, _ = greedy_decode([a, b], dummy_encoded(), vocab_of_size(8))
        assert record.tokens == ["w1", "w2"]
        assert a.calls == len(record.tokens) + 1
        assert b.calls == len(record.tokens) + 1
        assert a.encodes == b.encodes == 1

    def test_uniform_plus_onehot_follows_the_onehot(self):
        v = 8
        uniform = np.full(v, 1.0 / v)
        hot = one_hot(v, 6)
        record, _ = greedy_decode(
            [StubModel([uniform]), StubModel([hot, hot, one_hot(v, 2)])],
            dummy_encoded(), vocab_of_size(v))
        assert record.tokens[0] == "w2"

    def test_reserved_ids_are_never_emitted(self):
        # Distribution peaks on <PAD>; decode must pick the best real word.
        d = np.array([0.9, 0.0, 0.0, 0.0, 0.02, 0.08, 0.0, 0.0])
        record, _ = greedy_decode([StubModel([d])], dummy_encoded(), vocab_of_size(8))
        assert record.tokens[:1] == ["w1"]

    def test_argmax_tie_breaks_to_lowest_id(self):
        d = np.zeros(8)
        d[5] = d[6] = 0.5
        record, _ = greedy_decode([StubModel([d, one_hot(8, 2)])],
                                  dummy_encoded(), vocab_of_size(8))
        assert record.tokens == ["w1"]

    def test_vocabulary_mismatch_rejected(self):
        with pytest.raises(UsageError):
            greedy_decode([StubModel([one_hot(8, 2)], v=8),
                           StubModel([one_hot(9, 2)], v=9)],
                          dummy_encoded(), vocab_of_size(8))

    def test_comlen_mismatch_rejected(self):
        with pytest.raises(UsageError):
            greedy_decode([StubModel([one_hot(8, 2)], comlen=13),
                           StubModel([one_hot(8, 2)], comlen=9)],
                          dummy_encoded(), vocab_of_size(8))

    def test_short_comlen_caps_generation(self):
        model = StubModel([one_hot(8, 5)], comlen=5)
        record, _ = greedy_decode([model], dummy_encoded(comlen=5), vocab_of_size(8))
        assert len(record.tokens) == 4
        assert model.encodes == 1


class TestEnsembleDistribution:
    def test_mean_of_identical_is_identity(self):
        d = np.array([0.25, 0.75])
        out = ensemble_distribution([d, d.copy(), d.copy()])
        np.testing.assert_allclose(out, d)

    def test_hand_mean(self):
        out = ensemble_distribution([np.array([0.6, 0.4]), np.array([0.2, 0.8])])
        np.testing.assert_allclose(out, [0.4, 0.6])
        assert int(np.argmax(out)) == 1

    def test_mean_is_a_distribution(self):
        rng = np.random.default_rng(4)
        dists = []
        for _ in range(5):
            raw = rng.uniform(0, 1, 6)
            dists.append(raw / raw.sum())
        out = ensemble_distribution(dists)
        assert abs(out.sum() - 1.0) <= 1e-9
        assert (out >= 0).all()

    def test_two_model_mean_of_same_model_is_bit_identical(self):
        rng = np.random.default_rng(9)
        raw = rng.uniform(0, 1, 10)
        d = raw / raw.sum()
        out = ensemble_distribution([d, d.copy()])
        assert out.tobytes() == d.tobytes()

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(11)
        dists = []
        for _ in range(3):
            raw = rng.uniform(0, 1, 7)
            dists.append(raw / raw.sum())
        a = ensemble_distribution(dists)
        b = ensemble_distribution(dists[::-1])
        c = ensemble_distribution([dists[1], dists[2], dists[0]])
        assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            ensemble_distribution([np.array([1.0]), np.array([0.5, 0.5])])

    def test_non_distribution_rejected(self):
        with pytest.raises(UsageError):
            ensemble_distribution([np.array([0.5, 0.9])])


def tiny_real_setup():
    cfg = toy_config(tdatlen=10, comlen=6, code_vocab_size=20, summary_vocab_size=20)
    samples = [Sample(f"s{i}", f"p{i % 3}",
                      ["emit", f"w{i}", ";", "<NL>", "pad", ";", "<NL>"],
                      [f"w{i}", "done"]) for i in range(5)]
    cv = build_vocab(samples, 20, "code")
    sv = build_vocab(samples, 20, "summary")
    cfg = replace(cfg, code_vocab_size=len(cv), summary_vocab_size=len(sv))
    return cfg, samples, cv, sv


class TestPredictCorpus:
    def test_deterministic_and_record_per_sample(self, tmp_path):
        cfg, samples, cv, sv = tiny_real_setup()
        model = LoadedModel(init_params(cfg), cfg)
        p1, p2 = str(tmp_path / "a.preds"), str(tmp_path / "b.preds")
        r1 = predict_corpus([model], samples, cv, sv, p1)
        predict_corpus([model], samples, cv, sv, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert len(r1) == len(samples)
        assert [r.sample_id for r in r1] == [s.sample_id for s in samples]

    def test_self_ensemble_file_identical_to_single(self, tmp_path):
        cfg, samples, cv, sv = tiny_real_setup()
        model = LoadedModel(init_params(cfg), cfg)
        single, double = str(tmp_path / "one.preds"), str(tmp_path / "two.preds")
        predict_corpus([model], samples, cv, sv, single)
        predict_corpus([model, model], samples, cv, sv, double)
        assert open(single, "rb").read() == open(double, "rb").read()

    def test_predicted_ids_are_non_reserved(self, tmp_path):
        cfg, samples, cv, sv = tiny_real_setup()
        enc = [encode_sample(s, cv, sv, cfg) for s in samples]
        best, _ = train(enc, enc, cfg, max_epochs=5)
        model = LoadedModel(best, cfg)
        records = predict_corpus([model], samples, cv, sv, str(tmp_path / "p.preds"))
        for r in records:
            for token in r.tokens:
                assert token not in RESERVED_TOKENS

    def test_round_trip_including_empty_predictions(self, tmp_path):
        from stmtmem.decoding import PredictionRecord
        path = str(tmp_path / "preds.tsv")
        records = [PredictionRecord("a", ["x", "y"]), PredictionRecord("b", [])]
        write_predictions(path, records)
        back = read_predictions(path)
        assert back == {"a": ["x", "y"], "b": []}
        raw = open(path, encoding="utf-8").read()
        assert raw == "a\tx y\nb\t\n"


def mixed_members():
    """A positional/constant_q, an eos/summary_vector and an attendgru_only
    member over the same vocabularies, at seeded init."""
    cfg, samples, cv, sv = tiny_real_setup()
    cfg = replace(cfg, comlen=8)
    configs = [cfg,
               replace(cfg, statement_encoding="eos", gate_query="summary_vector", rng_seed=8),
               replace(cfg, encoder_kind="attendgru_only", rng_seed=9)]
    return [LoadedModel(init_params(c), c) for c in configs], samples, cv, sv


class TestEncodeOnce:
    @pytest.mark.parametrize("index", [0, 1, 2],
                             ids=["positional-constant_q", "eos-summary_vector",
                                  "attendgru_only"])
    def test_next_dist_equals_forward_bitwise_at_every_step(self, index):
        models, samples, cv, sv = mixed_members()
        model = models[index]
        cfg = model.config
        for sample in samples:
            enc = encode_sample(sample, cv, sv, cfg)
            state = model.encode(enc, collect_trace=True)
            prefix = [BOS_ID]
            for _ in range(cfg.comlen - 1):
                got, got_trace = model.next_dist(state, prefix, collect_trace=True)
                row = prefix_row(prefix, cfg.comlen)
                want = forward(replace(enc, summary_ids=row), model.params, cfg,
                               collect_trace=True)
                assert got.tobytes() == want.next_word_dist.tobytes()
                if want.trace is None:
                    assert got_trace is None
                else:
                    assert got_trace.gates.tobytes() == want.trace.gates.tobytes()
                    assert got_trace.memories.tobytes() == want.trace.memories.tobytes()
                prefix.append(4 + int(np.argmax(got[4:])))

    def test_predict_dist_is_next_dist_of_a_fresh_encoding(self):
        models, samples, cv, sv = mixed_members()
        for model in models:
            enc = encode_sample(samples[0], cv, sv, model.config)
            got, _ = model.predict_dist(enc, [BOS_ID, 5])
            want, _ = model.next_dist(model.encode(enc), [BOS_ID, 5])
            assert got.tobytes() == want.tobytes()

    def test_overlong_prefix_rejected(self):
        models, samples, cv, sv = mixed_members()
        model = models[0]
        state = model.encode(encode_sample(samples[0], cv, sv, model.config))
        with pytest.raises(UsageError, match="exceeds comlen"):
            model.next_dist(state, [BOS_ID] * (model.config.comlen + 1))

    @pytest.mark.parametrize("first", [0, 1], ids=["constant_q-first", "summary_vector-first"])
    def test_gate_dump_is_first_step_first_member_forward_trace(self, tmp_path, first):
        models, samples, cv, sv = mixed_members()
        members = [models[first], models[1 - first]]
        gates_path = str(tmp_path / "p.preds.gates")
        predict_corpus(members, samples, cv, sv, str(tmp_path / "p.preds"),
                       dump_gates_path=gates_path)
        lead = members[0]
        expected = []
        for sample in samples:
            enc = encode_sample(sample, cv, sv, lead.config)
            row = prefix_row([BOS_ID], lead.config.comlen)
            trace = forward(replace(enc, summary_ids=row), lead.params, lead.config,
                            collect_trace=True).trace
            for hop, gates in enumerate(trace.gates):
                values = " ".join(f"{v:.6f}" for v in gates)
                expected.append(f"{sample.sample_id}\t{hop}\t{values}")
        assert open(gates_path, encoding="utf-8").read().splitlines() == expected
