"""Greedy decoding, ensembling, and the prediction file contract."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from stmtmem import decoding
from stmtmem.corpus import (
    BOS_ID,
    EOS_ID,
    EncodedSample,
    RESERVED_TOKENS,
    Sample,
    Vocabulary,
    build_vocab,
    encode_sample,
)
from stmtmem.decoding import (
    LoadedModel,
    _decode_lockstep,
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
    return Vocabulary(list(RESERVED_TOKENS) + [f"w{i}" for i in range(v - 4)])


def dummy_encoded(comlen=13, sample_id="s1"):
    return EncodedSample(sample_id, np.zeros(4, dtype=np.int64),
                         np.zeros((2, 3), dtype=np.int64), np.zeros(2, dtype=np.int64),
                         np.zeros(comlen, dtype=np.int64))


class StubState:
    """The encoder state of a stub batch: the sample ids of its rows."""

    def __init__(self, ids):
        self.ids = list(ids)

    def select(self, rows):
        return StubState(self.ids[r] for r in rows)


class StubModel:
    """Fixed per-step distributions, the same for every sample or, given a
    dict, per sample id; counts encodes and head calls and records each
    head call's batch size."""

    def __init__(self, dists, v=8, comlen=13):
        if not isinstance(dists, dict):
            dists = {None: dists}
        self.dists = {k: [np.asarray(d, dtype=np.float64) for d in ds] for k, ds in dists.items()}
        self.config = SimpleNamespace(summary_vocab_size=v, comlen=comlen)
        self.encodes = 0
        self.encoded_ids = set()
        self.calls = 0
        self.batches = []

    def encode(self, encoded):
        self.encodes += 1
        self.encoded_ids.update(e.sample_id for e in encoded)
        return StubState(e.sample_id for e in encoded)

    def next_dist(self, state, prefixes):
        assert len(state.ids) == len(prefixes)
        assert set(state.ids) <= self.encoded_ids      # a state this model encoded
        self.calls += 1
        self.batches.append(len(prefixes))
        rows = []
        for sample_id, prefix in zip(state.ids, prefixes):
            steps = self.dists.get(sample_id, self.dists.get(None))
            rows.append(steps[min(len(prefix) - 1, len(steps) - 1)])
        return np.stack(rows), None


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

    @pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_non_finite_vector_rejected(self, bad):
        # a NaN sum compares False against any tolerance
        good = np.array([0.5, 0.5])
        with pytest.raises(UsageError, match="not a probability vector"):
            ensemble_distribution([good, np.array(bad)])


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
            state = model.encode([enc])
            prefix = [BOS_ID]
            for _ in range(cfg.comlen - 1):
                dists, gates = model.next_dist(state, [prefix])
                got = dists[0]
                row = prefix_row(prefix, cfg.comlen)
                want, want_gates = forward(replace(enc, summary_ids=row), model.params, cfg)
                assert got.tobytes() == want.tobytes()
                if want_gates is None:
                    assert gates is None and cfg.encoder_kind == "attendgru_only"
                else:
                    assert gates.shape == (1, cfg.h, cfg.n)
                    assert gates[0].tobytes() == want_gates.tobytes()
                prefix.append(4 + int(np.argmax(got[4:])))

    def test_predict_dist_is_next_dist_of_a_fresh_encoding(self):
        models, samples, cv, sv = mixed_members()
        for model in models:
            enc = encode_sample(samples[0], cv, sv, model.config)
            got, _ = model.predict_dist(enc, [BOS_ID, 5])
            want, _ = model.next_dist(model.encode([enc]), [[BOS_ID, 5]])
            assert got.tobytes() == want[0].tobytes()

    def test_overlong_prefix_rejected(self):
        models, samples, cv, sv = mixed_members()
        model = models[0]
        state = model.encode([encode_sample(samples[0], cv, sv, model.config)])
        with pytest.raises(UsageError, match="exceeds comlen"):
            model.next_dist(state, [[BOS_ID] * (model.config.comlen + 1)])

    @pytest.mark.parametrize("first", [0, 1], ids=["constant_q-first", "summary_vector-first"])
    def test_gate_dump_is_first_step_first_member_forward_gates(self, tmp_path, first):
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
            _, sample_gates = forward(replace(enc, summary_ids=row), lead.params, lead.config)
            for hop, gates in enumerate(sample_gates):
                values = " ".join(f"{v:.6f}" for v in gates)
                expected.append(f"{sample.sample_id}\t{hop}\t{values}")
        assert open(gates_path, encoding="utf-8").read().splitlines() == expected


def stopping_members():
    """mixed_members() with each member's </s> bias raised so that its rows,
    alone and in ensembles, stop at different steps."""
    models, samples, cv, sv = mixed_members()
    for model, bias in zip(models, (0.03, 0.015, 0.012)):
        model.params["out.b"].data[EOS_ID] += bias
    return models, samples, cv, sv


class TestLockstep:
    @pytest.mark.parametrize("members", [[0], [1], [2], [0, 1, 2], [2, 1, 0]],
                             ids=["positional", "eos-summary_vector", "attendgru_only",
                                  "ensemble", "ensemble-reversed"])
    def test_chunk_file_equals_per_sample_greedy_decode(self, tmp_path, members):
        models, samples, cv, sv = stopping_members()
        chosen = [models[i] for i in members]
        chunk, single = str(tmp_path / "chunk.preds"), str(tmp_path / "single.preds")
        records = predict_corpus(chosen, samples, cv, sv, chunk)
        assert len({len(r.tokens) for r in records}) > 1    # rows leave at different steps
        write_predictions(single, [
            greedy_decode(chosen, [encode_sample(s, cv, sv, m.config) for m in chosen], sv)[0]
            for s in samples])
        assert open(chunk, "rb").read() == open(single, "rb").read()

    def test_every_lockstep_row_is_within_1e9_of_predict_dist(self, tmp_path):
        models, samples, cv, sv = stopping_members()
        records = predict_corpus(models, samples, cv, sv, str(tmp_path / "p.preds"))
        prefixes = [[BOS_ID] + [sv.token_to_id[t] for t in r.tokens] for r in records]
        for model in models:
            encs = [encode_sample(s, cv, sv, model.config) for s in samples]
            state = model.encode(encs)
            for step in range(model.config.comlen - 1):
                live = [i for i, r in enumerate(records) if len(r.tokens) >= step]
                if not live:
                    break
                dists, _ = model.next_dist(state.select(live),
                                           [prefixes[i][:step + 1] for i in live])
                for row, i in enumerate(live):
                    want, _ = model.predict_dist(encs[i], prefixes[i][:step + 1])
                    assert np.abs(dists[row] - want).max() <= 1e-9

    def test_finished_rows_leave_the_head_batch(self):
        steps = {"s1": [one_hot(8, 2)],
                 "s2": [one_hot(8, 5), one_hot(8, 2)],
                 "s3": [one_hot(8, 5), one_hot(8, 6), one_hot(8, 2)]}
        a, b = StubModel(steps), StubModel(steps)
        encs = [dummy_encoded(sample_id=i) for i in ("s3", "s1", "s2")]
        tokens, gates = _decode_lockstep([a, b], [encs, encs], vocab_of_size(8))
        assert tokens == [["w1", "w2"], [], ["w1"]]
        assert gates is None
        assert a.batches == b.batches == [3, 2, 1]
        assert a.encodes == b.encodes == 1

    def test_chunks_of_two_give_the_one_chunk_file(self, tmp_path, monkeypatch):
        models, samples, cv, sv = stopping_members()
        whole, chunked = str(tmp_path / "whole.preds"), str(tmp_path / "chunked.preds")
        predict_corpus(models, samples, cv, sv, whole, dump_gates_path=whole + ".gates")
        encode, batches = LoadedModel.encode, []

        def counting_encode(self, encoded):
            batches.append(len(encoded))
            return encode(self, encoded)

        monkeypatch.setattr(decoding, "CHUNK_SAMPLES", 2)
        monkeypatch.setattr(LoadedModel, "encode", counting_encode)
        predict_corpus(models, samples, cv, sv, chunked, dump_gates_path=chunked + ".gates")
        assert batches == [2, 2, 2, 2, 2, 2, 1, 1, 1]     # one encode per member per chunk
        assert open(chunked, "rb").read() == open(whole, "rb").read()
        assert open(chunked + ".gates", "rb").read() == open(whole + ".gates", "rb").read()

    def test_members_that_encode_alike_share_one_encoding(self, tmp_path, monkeypatch):
        models, samples, cv, sv = mixed_members()
        longer = replace(models[0].config, tdatlen=models[0].config.tdatlen + 3, rng_seed=10)
        models.append(LoadedModel(init_params(longer), longer))
        encode, seen = LoadedModel.encode, {}

        def recording_encode(self, encoded):
            seen[id(self)] = encoded
            return encode(self, encoded)

        monkeypatch.setattr(LoadedModel, "encode", recording_encode)
        predict_corpus(models, samples, cv, sv, str(tmp_path / "p.preds"))
        first = seen[id(models[0])]
        shared = [[a is b for a, b in zip(first, seen[id(m)])] for m in models]
        assert shared == [[True] * len(samples)] * 3 + [[False] * len(samples)]

    def test_empty_split_writes_an_empty_file(self, tmp_path):
        models, _, cv, sv = mixed_members()
        path = str(tmp_path / "p.preds")
        assert predict_corpus(models, [], cv, sv, path, dump_gates_path=path + ".gates") == []
        assert open(path, "rb").read() == b""
        assert open(path + ".gates", "rb").read() == b""
