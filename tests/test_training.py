"""Teacher forcing expansion, training loop behavior, and convergence rules."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

import stmtmem.model
from stmtmem.corpus import Sample, build_vocab, encode_sample
from stmtmem.errors import UsageError
from stmtmem.model import init_params
from stmtmem.params import AdamState, adam_step
from stmtmem.tensor import cross_entropy, mean_all
from stmtmem.model import _forward_batch
from stmtmem.training import (
    EpochReport,
    TrainingPair,
    evaluate_next_token,
    expand_pairs,
    _pair_batch,
    select_best,
    train,
)
from stmtmem.verify import model_variants, toy_config

from test_model import assert_within


def make_corpus(n_samples=4, words=("alpha", "beta", "gamma")):
    samples = []
    for i in range(n_samples):
        summary = [words[(i + j) % len(words)] for j in range(2)]
        code = ["stmt", str(i), ";", "<NL>", "emit", words[i % len(words)], ";", "<NL>"]
        samples.append(Sample(f"s{i}", f"p{i % 3}", code, summary))
    return samples


def encoded_corpus(config, n_samples=4):
    samples = make_corpus(n_samples)
    cv = build_vocab(samples, config.code_vocab_size, "code")
    sv = build_vocab(samples, config.summary_vocab_size, "summary")
    return [encode_sample(s, cv, sv, config) for s in samples], cv, sv


class TestExpandPairs:
    def config(self):
        return toy_config(comlen=6, code_vocab_size=30, summary_vocab_size=30)

    def test_three_pairs_for_two_content_words(self):
        cfg = self.config()
        enc, _, sv = encoded_corpus(cfg, 1)
        pairs = expand_pairs(enc[0])
        assert len(pairs) == 3
        assert [p.prefix_len for p in pairs] == [1, 2, 3]
        assert pairs[0].target_id == enc[0].summary_ids[1]
        assert pairs[-1].target_id == sv.encode("</s>")

    def test_minimal_summary_has_one_pair(self):
        cfg = self.config()
        s = Sample("s", "p", ["x"], ["w"])
        cv = build_vocab([s], 10, "code")
        sv = build_vocab([s], 10, "summary")
        enc = encode_sample(s, cv, sv, cfg)
        enc.summary_ids[1] = 2  # </s> right after <s>
        enc.summary_ids[2:] = 0
        pairs = expand_pairs(enc)
        assert len(pairs) == 1
        assert pairs[0].target_id == 2

    def test_corpus_pair_count(self):
        cfg = self.config()
        enc, _, _ = encoded_corpus(cfg, 4)
        total = sum(len(expand_pairs(e)) for e in enc)
        # Every sample has 2 content words: 2 + 1 pairs each.
        assert total == 4 * 3

    def test_targets_never_pad(self):
        cfg = self.config()
        enc, _, _ = encoded_corpus(cfg, 4)
        for e in enc:
            for p in expand_pairs(e):
                assert p.target_id != 0
                assert 1 <= p.prefix_len < cfg.comlen


class TestEvaluateNextToken:
    def test_uniform_model_loss_is_log_v(self):
        cfg = toy_config(code_vocab_size=30, summary_vocab_size=30, comlen=6)
        enc, _, _ = encoded_corpus(cfg)
        pairs = [p for e in enc for p in expand_pairs(e)]

        cfg_att = replace(cfg, encoder_kind="attendgru_only")
        params = init_params(cfg_att)
        acc, loss = evaluate_next_token(pairs, params, cfg_att)
        assert loss == pytest.approx(math.log(30), abs=0.05)
        assert 0.0 <= acc <= 1.0

    def test_memorizing_model_reaches_perfect_scores(self):
        cfg = toy_config(code_vocab_size=30, summary_vocab_size=30, comlen=6,
                         e_dim=8, l_dim=8, projection_dim=12)
        enc, _, _ = encoded_corpus(cfg, 2)
        best, reports = train(enc, enc, cfg, max_epochs=200, stop_at_accuracy=1.0)
        pairs = [p for e in enc for p in expand_pairs(e)]
        acc, loss = evaluate_next_token(pairs, best, cfg)
        assert acc == 1.0
        assert loss < 0.7

    def test_empty_pairs_rejected(self):
        cfg = toy_config()
        with pytest.raises(UsageError):
            evaluate_next_token([], init_params(cfg), cfg)

    def test_random_init_accuracy_is_chance_level(self):
        # v=5 toy with uniformly drawn targets over 1000 pairs: an untrained
        # model's argmax hits at roughly 1/5.
        cfg = toy_config(comlen=6, code_vocab_size=30, summary_vocab_size=5)
        samples = [Sample(f"s{i}", f"p{i % 3}", ["stmt", str(i), ";", "<NL>"], ["w"])
                   for i in range(4)]
        cv = build_vocab(samples, 30, "code")
        sv = build_vocab(samples, 5, "summary")
        assert len(sv) == 5
        enc = [encode_sample(s, cv, sv, cfg) for s in samples]
        base = [p for e in enc for p in expand_pairs(e)]
        rng = np.random.default_rng(5)
        pairs = [TrainingPair(base[i % len(base)].sample,
                              base[i % len(base)].prefix_len,
                              int(rng.integers(0, 5)))
                 for i in range(1000)]
        acc, _ = evaluate_next_token(pairs, init_params(cfg), cfg)
        assert 0.10 <= acc <= 0.32, f"chance-level accuracy was {acc:.3f}"


class TestTrainLoop:
    def test_identical_runs_are_bitwise_identical(self):
        cfg = toy_config(code_vocab_size=30, summary_vocab_size=30, comlen=6)
        enc, _, _ = encoded_corpus(cfg)

        def run():
            best, reports = train(enc, enc, cfg, max_epochs=3)
            blob = b"".join(t.data.tobytes() for _, t in best.items())
            return blob, [(r.train_loss, r.val_accuracy, r.val_loss) for r in reports]

        blob_a, reports_a = run()
        blob_b, reports_b = run()
        assert blob_a == blob_b
        assert reports_a == reports_b

    def test_one_sample_memorization_within_200_epochs(self):
        cfg = toy_config(code_vocab_size=30, summary_vocab_size=30, comlen=6,
                         e_dim=8, l_dim=8, projection_dim=12)
        enc, _, _ = encoded_corpus(cfg, 1)
        best, reports = train(enc, enc, cfg, max_epochs=200, stop_at_accuracy=1.0)
        assert reports[-1].val_accuracy == 1.0
        assert len(reports) <= 200

    def test_empty_sets_rejected(self):
        cfg = toy_config()
        enc, _, _ = encoded_corpus(cfg)
        with pytest.raises(UsageError):
            train([], enc, cfg, max_epochs=1)
        with pytest.raises(UsageError):
            train(enc, [], cfg, max_epochs=1)

    def test_loss_decreases_over_first_adam_steps(self):
        # Sanity of the full gradient path: 5 steps on one fixed batch
        # strictly decrease the loss for at least 19 of 20 seeds.
        cfg_base = toy_config(code_vocab_size=30, summary_vocab_size=30, comlen=6)
        enc, _, _ = encoded_corpus(cfg_base)
        wins = 0
        for seed in range(20):
            cfg = replace(cfg_base, rng_seed=seed)
            params = init_params(cfg)
            adam = AdamState.bind(params, lr=1e-3)
            pairs = [p for e in enc for p in expand_pairs(e)]
            inputs, targets = _pair_batch(pairs, cfg.comlen)
            losses = []
            for _ in range(6):
                dists, _ = _forward_batch(inputs, params, cfg)
                loss = mean_all(cross_entropy(dists, targets))
                losses.append(loss.item())
                loss.backward()
                adam_step(params, adam)
            if all(b < a for a, b in zip(losses, losses[1:])):
                wins += 1
        assert wins >= 19

    def test_shuffle_preserves_pair_multiset(self):
        rng = np.random.default_rng([7, 0x5F])
        order = rng.permutation(12)
        assert sorted(order.tolist()) == list(range(12))


class TestBatchEncodesEachSampleOnce:
    @pytest.mark.parametrize("name, cfg", model_variants(
        toy_config(comlen=6, code_vocab_size=30, summary_vocab_size=30)))
    def test_pairs_of_k_samples_encode_k_rows(self, name, cfg, monkeypatch):
        enc, _, _ = encoded_corpus(cfg, 3)
        pairs = [p for e in enc for p in expand_pairs(e)]
        pairs = [pairs[i] for i in np.random.default_rng(5).permutation(len(pairs))]
        encoded_rows = []
        real_encode = stmtmem.model.encode

        def counting_encode(inputs, *args, **kwargs):
            encoded_rows.append(inputs.code_ids.shape[0])
            return real_encode(inputs, *args, **kwargs)

        monkeypatch.setattr(stmtmem.model, "encode", counting_encode)

        def step(batch):
            params = init_params(cfg)
            inputs, targets = _pair_batch(batch, cfg.comlen)
            dists, _ = _forward_batch(inputs, params, cfg)
            mean_all(cross_entropy(dists, targets)).backward()
            return [dists.data] + [p.grad for _, p in params.items()]

        once = step(pairs)
        assert encoded_rows == [3]
        # a distinct copy of each pair's sample is not deduplicated
        copies = [TrainingPair(copy.copy(p.sample), p.prefix_len, p.target_id) for p in pairs]
        each = step(copies)
        assert encoded_rows == [3, len(pairs)]
        for mine, theirs in zip(once, each):
            assert_within(mine, theirs)


class TestSelectBest:
    def report(self, epoch, acc, loss):
        return EpochReport(epoch, 1.0, acc, loss)

    def test_max_accuracy_wins(self):
        reports = [self.report(0, 0.5, 1.0), self.report(1, 0.8, 2.0), self.report(2, 0.7, 0.1)]
        assert select_best(reports) == 1

    def test_loss_breaks_accuracy_ties(self):
        reports = [self.report(0, 0.8, 2.0), self.report(1, 0.8, 1.0)]
        assert select_best(reports) == 1

    def test_earlier_epoch_breaks_full_ties(self):
        reports = [self.report(0, 0.8, 1.0), self.report(1, 0.8, 1.0)]
        assert select_best(reports) == 0

    def test_pure_function_of_reports(self):
        reports = [self.report(i, 0.1 * i, 1.0 - 0.1 * i) for i in range(5)]
        assert select_best(reports) == select_best(list(reports))
