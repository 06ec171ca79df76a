"""Vocabulary building, statement splitting, encoding, and splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stmtmem.config import ModelConfig
from stmtmem.corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    Sample,
    UNK_ID,
    Vocabulary,
    build_vocab,
    encode_sample,
    filter_by_length,
    read_dataset,
    split_by_project,
    NEWLINE_TOKEN,
    split_statement_tokens,
    write_dataset,
)
from stmtmem.errors import DataError, UsageError
from stmtmem.synthetic import SyntheticSpec, generate_synthetic_corpus


def sample(code: str, summary: str = "does things", sid: str = "s1", pid: str = "p1") -> Sample:
    return Sample(sid, pid, code.split(), summary.split())


def small_config(**kw) -> ModelConfig:
    base = dict(tdatlen=16, comlen=8, e_dim=4, l_dim=4, h=1, n=4, y=5,
                code_vocab_size=50, summary_vocab_size=50, projection_dim=4)
    base.update(kw)
    return ModelConfig(**base).validate()


class TestBuildVocab:
    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab([sample("a a b")], 10, "code")
        assert vocab.encode("a") == 4
        assert vocab.encode("b") == 5

    def test_reserved_ids_always_present(self):
        vocab = build_vocab([sample("x y")], 10, "code")
        assert tuple(vocab.id_to_token[:4]) == RESERVED_TOKENS
        assert [vocab.encode(t) for t in RESERVED_TOKENS] == [0, 1, 2, 3]

    def test_capacity_counts_reserved_ids(self):
        tokens = " ".join(f"tok{i}" for i in range(10))
        vocab = build_vocab([sample(tokens)], 6, "code")
        assert len(vocab) == 6
        kept = [t for t in vocab.id_to_token[4:]]
        assert len(kept) == 2
        assert vocab.encode("tok9") == UNK_ID

    def test_empty_corpus_rejected(self):
        with pytest.raises(UsageError):
            build_vocab([], 10, "code")

    def test_max_size_must_exceed_reserved(self):
        with pytest.raises(UsageError):
            build_vocab([sample("a")], 4, "code")

    def test_ids_stable_across_runs(self):
        corpus = [sample("x y y z z z"), sample("q x")]
        first = build_vocab(corpus, 8, "code")
        second = build_vocab(list(corpus), 8, "code")
        assert first.id_to_token == second.id_to_token


class TestSplitStatements:
    """Statement splitting as encode_sample's grid shows it."""

    def vocab(self):
        return build_vocab([sample("a = 1 ; return b c d e f g h")], 40, "code")

    def grid(self, code, vocab, n=4, y=5):
        out = encode_sample(sample(code), vocab, vocab, small_config(n=n, y=y))
        assert out.stmt_ids.shape == (n, y) and out.stmt_lengths.shape == (n,)
        return out

    def test_two_statements(self):
        vocab = self.vocab()
        out = self.grid("a = 1 ; <NL> return a <NL>", vocab)
        assert list(out.stmt_lengths) == [4, 2, 0, 0]
        assert [vocab.decode(i) for i in out.stmt_ids[0, :4]] == ["a", "=", "1", ";"]
        assert [vocab.decode(i) for i in out.stmt_ids[1, :2]] == ["return", "a"]

    def test_no_delimiter_is_one_statement(self):
        out = self.grid("a b c", self.vocab())
        assert list(out.stmt_lengths) == [3, 0, 0, 0]

    def test_statement_cap(self):
        out = self.grid(" ".join(["a <NL>"] * 75), self.vocab(), n=70)
        assert (out.stmt_lengths == 1).all()

    def test_empty_segments_dropped(self):
        vocab = self.vocab()
        out = self.grid("<NL> a <NL> <NL> <NL> b <NL>", vocab)
        assert list(out.stmt_lengths) == [1, 1, 0, 0]
        assert list(out.stmt_ids[:2, 0]) == [vocab.encode("a"), vocab.encode("b")]

    def test_row_truncation_keeps_prefix(self):
        vocab = self.vocab()
        out = self.grid("b c d e f g h", vocab)
        assert out.stmt_lengths[0] == 5
        assert [vocab.decode(i) for i in out.stmt_ids[0]] == ["b", "c", "d", "e", "f"]

    def test_no_newline_id_and_pad_contiguity(self):
        vocab = self.vocab()
        out = self.grid("a = 1 <NL> b c <NL> d", vocab)
        assert "<NL>" not in [vocab.decode(i) for i in out.stmt_ids.flatten()]
        for row, length in zip(out.stmt_ids, out.stmt_lengths):
            assert (row[:length] != PAD_ID).all()
            assert (row[length:] == PAD_ID).all()

    def test_spans_exclude_markers(self):
        tokens = "<NL> a b <NL> <NL> c".split()
        assert split_statement_tokens(tokens) == [(1, 3), (5, 6)]
        assert split_statement_tokens(["<NL>"]) == []


def reference_statements(code_tokens):
    """The token lists of the statements: the non-empty runs between <NL>s."""
    statements, current = [], []
    for token in code_tokens:
        if token == NEWLINE_TOKEN:
            if current:
                statements.append(current)
            current = []
        else:
            current.append(token)
    if current:
        statements.append(current)
    return statements


def reference_encode(s, code_vocab, sum_vocab, config):
    """The two-pass encoder encode_sample replaced: code ids from the head of
    the tokens, then a second split of the raw tokens into statements whose
    tokens are looked up again."""
    code_ids = np.zeros(config.tdatlen, dtype=np.int64)
    kept = s.code_tokens[: config.tdatlen]
    code_ids[: len(kept)] = [code_vocab.encode(t) for t in kept]
    statements = reference_statements(s.code_tokens)
    stmt_ids = np.zeros((config.n, config.y), dtype=np.int64)
    stmt_lengths = np.zeros(config.n, dtype=np.int64)
    for i, stmt in enumerate(statements[: config.n]):
        row = stmt[: config.y]
        stmt_lengths[i] = len(row)
        stmt_ids[i, : len(row)] = [code_vocab.encode(t) for t in row]
    summary = [BOS_ID] + [sum_vocab.encode(t) for t in s.summary_tokens] + [EOS_ID]
    if len(summary) > config.comlen:
        summary = summary[: config.comlen - 1] + [EOS_ID]
    summary_ids = np.zeros(config.comlen, dtype=np.int64)
    summary_ids[: len(summary)] = summary
    return code_ids, stmt_ids, stmt_lengths, summary_ids


class TestEncodeSampleMatchesReference:
    @pytest.fixture(scope="class")
    def corpus(self):
        spec = SyntheticSpec(projects=4, samples_per_project=15, statement_range=(5, 9),
                             max_payloads=3)
        edge = [sample("<NL> a <NL> <NL> b c d e <NL>", sid="gaps"), sample("x y z", sid="flat"),
                sample("<NL> <NL>", sid="markers"),
                sample(" ".join(f"t{i} <NL>" for i in range(80)), sid="many")]
        return (generate_synthetic_corpus(spec, seed=1) + generate_synthetic_corpus(spec, seed=2024)
                + edge)

    def vocabularies(self, corpus):
        full = build_vocab(corpus, 200, "code")
        assert NEWLINE_TOKEN in full
        small = Vocabulary([t for t in full.id_to_token[:13] if t != NEWLINE_TOKEN])
        assert len(small) == 12
        return full, small

    @pytest.mark.parametrize("tdatlen,n,y", [(96, 10, 10), (8, 2, 3), (200, 70, 30), (3, 10, 1)])
    def test_arrays_equal_the_two_pass_encoder(self, corpus, tdatlen, n, y):
        sum_vocab = build_vocab(corpus, 30, "summary")
        cfg = small_config(tdatlen=tdatlen, comlen=6, n=n, y=y)
        for code_vocab in self.vocabularies(corpus):
            for s in corpus:
                out = encode_sample(s, code_vocab, sum_vocab, cfg)
                code, grid, lengths, summary = reference_encode(s, code_vocab, sum_vocab, cfg)
                for mine, ref in ((out.code_ids, code), (out.stmt_ids, grid),
                                  (out.stmt_lengths, lengths), (out.summary_ids, summary)):
                    assert mine.dtype == ref.dtype and mine.shape == ref.shape
                    assert mine.tobytes() == ref.tobytes(), s.sample_id

    def test_filter_by_length_counts_the_same_statements(self, corpus):
        counts = [len(reference_statements(s.code_tokens)) for s in corpus]
        for threshold in (1, 3, 5, 7):
            expected = [s for s, count in zip(corpus, counts) if count >= threshold]
            assert filter_by_length(corpus, threshold) == expected


class TestEncodeSample:
    def test_summary_framing(self):
        cfg = small_config(comlen=13)
        s = sample("code here", summary="returns x")
        sv = build_vocab([s], 20, "summary")
        cv = build_vocab([s], 20, "code")
        out = encode_sample(s, cv, sv, cfg)
        decoded = [sv.decode(i) for i in out.summary_ids]
        assert decoded[:4] == ["<s>", "returns", "x", "</s>"]
        assert (out.summary_ids[4:] == PAD_ID).all()

    def test_code_truncation_keeps_head(self):
        cfg = small_config(tdatlen=200)
        tokens = " ".join(f"t{i}" for i in range(300))
        s = sample(tokens)
        cv = build_vocab([s], 400, "code")
        sv = build_vocab([s], 10, "summary")
        out = encode_sample(s, cv, sv, cfg)
        assert out.code_ids.shape == (200,)
        assert out.code_ids[0] == cv.encode("t0")
        assert out.code_ids[199] == cv.encode("t199")

    def test_long_summary_keeps_eos_as_final_token(self):
        cfg = small_config(comlen=13)
        words = " ".join(f"w{i}" for i in range(14))
        s = sample("code", summary=words)
        cv = build_vocab([s], 10, "code")
        sv = build_vocab([s], 40, "summary")
        out = encode_sample(s, cv, sv, cfg)
        assert out.summary_ids[0] == BOS_ID
        assert out.summary_ids[12] == EOS_ID
        content = out.summary_ids[1:12]
        assert (content != PAD_ID).all() and len(content) == 11

    @given(st.lists(st.sampled_from(["foo", "bar", "baz", "qux"]), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_round_trip(self, words):
        s = Sample("s", "p", ["print", "x"], words)
        sv = build_vocab([s], 50, "summary")
        ids = [sv.encode(w) for w in words]
        assert [sv.decode(i) for i in ids] == words


class TestSplitByProject:
    def corpus(self, projects=10, per=10):
        return [Sample(f"p{p}_s{i}", f"p{p}", ["code", "<NL>", "more"], ["sum", "mary"])
                for p in range(projects) for i in range(per)]

    def test_too_few_projects(self):
        with pytest.raises(UsageError):
            split_by_project(self.corpus(projects=2), (0.8, 0.1, 0.1), seed=0)

    def test_deterministic(self):
        a = split_by_project(self.corpus(), (0.8, 0.1, 0.1), seed=3)
        b = split_by_project(self.corpus(), (0.8, 0.1, 0.1), seed=3)
        assert [[s.sample_id for s in part] for part in a] == \
               [[s.sample_id for s in part] for part in b]

    def test_greedy_eight_one_one(self):
        train, val, test = split_by_project(self.corpus(), (0.8, 0.1, 0.1), seed=1)
        projects = [len({s.project_id for s in part}) for part in (train, val, test)]
        assert projects == [8, 1, 1]

    def test_partition_is_disjoint_and_covering(self):
        corpus = self.corpus(projects=7, per=3)
        train, val, test = split_by_project(corpus, (0.6, 0.2, 0.2), seed=9)
        parts = [{s.project_id for s in p} for p in (train, val, test)]
        assert parts[0] | parts[1] | parts[2] == {s.project_id for s in corpus}
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
        assert len(train) + len(val) + len(test) == len(corpus)

    def test_bad_ratios(self):
        with pytest.raises(UsageError):
            split_by_project(self.corpus(), (0.8, 0.1, 0.2), seed=0)


class TestFilterByLength:
    def corpus(self):
        return [
            Sample("one", "p1", "a ; <NL>".split(), ["x"]),
            Sample("two", "p1", "a ; <NL> b ; <NL>".split(), ["x"]),
            Sample("three", "p2", "a ; <NL> b ; <NL> c ; <NL>".split(), ["x"]),
        ]

    def test_min_two_drops_singletons(self):
        kept = filter_by_length(self.corpus(), 2)
        assert [s.sample_id for s in kept] == ["two", "three"]

    def test_min_one_is_identity(self):
        assert filter_by_length(self.corpus(), 1) == self.corpus()

    def test_threshold_validation(self):
        with pytest.raises(UsageError):
            filter_by_length(self.corpus(), 0)


class TestFileFormats:
    def test_dataset_round_trip(self, tmp_path):
        samples = [Sample("s1", "p1", "a b <NL> c".split(), ["hi", "there"]),
                   Sample("s2", "p2", ["x"], ["bye"])]
        path = str(tmp_path / "data.tsv")
        write_dataset(path, samples)
        back = read_dataset(path)
        assert back == samples

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\tproj\tcode only\n")
        with pytest.raises(DataError, match="bad.tsv:1"):
            read_dataset(str(path))

    def test_vocab_file_round_trip(self, tmp_path):
        vocab = build_vocab([sample("a a b c")], 10, "code")
        path = str(tmp_path / "vocab.txt")
        vocab.save(path)
        back = Vocabulary.load(path)
        assert back.id_to_token == vocab.id_to_token
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[:4] == list(RESERVED_TOKENS)
        assert lines.index("a") == vocab.encode("a")

    def test_statement_count_helper(self):
        assert len(split_statement_tokens("a <NL> b <NL>".split())) == 2
        assert len(split_statement_tokens(["a"])) == 1
