"""Synthetic corpus generator: determinism, counts, and template inversion."""

import pytest

from stmtmem.corpus import split_statement_tokens, write_dataset
from stmtmem.errors import ConfigError
from stmtmem.synthetic import SyntheticSpec, generate_synthetic_corpus


def statements(code_tokens):
    return [code_tokens[a:b] for a, b in split_statement_tokens(code_tokens)]


def invert_templates(code_tokens, max_payloads=1):
    """Independent template-matching oracle: recover the summary that the
    generator must have produced for this code (the last payload wins)."""
    payloads = []
    for stmt in statements(code_tokens):
        if stmt[0] == "emit":
            payloads.append([stmt[1], "the", stmt[2], "data"])
        elif stmt[:2] == ["return", "this"]:
            payloads.append(["returns", "the", stmt[3], "value"])
        elif stmt[0] == "this" and "=" in stmt:
            payloads.append(["updates", "the", stmt[2], "value"])
    assert 1 <= len(payloads) <= max_payloads, \
        f"expected 1..{max_payloads} payload statements, got {len(payloads)}"
    return payloads[-1]


class TestGenerator:
    spec = SyntheticSpec(projects=10, samples_per_project=20, statement_range=(3, 8))

    def test_sample_count_is_products_of_spec(self):
        samples = generate_synthetic_corpus(self.spec, seed=7)
        assert len(samples) == 200
        assert len({s.project_id for s in samples}) == 10

    def test_fixed_seed_gives_bytewise_identical_file(self, tmp_path):
        p1, p2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        write_dataset(p1, generate_synthetic_corpus(self.spec, seed=3))
        write_dataset(p2, generate_synthetic_corpus(self.spec, seed=3))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_different_seeds_differ(self):
        a = generate_synthetic_corpus(self.spec, seed=1)
        b = generate_synthetic_corpus(self.spec, seed=2)
        assert [s.code_tokens for s in a] != [s.code_tokens for s in b]

    def test_every_summary_matches_the_template_inverse(self):
        for s in generate_synthetic_corpus(self.spec, seed=11):
            assert s.summary_tokens == invert_templates(s.code_tokens)

    def test_statement_counts_respect_range(self):
        for s in generate_synthetic_corpus(self.spec, seed=5):
            count = len(split_statement_tokens(s.code_tokens))
            assert 3 <= count <= 8

    def test_payload_sits_mid_function(self):
        for s in generate_synthetic_corpus(self.spec, seed=9):
            stmts = statements(s.code_tokens)
            payload_rows = [i for i, stmt in enumerate(stmts)
                            if stmt[0] in ("emit", "this") or stmt[:2] == ["return", "this"]]
            assert len(payload_rows) == 1
            assert 0 < payload_rows[0] < len(stmts) - 1

    def test_multi_payload_last_one_wins(self):
        spec = SyntheticSpec(projects=6, samples_per_project=10,
                             statement_range=(6, 10), max_payloads=3)
        counts = set()
        for s in generate_synthetic_corpus(spec, seed=13):
            assert s.summary_tokens == invert_templates(s.code_tokens, max_payloads=3)
            stmts = statements(s.code_tokens)
            payload_rows = [i for i, stmt in enumerate(stmts)
                            if stmt[0] in ("emit", "this") or stmt[:2] == ["return", "this"]]
            counts.add(len(payload_rows))
            assert all(0 < i < len(stmts) - 1 for i in payload_rows)
        assert {1, 2, 3} <= counts

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(statement_range=(2, 5)).validate()
        with pytest.raises(ConfigError):
            SyntheticSpec(families=("emit", "unknown")).validate()
        with pytest.raises(ConfigError):
            SyntheticSpec.from_dict({"projects": 2, "bogus": 1})
        with pytest.raises(ConfigError):
            SyntheticSpec(statement_range=(4, 6), max_payloads=3).validate()
