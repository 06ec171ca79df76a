"""Dataset ingestion: vocabularies, statement splitting, encoding, splits.

File formats (bit-exact contracts):

  dataset     one sample per line, UTF-8:
              sample_id<TAB>project_id<TAB>code tokens space-separated
              (may include <NL>)<TAB>summary tokens space-separated
  vocabulary  one token per line; the line number is the id; the first
              four lines are the reserved tokens <PAD>, <s>, </s>, <UNK>.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import ModelConfig
from .errors import DataError, UsageError, VocabularyError

PAD, BOS, EOS, UNK = "<PAD>", "<s>", "</s>", "<UNK>"
RESERVED_TOKENS = (PAD, BOS, EOS, UNK)
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
NEWLINE_TOKEN = "<NL>"


@dataclass
class Sample:
    sample_id: str
    project_id: str
    code_tokens: list[str]
    summary_tokens: list[str]

    def __post_init__(self):
        if not self.code_tokens:
            raise UsageError(f"sample {self.sample_id}: empty code")
        if not self.summary_tokens:
            raise UsageError(f"sample {self.sample_id}: empty summary")


class Vocabulary:
    """Token <-> id bijection with fixed reserved ids 0..3."""

    def __init__(self, id_to_token: Sequence[str], max_size: int):
        if tuple(id_to_token[:4]) != RESERVED_TOKENS:
            raise UsageError(f"vocabulary must start with the reserved tokens {RESERVED_TOKENS}")
        self.id_to_token = list(id_to_token)
        self.max_size = int(max_size)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            duplicate = next(tok for i, tok in enumerate(self.id_to_token)
                             if self.token_to_id[tok] != i)
            raise UsageError(f"vocabulary contains duplicate token {duplicate!r}")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def decode(self, token_id: int) -> str:
        if token_id < 0 or token_id >= len(self.id_to_token):
            raise VocabularyError(f"token id {token_id} outside vocabulary of size {len(self)}")
        return self.id_to_token[token_id]

    def save(self, path: str) -> None:
        write_text(path, "".join(token + "\n" for token in self.id_to_token), "vocabulary")

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        tokens = read_text(path, "vocabulary").split("\n")
        if tokens and tokens[-1] == "":
            tokens.pop()
        try:
            return cls(tokens, max_size=len(tokens))
        except UsageError as exc:
            raise DataError(f"{path}: {exc}") from exc


def build_vocab(samples: Sequence[Sample], max_size: int, field: str) -> Vocabulary:
    """Frequency-ranked vocabulary over one field; ties break lexicographically.

    `max_size` counts the 4 reserved ids. Reserved token strings occurring
    in the corpus keep their reserved ids and are excluded from ranking.
    """
    if max_size <= 4:
        raise UsageError(f"max_size must exceed the 4 reserved ids, got {max_size}")
    if field not in ("code", "summary"):
        raise UsageError(f"field must be 'code' or 'summary', got {field!r}")
    counts: Counter[str] = Counter()
    for sample in samples:
        tokens = sample.code_tokens if field == "code" else sample.summary_tokens
        counts.update(t for t in tokens if t not in RESERVED_TOKENS)
    if not counts:
        raise UsageError("empty corpus: no tokens to build a vocabulary from")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [token for token, _ in ranked[: max_size - 4]]
    return Vocabulary(list(RESERVED_TOKENS) + kept, max_size=max_size)


@dataclass
class StatementMatrix:
    """n x Y grid of token ids; row i holds statement i, zero-padded."""

    ids: np.ndarray            # [n, Y] int64
    statement_count: int
    lengths: np.ndarray        # [n] int64, true length of each row


@dataclass
class EncodedSample:
    sample_id: str
    code_ids: np.ndarray       # [tdatlen] int64
    statements: StatementMatrix
    summary_ids: np.ndarray    # [comlen] int64, <s> ... </s> then pad


def split_statement_tokens(code_tokens: Sequence[str]) -> list[list[str]]:
    """Partition at <NL> markers; the delimiter is dropped, empty segments too."""
    statements: list[list[str]] = []
    current: list[str] = []
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


def split_statements(code_tokens: Sequence[str], vocab: Vocabulary, n: int, y: int) -> StatementMatrix:
    """Build the statement grid: first n statements, each truncated to its
    first y tokens, encoded with <UNK> fallback."""
    if n < 1 or y < 1:
        raise UsageError(f"statement grid dims must be positive, got n={n}, y={y}")
    statements = split_statement_tokens(code_tokens)[:n]
    ids = np.zeros((n, y), dtype=np.int64)
    lengths = np.zeros(n, dtype=np.int64)
    for i, stmt in enumerate(statements):
        row = stmt[:y]
        lengths[i] = len(row)
        ids[i, : len(row)] = [vocab.encode(t) for t in row]
    return StatementMatrix(ids=ids, statement_count=len(statements), lengths=lengths)


def encode_sample(sample: Sample, code_vocab: Vocabulary, sum_vocab: Vocabulary,
                  config: ModelConfig) -> EncodedSample:
    """Fixed-shape encoding: code padded/truncated to tdatlen (head kept),
    summary framed as <s> ... </s> in comlen slots with </s> always the
    final retained token."""
    code_ids = np.zeros(config.tdatlen, dtype=np.int64)
    kept = sample.code_tokens[: config.tdatlen]
    code_ids[: len(kept)] = [code_vocab.encode(t) for t in kept]

    summary = [BOS_ID] + [sum_vocab.encode(t) for t in sample.summary_tokens] + [EOS_ID]
    if len(summary) > config.comlen:
        summary = summary[: config.comlen - 1] + [EOS_ID]
    summary_ids = np.zeros(config.comlen, dtype=np.int64)
    summary_ids[: len(summary)] = summary

    statements = split_statements(sample.code_tokens, code_vocab, config.n, config.y)
    return EncodedSample(sample.sample_id, code_ids, statements, summary_ids)


def split_by_project(samples: Sequence[Sample], ratios: Sequence[float],
                     seed: int) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """Project-level split: whole projects are assigned greedily (largest
    sample-count deficit first) so no project spans two buckets."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise UsageError(f"need three positive ratios, got {tuple(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise UsageError(f"ratios must sum to 1, got {sum(ratios)}")
    project_sizes: dict[str, int] = {}
    for sample in samples:
        project_sizes[sample.project_id] = project_sizes.get(sample.project_id, 0) + 1
    projects = sorted(project_sizes)
    if len(projects) < 3:
        raise UsageError(f"need at least 3 projects for a 3-way split, got {len(projects)}")

    rng = np.random.default_rng(seed)
    order = [projects[i] for i in rng.permutation(len(projects))]
    total = len(samples)
    targets = [r * total for r in ratios]
    assigned = [0.0, 0.0, 0.0]
    buckets: list[set[str]] = [set(), set(), set()]
    for idx, project in enumerate(order):
        empty = [i for i in range(3) if not buckets[i]]
        remaining = len(order) - idx
        if empty and remaining <= len(empty):
            choice = empty[0]
        else:
            deficits = [targets[i] - assigned[i] for i in range(3)]
            choice = max(range(3), key=lambda i: (deficits[i], -i))
        buckets[choice].add(project)
        assigned[choice] += project_sizes[project]

    return tuple([s for s in samples if s.project_id in bucket] for bucket in buckets)


def filter_by_length(samples: Sequence[Sample], min_statements: int) -> list[Sample]:
    """Keep samples with at least `min_statements` statements, stable order."""
    if min_statements < 1:
        raise UsageError(f"min_statements must be >= 1, got {min_statements}")
    return [s for s in samples if len(split_statement_tokens(s.code_tokens)) >= min_statements]


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of file `path`; `what` names the file in the error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def write_text(path: str, text: str, what: str) -> None:
    """Write `text` to file `path` as UTF-8; `what` names the file in the error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {what} to {path}: {exc}") from exc


def write_dataset(path: str, samples: Iterable[Sample]) -> None:
    write_text(path, "".join(
        f"{s.sample_id}\t{s.project_id}\t{' '.join(s.code_tokens)}\t{' '.join(s.summary_tokens)}\n"
        for s in samples), "dataset")


def read_records(path: str, what: str, width: int):
    """(line number, fields) of each non-empty line of a text file whose
    lines hold `width` tab-separated fields, the first a sample id. A line
    of another width or a repeated id is a DataError that names the line."""
    seen: set[str] = set()
    for lineno, line in enumerate(read_text(path, what).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != width:
            raise DataError(f"{path}:{lineno}: expected {width} tab-separated fields, "
                            f"got {len(parts)}")
        if parts[0] in seen:
            raise DataError(f"{path}:{lineno}: duplicate sample id {parts[0]!r}")
        seen.add(parts[0])
        yield lineno, parts


def read_dataset(path: str) -> list[Sample]:
    samples = []
    for lineno, (sample_id, project_id, code, summary) in read_records(path, "dataset", 4):
        try:
            samples.append(Sample(sample_id, project_id, code.split(), summary.split()))
        except UsageError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return samples
