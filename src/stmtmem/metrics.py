"""Corpus BLEU-4, exact-match METEOR, and the comparison of two scored systems.

All metrics canonicalize first: lowercase, whitespace tokenization. METEOR
uses exact unigram matches only (no stemming or synonymy): the alignment
maximizes the number of matches and, among maximal alignments, minimizes
the chunk count; then

    P = m/|pred|, R = m/|ref|, Fmean = 10PR / (R + 9P),
    penalty = 0.5 * (chunks/m)^3, score = Fmean * (1 - penalty).

BLEU is corpus-level, unsmoothed: clipped modified n-gram precisions for
n=1..4, uniform 1/4 weights in the geometric mean, brevity penalty
exp(1 - r/c) when the corpus hypothesis length c is below the reference
length r, scaled by 100, and 0 if any precision is 0.

`score_corpus` computes each sample's METEOR once; `compare` builds the
difference set, the improved sets and their paired t-tests from two scored
corpora without scoring a sample again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import exp, log
from typing import Iterable, Mapping, Sequence

from .errors import AlignmentError, UsageError
from .stats import TTestResult, paired_t_test, ttest_fields

# Exact chunk minimization is exponential in repeated tokens; beyond this
# many reference tokens a deterministic in-order greedy alignment is used.
_EXACT_ALIGN_LIMIT = 16


def canonicalize(tokens) -> list[str]:
    """Lowercase, single-space tokenization; accepts a string or tokens."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    return [t.lower() for t in tokens if t]


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_corpus(pairs: Iterable[tuple[Sequence[str], Sequence[str]]]) -> float:
    """Corpus BLEU-4 in [0, 100] over (reference, prediction) pairs."""
    matched = [0] * 4
    possible = [0] * 4
    ref_len = 0
    hyp_len = 0
    seen = False
    for ref_raw, hyp_raw in pairs:
        seen = True
        ref = canonicalize(ref_raw)
        hyp = canonicalize(hyp_raw)
        ref_len += len(ref)
        hyp_len += len(hyp)
        for n in range(1, 5):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            matched[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            possible[n - 1] += max(len(hyp) - n + 1, 0)
    if not seen:
        raise UsageError("bleu_corpus: empty corpus")
    if any(p == 0 or m == 0 for m, p in zip(matched, possible)):
        return 0.0
    log_precision = sum(log(m / p) for m, p in zip(matched, possible)) / 4.0
    brevity = 1.0 if hyp_len >= ref_len else exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * exp(log_precision)


def _greedy_alignment(pred: Sequence[str], ref: Sequence[str]) -> tuple[int, int]:
    """In-order first-fit fallback: still a maximal matching, chunk count
    not guaranteed minimal."""
    ref_slots: dict[str, list[int]] = {}
    for j, tok in enumerate(ref):
        ref_slots.setdefault(tok, []).append(j)
    matches = 0
    chunks = 0
    prev_j = None
    for i, tok in enumerate(pred):
        slots = ref_slots.get(tok)
        if not slots:
            prev_j = None
            continue
        j = slots.pop(0)
        matches += 1
        if prev_j is None or j != prev_j + 1:
            chunks += 1
        prev_j = j
    return matches, chunks


def _align(pred: Sequence[str], ref: Sequence[str]) -> tuple[int, int]:
    """Exact unigram alignment: the maximum number of matches and, among
    maximal alignments, the minimum chunk count."""
    pred_counts = Counter(pred)
    ref_counts = Counter(ref)
    max_matches = sum(min(c, ref_counts[t]) for t, c in pred_counts.items())
    if max_matches == 0:
        return 0, 0
    if len(ref) > _EXACT_ALIGN_LIMIT:
        return _greedy_alignment(pred, ref)

    positions: dict[str, list[int]] = {}
    for j, tok in enumerate(ref):
        positions.setdefault(tok, []).append(j)
    memo: dict[tuple[int, int, int], tuple[int, int]] = {}

    def best(i: int, used: int, prev_j: int) -> tuple[int, int]:
        """(matches, adjacent continuations) achievable from pred[i:]."""
        if i == len(pred):
            return 0, 0
        key = (i, used, prev_j)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = best(i + 1, used, -1)          # leave pred[i] unmatched
        for j in positions.get(pred[i], ()):
            if used >> j & 1:
                continue
            m, c = best(i + 1, used | (1 << j), j)
            cand = (m + 1, c + (1 if prev_j >= 0 and j == prev_j + 1 else 0))
            if cand > result:
                result = cand
        memo[key] = result
        return result

    matches, continuations = best(0, 0, -1)
    return matches, matches - continuations


def meteor(pred_tokens, ref_tokens) -> float:
    """Exact-match METEOR in [0, 1]; 0 when nothing matches or the
    prediction is empty."""
    pred = canonicalize(pred_tokens)
    ref = canonicalize(ref_tokens)
    if not pred or not ref:
        return 0.0
    m, chunks = _align(pred, ref)
    if m == 0:
        return 0.0
    precision = m / len(pred)
    recall = m / len(ref)
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / m) ** 3
    return fmean * (1.0 - penalty)


@dataclass
class ScoredSample:
    sample_id: str
    reference: list[str]
    prediction: list[str]
    meteor: float


@dataclass
class ScoredCorpus:
    entries: list[ScoredSample]
    corpus_bleu: float
    mean_meteor: float


def score_corpus(records: Iterable[tuple[str, Sequence[str], Sequence[str]]]) -> ScoredCorpus:
    """Score aligned (sample_id, reference tokens, predicted tokens) records."""
    entries = []
    for sample_id, ref, pred in records:
        entries.append(ScoredSample(sample_id, canonicalize(ref), canonicalize(pred),
                                    meteor(pred, ref)))
    if not entries:
        raise UsageError("score_corpus: empty corpus")
    bleu = bleu_corpus((e.reference, e.prediction) for e in entries)
    mean = sum(e.meteor for e in entries) / len(entries)
    return ScoredCorpus(entries, bleu, mean)


def check_aligned(name_a: str, a: Mapping, name_b: str, b: Mapping) -> None:
    missing_b = sorted(set(a) - set(b))
    missing_a = sorted(set(b) - set(a))
    if missing_a or missing_b:
        parts = []
        if missing_b:
            parts.append(f"missing from {name_b}: {', '.join(missing_b[:10])}")
        if missing_a:
            parts.append(f"missing from {name_a}: {', '.join(missing_a[:10])}")
        raise AlignmentError("sample ids are not aligned; " + "; ".join(parts))


def _mean_meteor(entries: list[ScoredSample]) -> float | None:
    return sum(e.meteor for e in entries) / len(entries) if entries else None


def _subset_scores(entries: list[ScoredSample]) -> dict | None:
    """Corpus BLEU and mean METEOR over a subset of scored entries, None
    for an empty subset."""
    if not entries:
        return None
    return {"bleu": bleu_corpus((e.reference, e.prediction) for e in entries),
            "mean_meteor": _mean_meteor(entries)}


def _meteor_t_test(pairs) -> TTestResult | None:
    """Paired t-test on the per-sample METEOR of (A entry, B entry) pairs."""
    return paired_t_test([a.meteor for a, _ in pairs], [b.meteor for _, b in pairs])


def compare(scored_a: ScoredCorpus, scored_b: ScoredCorpus) -> dict:
    """The `overall`, `difference_set` and `improved_set_*` report sections
    of two systems whose corpora hold the same sample ids in the same
    order (`stmtmem analyze` scores both on the test split's sorted ids).

    The difference set holds the samples whose canonical predictions
    differ, with both systems' BLEU and mean METEOR on it and on the rest;
    an improved set holds the samples where one system's METEOR strictly
    exceeds the other's. Ids and subsets keep the corpora's order."""
    pairs = list(zip(scored_a.entries, scored_b.entries))
    differ = [(a, b) for a, b in pairs if a.prediction != b.prediction]
    same = [(a, b) for a, b in pairs if a.prediction == b.prediction]
    overall_t, differ_t = _meteor_t_test(pairs), _meteor_t_test(differ)
    report = {
        "overall": {
            "a": {"meteor": scored_a.mean_meteor, "bleu": scored_a.corpus_bleu},
            "b": {"meteor": scored_b.mean_meteor, "bleu": scored_b.corpus_bleu},
            "ttest": {**ttest_fields(overall_t),
                      "degenerate": None if overall_t is None else overall_t.degenerate},
        },
        "difference_set": {
            "pct": 100.0 * len(differ) / len(pairs),
            "ids": [a.sample_id for a, _ in differ],
            "scores": {name: {"a": _subset_scores([a for a, _ in subset]),
                              "b": _subset_scores([b for _, b in subset])}
                       for name, subset in (("difference", differ), ("same", same))},
            "ttest": None if differ_t is None else ttest_fields(differ_t),
        },
    }
    for key, first in (("improved_set_a_over_b", 0), ("improved_set_b_over_a", 1)):
        wins = [(p[first], p[1 - first]) for p in pairs if p[first].meteor > p[1 - first].meteor]
        report[key] = {"pct": 100.0 * len(wins) / len(pairs),
                       "ids": [w.sample_id for w, _ in wins],
                       "mean_a": _mean_meteor([w for w, _ in wins]),
                       "mean_b": _mean_meteor([x for _, x in wins])}
    return report
