"""Corpus BLEU-4, exact-match METEOR, and the set analyses.

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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import exp, log
from typing import Iterable, Mapping, Sequence

from .errors import AlignmentError, UsageError
from .stats import TTestResult, paired_t_test

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

    def meteor_by_id(self) -> dict[str, float]:
        return {e.sample_id: e.meteor for e in self.entries}


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


@dataclass
class SetPartition:
    """Difference/same split of a test corpus under two systems, with each
    system's metrics per set."""

    difference_ids: list[str]
    same_ids: list[str]
    difference_pct: float
    scores: dict    # {"difference": {"a"|"b": {"bleu", "mean_meteor"} | None}, "same": ...}
    ttest_difference: TTestResult | None


def _set_scores(ids, preds, refs):
    if not ids:
        return None
    scored = score_corpus((sid, refs[sid], preds[sid]) for sid in ids)
    return {"bleu": scored.corpus_bleu, "mean_meteor": scored.mean_meteor}


def difference_set(preds_a: Mapping[str, Sequence[str]], preds_b: Mapping[str, Sequence[str]],
                   refs: Mapping[str, Sequence[str]]) -> SetPartition:
    """Partition samples by whether the two systems' canonicalized
    predictions differ; report per-set BLEU and mean METEOR for both."""
    check_aligned("system A", preds_a, "system B", preds_b)
    check_aligned("predictions", preds_a, "references", refs)
    difference = []
    same = []
    for sid in sorted(preds_a):
        if canonicalize(preds_a[sid]) != canonicalize(preds_b[sid]):
            difference.append(sid)
        else:
            same.append(sid)
    total = len(difference) + len(same)
    ttest = None
    if len(difference) >= 2:
        met_a = [meteor(preds_a[sid], refs[sid]) for sid in difference]
        met_b = [meteor(preds_b[sid], refs[sid]) for sid in difference]
        ttest = paired_t_test(met_a, met_b)
    scores = {
        "difference": {"a": _set_scores(difference, preds_a, refs),
                       "b": _set_scores(difference, preds_b, refs)},
        "same": {"a": _set_scores(same, preds_a, refs),
                 "b": _set_scores(same, preds_b, refs)},
    }
    return SetPartition(difference, same, 100.0 * len(difference) / total, scores, ttest)


@dataclass
class ImprovedSet:
    ids: list[str]
    size_pct: float
    mean_a: float | None
    mean_b: float | None


def improved_set(meteor_a: Mapping[str, float], meteor_b: Mapping[str, float]) -> ImprovedSet:
    """Samples where system A's METEOR strictly exceeds system B's, with
    both systems' mean METEOR over that subset."""
    check_aligned("system A", meteor_a, "system B", meteor_b)
    ids = sorted(sid for sid in meteor_a if meteor_a[sid] > meteor_b[sid])
    if not meteor_a:
        raise UsageError("improved_set: empty score lists")
    if ids:
        mean_a = sum(meteor_a[sid] for sid in ids) / len(ids)
        mean_b = sum(meteor_b[sid] for sid in ids) / len(ids)
    else:
        mean_a = mean_b = None
    return ImprovedSet(ids, 100.0 * len(ids) / len(meteor_a), mean_a, mean_b)
