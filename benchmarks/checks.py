"""Correctness checks made apart from the program.

Each check returns a list of failure messages (empty when it holds), so a
run can report every failure at once. BLEU-4 and METEOR are re-implemented
here from their definitions; the decoding check replays greedy search from
the members' next-word distributions; the gradient check compares backward
against central differences. `selftest.py` shows each check failing on a
deliberately wrong input.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

MAX_GENERATED = 12
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED = ("<PAD>", "<s>", "</s>", "<UNK>")


# -- files ---------------------------------------------------------------------

def read_references(path: str) -> dict[str, list[str]]:
    """sample_id -> summary tokens from a dataset file (4 tab fields)."""
    refs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            refs[fields[0]] = fields[3].split()
    return refs


def read_predictions(path: str) -> dict[str, list[str]]:
    preds = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            sample_id, tokens = line.rstrip("\n").split("\t")
            preds[sample_id] = tokens.split()
    return preds


# -- metrics -------------------------------------------------------------------

def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu4(pairs) -> float:
    """Unsmoothed corpus BLEU-4 x 100 over (reference, hypothesis) token
    lists, lowercased: clipped n-gram precisions for n = 1..4, geometric
    mean, brevity penalty exp(1 - r/c) when c < r; 0 if a precision is 0."""
    clipped, total = [0] * 4, [0] * 4
    ref_len = hyp_len = 0
    for ref, hyp in pairs:
        ref = [t.lower() for t in ref]
        hyp = [t.lower() for t in hyp]
        ref_len += len(ref)
        hyp_len += len(hyp)
        for n in range(1, 5):
            ref_counts = _ngram_counts(ref, n)
            for gram, c in _ngram_counts(hyp, n).items():
                clipped[n - 1] += min(c, ref_counts.get(gram, 0))
                total[n - 1] += c
    if min(clipped) == 0 or min(total) == 0:
        return 0.0
    precision = math.prod(c / t for c, t in zip(clipped, total)) ** 0.25
    brevity = math.exp(1.0 - ref_len / hyp_len) if hyp_len < ref_len else 1.0
    return 100.0 * brevity * precision


def meteor_exact(hyp, ref) -> float:
    """Exact-match METEOR: among alignments with the most matched unigrams,
    the one with the fewest chunks; Fmean = 10PR/(R+9P), penalty
    0.5*(chunks/m)^3. Searched exhaustively over reference positions."""
    hyp = [t.lower() for t in hyp]
    ref = [t.lower() for t in ref]
    best = (0, 0)   # (matches, -chunks)

    def chunks_of(pairs):
        pairs = sorted(pairs)
        return sum(1 for k, (i, j) in enumerate(pairs)
                   if k == 0 or (i, j) != (pairs[k - 1][0] + 1, pairs[k - 1][1] + 1))

    def search(j, used, pairs):
        nonlocal best
        if j == len(ref):
            if pairs:
                best = max(best, (len(pairs), -chunks_of(pairs)))
            return
        search(j + 1, used, pairs)
        for i, tok in enumerate(hyp):
            if tok == ref[j] and i not in used:
                search(j + 1, used | {i}, pairs + [(i, j)])

    search(0, frozenset(), [])
    m, neg_chunks = best
    if m == 0:
        return 0.0
    p, r = m / len(hyp), m / len(ref)
    fmean = 10.0 * p * r / (r + 9.0 * p)
    return fmean * (1.0 - 0.5 * (-neg_chunks / m) ** 3)


def check_report(preds: dict, refs: dict, report: dict, tol: float = 1e-9) -> list[str]:
    """`evaluate`'s BLEU and mean METEOR against this module's."""
    errors = []
    if set(preds) != set(refs):
        return [f"prediction ids differ from reference ids ({len(preds)} vs {len(refs)})"]
    ids = sorted(refs)
    bleu = corpus_bleu4((refs[i], preds[i]) for i in ids)
    met = sum(meteor_exact(preds[i], refs[i]) for i in ids) / len(ids)
    if not abs(bleu - report["bleu"]) <= tol:
        errors.append(f"BLEU {report['bleu']!r} differs from the recomputed {bleu!r}")
    if not abs(met - report["meteor"]) <= tol:
        errors.append(f"METEOR {report['meteor']!r} differs from the recomputed {met!r}")
    if report.get("samples") != len(ids):
        errors.append(f"report counts {report.get('samples')} samples, not {len(ids)}")
    return errors


# -- decoding ------------------------------------------------------------------

def check_prediction_shape(preds: dict) -> list[str]:
    """At most 12 tokens, and never a reserved token."""
    errors = []
    for sample_id, tokens in preds.items():
        if len(tokens) > MAX_GENERATED:
            errors.append(f"{sample_id}: {len(tokens)} tokens, more than {MAX_GENERATED}")
        if any(t in RESERVED for t in tokens):
            errors.append(f"{sample_id}: emits a reserved token")
    return errors


def check_greedy(tokens: list[str], token_ids: dict, member_dists) -> list[str]:
    """Replay greedy search for one sample. `member_dists(prefix)` returns
    the members' next-word distributions for a prefix of ids. Every emitted
    token must be the argmax (ties to the lowest id) of their mean with
    <PAD>, <s> and <UNK> masked, and decoding must stop at </s> or after
    12 tokens."""
    prefix = [BOS_ID]
    expected = [token_ids.get(t, UNK_ID) for t in tokens]
    if len(tokens) < MAX_GENERATED:
        expected.append(EOS_ID)
    for step, want in enumerate(expected):
        dists = member_dists(prefix)
        mean = sum(dists) / len(dists)
        mean[[PAD_ID, BOS_ID, UNK_ID]] = -np.inf
        best = int(np.flatnonzero(mean == mean.max())[0])
        if best != want:
            return [f"step {step}: emitted id {want}, argmax of the mean is {best}"]
        prefix.append(want)
    return []


# -- training ------------------------------------------------------------------

def check_training_log(text: str) -> list[str]:
    """Four finite columns per epoch; train loss lower at the last epoch
    than at the first."""
    rows = [line.split("\t") for line in text.splitlines() if line]
    if len(rows) < 2 or any(len(r) != 4 for r in rows):
        return [f"training log has {len(rows)} rows, or rows without 4 columns"]
    values = np.array([[float(x) for x in r] for r in rows])
    errors = []
    if not np.all(np.isfinite(values)):
        errors.append("training log holds a non-finite value")
    if not values[-1, 1] < values[0, 1]:
        errors.append(f"train loss {values[-1, 1]} at the last epoch is not below "
                      f"{values[0, 1]} at the first")
    return errors


def sample_coordinates(grads: dict, count: int, seed: int) -> list[tuple[str, int]]:
    """`count` (parameter, flat index) pairs, drawn with a fixed seed from
    the coordinates whose gradient is at least 1e-5 in magnitude, so that a
    wrong gradient there is visible to the check."""
    pool = [(name, int(i)) for name in sorted(grads)
            for i in np.flatnonzero(np.abs(grads[name].reshape(-1)) >= 1e-5)]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return [pool[i] for i in sorted(picks)]


def check_gradient(grads: dict, numeric: dict, tol: float = 1e-4) -> list[str]:
    """Analytic against central-difference gradients on the sampled
    coordinates: |a - n| / (max(|a|, |n|) + 1e-3) below `tol`."""
    errors = []
    if not numeric:
        return ["no gradient coordinates to check"]
    for (name, index), num in numeric.items():
        ana = float(grads[name].reshape(-1)[index])
        err = abs(ana - num) / (max(abs(ana), abs(num)) + 1e-3)
        if not err < tol:
            errors.append(f"{name}[{index}]: backward {ana:.6e}, central difference "
                          f"{num:.6e} (relative error {err:.2e})")
    return errors
