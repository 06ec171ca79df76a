"""BLEU, METEOR (with a brute-force alignment oracle), and the comparison of two
scored systems (against the earlier set analyses as a reference)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stmtmem.config import canonical_json
from stmtmem.errors import UsageError
from stmtmem.metrics import (
    ScoredCorpus,
    ScoredSample,
    bleu_corpus,
    canonicalize,
    check_aligned,
    compare,
    meteor,
    score_corpus,
)
from stmtmem.stats import paired_t_test


class TestBleu:
    def test_perfect_corpus_scores_100(self):
        pairs = [("the cat sat on the mat".split(),) * 2,
                 ("a b c d e".split(),) * 2]
        assert bleu_corpus(pairs) == pytest.approx(100.0, abs=1e-9)

    def test_disjoint_vocabulary_scores_0(self):
        pairs = [("a b c d".split(), "w x y z".split())]
        assert bleu_corpus(pairs) == 0.0

    def test_hand_computed_example(self):
        ref = "the cat sat on the mat".split()
        hyp = "the cat sat on mat".split()
        expected = 100.0 * math.exp(-0.2) * (1.0 * 0.75 * (2 / 3) * 0.5) ** 0.25
        score = bleu_corpus([(ref, hyp)])
        assert score == pytest.approx(expected, abs=1e-9)
        assert score == pytest.approx(57.89, abs=0.01)

    def test_empty_corpus_rejected(self):
        with pytest.raises(UsageError):
            bleu_corpus([])

    def test_permutation_invariance(self):
        pairs = [("a b c d".split(), "a b c e".split()),
                 ("x y z w".split(), "x y w z".split()),
                 ("p q r s t".split(), "p q r s".split())]
        assert bleu_corpus(pairs) == bleu_corpus(pairs[::-1])

    def test_case_insensitive_canonicalization(self):
        pairs = [("The Cat Sat On The Mat".split(), "the cat sat on the mat".split())]
        assert bleu_corpus(pairs) == pytest.approx(100.0)


def brute_force_meteor_stats(pred, ref):
    """Exhaustive alignment search: maximum matches, then minimum chunks.
    Only feasible for short inputs; entirely independent of the library's
    alignment code."""
    best = None
    ref_positions = range(len(ref))

    def chunks_of(pairs):
        chunks = 0
        prev = None
        for i, j in pairs:
            if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
                chunks += 1
            prev = (i, j)
        return chunks

    def extend(i, used, pairs):
        nonlocal best
        if i == len(pred):
            key = (len(pairs), -chunks_of(pairs))
            if best is None or key > best:
                best = key
            return
        extend(i + 1, used, pairs)
        for j in ref_positions:
            if j not in used and ref[j] == pred[i]:
                extend(i + 1, used | {j}, pairs + [(i, j)])

    extend(0, frozenset(), [])
    matches, neg_chunks = best
    return matches, -neg_chunks


def brute_force_meteor(pred, ref):
    pred = [t.lower() for t in pred]
    ref = [t.lower() for t in ref]
    m, chunks = brute_force_meteor_stats(pred, ref)
    if m == 0:
        return 0.0
    precision, recall = m / len(pred), m / len(ref)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    return fmean * (1 - 0.5 * (chunks / m) ** 3)


class TestMeteor:
    def test_exact_match_hand_value(self):
        score = meteor("a b c".split(), "a b c".split())
        assert score == pytest.approx(1.0 * (1 - 0.5 * (1 / 3) ** 3), abs=1e-12)
        assert score == pytest.approx(0.98148, abs=1e-5)

    def test_no_overlap_scores_zero(self):
        assert meteor(["x"], ["y"]) == 0.0

    def test_swapped_bigram_hand_value(self):
        assert meteor("b a".split(), "a b".split()) == pytest.approx(0.5, abs=1e-12)

    def test_empty_prediction_scores_zero(self):
        assert meteor([], "a b".split()) == 0.0

    def test_matches_brute_force_on_200_random_small_cases(self):
        rng = np.random.default_rng(77)
        alphabet = ["a", "b", "c"]
        for _ in range(200):
            pred = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 7))]
            ref = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(1, 7))]
            assert meteor(pred, ref) == pytest.approx(brute_force_meteor(pred, ref),
                                                      abs=1e-12), (pred, ref)

    def test_repeated_tokens_use_minimum_chunks(self):
        # pred "a b a" vs ref "a a b": best alignment keeps the "a b" bigram.
        pred, ref = "a b a".split(), "a a b".split()
        assert meteor(pred, ref) == pytest.approx(brute_force_meteor(pred, ref), abs=1e-12)

    @given(st.lists(st.sampled_from("abcd"), min_size=0, max_size=10),
           st.lists(st.sampled_from("abcd"), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_bounded_between_zero_and_one(self, pred, ref):
        score = meteor(pred, ref)
        assert 0.0 <= score <= 1.0


class TestScoreCorpus:
    def test_aligned_entries_and_aggregates(self):
        records = [("s1", "a b c d".split(), "a b c d".split()),
                   ("s2", "x y".split(), "x z".split())]
        scored = score_corpus(records)
        assert [e.sample_id for e in scored.entries] == ["s1", "s2"]
        assert scored.mean_meteor == pytest.approx(
            (meteor(records[0][2], records[0][1]) + meteor(records[1][2], records[1][1])) / 2)
        assert 0.0 <= scored.corpus_bleu <= 100.0


def scored(preds, refs):
    """The scored corpus of prediction dict `preds`, in sorted id order as
    `stmtmem analyze` scores it."""
    return score_corpus((sid, refs[sid], preds[sid]) for sid in sorted(refs))


def reference_compare(preds_a, preds_b, refs):
    """The analysis `compare` replaced: an overall t-test over per-id METEOR
    dicts, a difference set that re-checks the alignment and scores every
    sample again, and improved sets from those dicts. Its one change is the
    JSON rule for a degenerate test: an infinite t is null."""
    def finite(t):
        return None if math.isinf(t) else t

    def set_scores(ids, preds):
        if not ids:
            return None
        sub = score_corpus((sid, refs[sid], preds[sid]) for sid in ids)
        return {"bleu": sub.corpus_bleu, "mean_meteor": sub.mean_meteor}

    check_aligned("system A", preds_a, "system B", preds_b)
    check_aligned("predictions", preds_a, "references", refs)
    scored_a, scored_b = scored(preds_a, refs), scored(preds_b, refs)
    met_a = {e.sample_id: e.meteor for e in scored_a.entries}
    met_b = {e.sample_id: e.meteor for e in scored_b.entries}
    ids = sorted(refs)
    difference = [sid for sid in sorted(preds_a)
                  if canonicalize(preds_a[sid]) != canonicalize(preds_b[sid])]
    same = [sid for sid in sorted(preds_a) if sid not in difference]
    overall_t = paired_t_test([met_a[sid] for sid in ids], [met_b[sid] for sid in ids])
    diff_t = paired_t_test([meteor(preds_a[sid], refs[sid]) for sid in difference],
                           [meteor(preds_b[sid], refs[sid]) for sid in difference])
    report = {
        "overall": {
            "a": {"meteor": scored_a.mean_meteor, "bleu": scored_a.corpus_bleu},
            "b": {"meteor": scored_b.mean_meteor, "bleu": scored_b.corpus_bleu},
            "ttest": ({"t": finite(overall_t.t), "p": overall_t.p,
                       "degenerate": overall_t.degenerate}
                      if overall_t else {"t": None, "p": None, "degenerate": None}),
        },
        "difference_set": {
            "pct": 100.0 * len(difference) / len(ids),
            "ids": difference,
            "scores": {"difference": {"a": set_scores(difference, preds_a),
                                      "b": set_scores(difference, preds_b)},
                       "same": {"a": set_scores(same, preds_a), "b": set_scores(same, preds_b)}},
            "ttest": {"t": finite(diff_t.t), "p": diff_t.p} if diff_t else None,
        },
    }
    for key, first, second in (("improved_set_a_over_b", met_a, met_b),
                               ("improved_set_b_over_a", met_b, met_a)):
        better = sorted(sid for sid in first if first[sid] > second[sid])
        report[key] = {
            "pct": 100.0 * len(better) / len(first), "ids": better,
            "mean_a": sum(first[sid] for sid in better) / len(better) if better else None,
            "mean_b": sum(second[sid] for sid in better) / len(better) if better else None,
        }
    return report


WORDS = st.sampled_from(["a", "b", "c", "A", "B"])


@st.composite
def prediction_sets(draw):
    """(refs, preds_a, preds_b) with B identical to A, A in another case,
    empty, disjoint from A and the references, or free, per sample or for
    the whole system."""
    ids = [f"s{i}" for i in draw(st.permutations(range(draw(st.integers(1, 8)))))]
    refs = {sid: draw(st.lists(WORDS, min_size=1, max_size=5)) for sid in ids}
    preds_a = {sid: draw(st.lists(WORDS, max_size=5)) for sid in ids}
    kinds = ["same", "case", "empty", "disjoint", "free"]
    system = draw(st.sampled_from(kinds + ["mixed"]))
    preds_b = {}
    for sid in ids:
        kind = draw(st.sampled_from(kinds)) if system == "mixed" else system
        preds_b[sid] = {"same": list(preds_a[sid]),
                        "case": [t.swapcase() for t in preds_a[sid]],
                        "empty": [],
                        "disjoint": draw(st.lists(st.sampled_from(["x", "y"]), min_size=1,
                                                  max_size=5)),
                        "free": draw(st.lists(WORDS, max_size=5))}[kind]
    return refs, preds_a, preds_b


class TestCompare:
    @given(prediction_sets())
    @settings(max_examples=150, deadline=None)
    def test_json_equal_to_the_reference(self, case):
        refs, preds_a, preds_b = case
        mine = compare(scored(preds_a, refs), scored(preds_b, refs))
        assert canonical_json(mine) == canonical_json(reference_compare(preds_a, preds_b, refs))

    def test_constant_difference_has_a_null_t_and_p_0(self):
        refs = TestDifferenceSet.refs
        report = compare(scored(refs, refs), scored({k: v[:1] for k, v in refs.items()}, refs))
        assert report["overall"]["ttest"] == {"t": None, "p": 0.0, "degenerate": True}
        assert report["difference_set"]["ttest"] == {"t": None, "p": 0.0}
        canonical_json(report)


class TestDifferenceSet:
    refs = {"s1": ["a", "b"], "s2": ["c", "d"], "s3": ["e", "f"]}

    def test_identical_systems_have_empty_difference(self):
        preds = {"s1": ["a", "b"], "s2": ["c"], "s3": ["x"]}
        part = compare(scored(preds, self.refs), scored(dict(preds), self.refs))["difference_set"]
        assert part["ids"] == []
        assert part["pct"] == 0.0
        assert part["scores"]["same"]["a"] == part["scores"]["same"]["b"] is not None
        assert part["scores"]["difference"] == {"a": None, "b": None}
        assert part["ttest"] is None

    def test_fully_disjoint_predictions(self):
        a = {k: ["one"] for k in self.refs}
        b = {k: ["two"] for k in self.refs}
        part = compare(scored(a, self.refs), scored(b, self.refs))["difference_set"]
        assert part["pct"] == 100.0
        assert part["scores"]["same"] == {"a": None, "b": None}

    def test_two_of_three_differ(self):
        a = {"s1": ["a", "b"], "s2": ["c"], "s3": ["x"]}
        b = {"s1": ["a", "b"], "s2": ["d"], "s3": ["y"]}
        part = compare(scored(a, self.refs), scored(b, self.refs))["difference_set"]
        assert part["pct"] == pytest.approx(200 / 3)
        assert part["ids"] == ["s2", "s3"]

    def test_partition_swap_symmetry(self):
        a = {"s1": ["a", "b"], "s2": ["c"], "s3": ["x"]}
        b = {"s1": ["a", "b"], "s2": ["d"], "s3": ["e", "f"]}
        ab = compare(scored(a, self.refs), scored(b, self.refs))
        ba = compare(scored(b, self.refs), scored(a, self.refs))
        assert ab["difference_set"]["ids"] == ba["difference_set"]["ids"]
        assert (ab["difference_set"]["scores"]["difference"]["a"]
                == ba["difference_set"]["scores"]["difference"]["b"])
        assert ab["improved_set_a_over_b"] == ba["improved_set_b_over_a"]

    def test_canonicalization_applies(self):
        a = {"s1": ["A", "B"], "s2": ["c"], "s3": ["x"]}
        b = {"s1": ["a", "b"], "s2": ["c"], "s3": ["x"]}
        part = compare(scored(a, self.refs), scored(b, self.refs))["difference_set"]
        assert part["ids"] == []


def scored_meteors(meteors):
    """A scored corpus whose entries carry the given per-id METEOR values."""
    entries = [ScoredSample(sid, ["r"], ["p"], m) for sid, m in sorted(meteors.items())]
    return ScoredCorpus(entries, 0.0, sum(meteors.values()) / len(meteors))


class TestImprovedSet:
    def improved(self, a, b):
        return compare(scored_meteors(a), scored_meteors(b))["improved_set_a_over_b"]

    def test_no_strict_improvement(self):
        scores = {"s1": 0.5, "s2": 0.7}
        out = self.improved(scores, dict(scores))
        assert out["ids"] == [] and out["pct"] == 0.0
        assert out["mean_a"] is None and out["mean_b"] is None

    def test_uniform_improvement(self):
        a = {"s1": 0.6, "s2": 0.8}
        b = {"s1": 0.5, "s2": 0.7}
        out = self.improved(a, b)
        assert out["pct"] == 100.0
        assert out["mean_a"] - out["mean_b"] == pytest.approx(0.1)

    def test_subset_mean_dominance(self):
        rng = np.random.default_rng(3)
        a = {f"s{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, 30))}
        b = {f"s{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, 30))}
        out = self.improved(a, b)
        if out["ids"]:
            assert out["mean_a"] > out["mean_b"]
