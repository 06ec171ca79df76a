"""Quick self-tests of the benchmark's correctness checks.

    python3 benchmarks/selftest.py        (or: pytest benchmarks/selftest.py)

Each check is shown to pass on the program's real output and to fail on a
deliberately wrong one: a swapped predicted token, a perturbed BLEU, a
gradient with one coordinate scaled, a bad training log. Takes about ten
seconds; needs the kept decode members.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import common  # noqa: E402

common.import_program()
import run  # noqa: E402

WORK = os.path.join(common.OUT_DIR, "selftest")


def fresh_dir(name: str) -> str:
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_metric_oracles():
    # Hand values shared with the program's criterion 4.
    bleu = checks.corpus_bleu4([("the cat sat on the mat".split(), "the cat sat on mat".split())])
    expect(abs(bleu - 57.89) < 0.01, f"BLEU oracle gave {bleu}")
    expect(abs(checks.meteor_exact("a b c".split(), "a b c".split()) - 0.98148) < 1e-5,
           "METEOR of an exact match")
    expect(abs(checks.meteor_exact("b a".split(), "a b".split()) - 0.5) < 1e-12,
           "METEOR of a swapped pair")
    expect(checks.meteor_exact(["x"], ["y"]) == 0.0, "METEOR without matches")


def test_report_check_catches_perturbed_bleu():
    from stmtmem.metrics import score_corpus
    refs = {f"s{i}": "save the user data".split() for i in range(4)}
    preds = {"s0": "save the user data".split(), "s1": "save the file data".split(),
             "s2": "load the user data data".split(), "s3": "the user".split()}
    scored = score_corpus((i, refs[i], preds[i]) for i in sorted(refs))
    report = {"bleu": scored.corpus_bleu, "meteor": scored.mean_meteor, "samples": 4}
    expect(checks.check_report(preds, refs, report) == [], "the program's own report")
    for key in ("bleu", "meteor"):
        bad = dict(report, **{key: report[key] + 1e-8})
        expect(checks.check_report(preds, refs, bad) != [], f"perturbed {key} passed")


def test_greedy_replay_catches_swapped_token():
    from stmtmem.corpus import Vocabulary, encode_sample
    from stmtmem.decoding import LoadedModel, greedy_decode
    from stmtmem.params import load_checkpoint
    from stmtmem.synthetic import SyntheticSpec, generate_synthetic_corpus

    members = fresh_dir("members")
    paths = run.obtain_members(members)
    code_vocab = Vocabulary.load(os.path.join(members, "code.vocab"))
    sum_vocab = Vocabulary.load(os.path.join(members, "summary.vocab"))
    models = [LoadedModel(p, c) for c, p in map(load_checkpoint, paths)]
    spec = SyntheticSpec.from_dict(dict(common.DECODE_CORPUS, projects=1, samples_per_project=3))
    for sample in generate_synthetic_corpus(spec, seed=7):
        encs = [encode_sample(sample, code_vocab, sum_vocab, m.config) for m in models]
        record, _ = greedy_decode(models, encs, sum_vocab)

        def member_dists(prefix, encs=encs):
            return [m.predict_dist(e, prefix)[0] for m, e in zip(models, encs)]

        tokens = record.tokens
        expect(0 < len(tokens) < checks.MAX_GENERATED, f"members emitted {tokens}")
        expect(checks.check_greedy(tokens, sum_vocab.token_to_id, member_dists) == [],
               f"the program's own decoding of {sample.sample_id}")
        for position in range(len(tokens)):
            other = next(t for t in sum_vocab.id_to_token[4:] if t != tokens[position])
            swapped = tokens[:position] + [other] + tokens[position + 1:]
            expect(checks.check_greedy(swapped, sum_vocab.token_to_id, member_dists) != [],
                   f"swapped token at {position} passed")
        expect(checks.check_greedy(tokens[:-1], sum_vocab.token_to_id, member_dists) != [],
               "a prediction cut one token early passed")


def test_prediction_shape_check():
    expect(checks.check_prediction_shape({"a": ["x"] * 12}) == [], "12 tokens")
    expect(checks.check_prediction_shape({"a": ["x"] * 13}) != [], "13 tokens passed")
    expect(checks.check_prediction_shape({"a": ["x", "<UNK>"]}) != [], "reserved token passed")


def test_gradient_check_catches_scaled_coordinate():
    work = fresh_dir("gradient")
    cfg = common.write_config(os.path.join(work, "run.json"), work, common.EOS,
                              common.TRAIN_CORPUS, common.TRAIN_SPLIT, 3, 1)
    expect(run.cli("prepare", "--config", cfg) == 0, "prepare failed")
    expect(run.cli("train", "--config", cfg) == 0, "train failed")
    grads, numeric = run.gradients(work, seed=3)
    expect(len(numeric) == run.GRADIENT_COORDINATES, f"{len(numeric)} coordinates sampled")
    expect(checks.check_gradient(grads, numeric) == [], "the program's own gradient")
    for name, index in numeric:
        bad = {k: v.copy() for k, v in grads.items()}
        bad[name].reshape(-1)[index] *= 1.5
        expect(checks.check_gradient(bad, numeric) != [], f"scaled {name}[{index}] passed")


def test_training_log_check():
    good = "0\t3.8\t0.2\t3.7\n1\t3.6\t0.2\t3.5\n"
    expect(checks.check_training_log(good) == [], "a good log")
    expect(checks.check_training_log(good.replace("3.6", "nan")) != [], "NaN passed")
    expect(checks.check_training_log(good.replace("3.6", "3.9")) != [], "rising loss passed")
    expect(checks.check_training_log("0\t3.8\t0.2\t3.7\n") != [], "one epoch passed")


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
