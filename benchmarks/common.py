"""Corpus specs, model configs and run-config files shared by the benchmark
(`run.py`) and the decode-member recipe (`make_members.py`).

Every shape below is the criterion-6 setup of the acceptance suite:
tdatlen 96, width 16, n 10, y 10, h 2, with its desk-scale stabilizers
(sigmoid gate squash, gradient clip 5).
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
MEMBERS_DIR = os.path.join(BENCH_DIR, "members")

MODEL = dict(tdatlen=96, comlen=13, e_dim=16, l_dim=16, h=2, n=10, y=10, batch=100,
             code_vocab_size=200, summary_vocab_size=100, projection_dim=32,
             grad_clip=5.0, gate_squash="sigmoid")
POSITIONAL = dict(encoder_kind="smn", statement_encoding="positional", gate_query="constant_q")
EOS = dict(encoder_kind="smn", statement_encoding="eos", gate_query="summary_vector")

# The criterion-6 corpus: up to three payload statements, the last one wins.
TRAIN_CORPUS = dict(projects=12, samples_per_project=15, statement_range=[5, 9],
                    max_payloads=3)
TRAIN_SPLIT = [0.7, 0.15, 0.15]

# Same generator settings, but 2400 samples with 90 % held out, so a run
# decodes distinct samples only, even at many times today's speed.
DECODE_CORPUS = dict(projects=60, samples_per_project=40, statement_range=[5, 9],
                     max_payloads=3)
DECODE_SPLIT = [0.05, 0.05, 0.9]

# Decode members: trained once on the criterion-6 corpus of this seed.
MEMBER_CORPUS_SEED = 2024
MEMBER_EPOCHS = 80
MEMBERS = (("positional", POSITIONAL, 1), ("eos", EOS, 2))   # name, encoder, init seed


def import_program():
    """Put the checkout's `src/` first on the import path and import the
    package; raises ImportError when the checkout has no program, even if
    another copy is installed."""
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    import stmtmem.cli  # noqa: F401  (the import is the check)
    package = sys.modules["stmtmem"]
    if not os.path.abspath(package.__file__).startswith(SRC_DIR + os.sep):
        raise ImportError(f"stmtmem was imported from {package.__file__}, not {SRC_DIR}")
    return package


def write_config(path: str, root: str, encoder: dict, synthetic: dict, split: list,
                 seed: int, max_epochs: int, **paths: str) -> str:
    """Write a `stmtmem` run config whose artifacts live under `root`;
    keyword arguments override single paths."""
    files = {key: os.path.join(root, name) for key, name in (
        ("dataset", "corpus.tsv"), ("train", "train.tsv"), ("val", "val.tsv"),
        ("test", "test.tsv"), ("code_vocab", "code.vocab"),
        ("summary_vocab", "summary.vocab"), ("checkpoint", "model.ckpt"),
        ("predictions", "model.preds"), ("report", "report.txt"), ("log", "train.log"))}
    files.update(paths)
    raw = {
        "model": {**MODEL, **encoder},
        "paths": files,
        "split": {"ratios": split, "min_statements": 1, "exclude_ids": []},
        "synthetic": synthetic,
        "seed": seed,
        "max_epochs": max_epochs,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)
    return path
