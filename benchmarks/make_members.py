"""Remake the two decode-ensemble members kept in `benchmarks/members/`.

    python3 benchmarks/make_members.py

Runs `stmtmem prepare` on the criterion-6 corpus (seed 2024) and `stmtmem
train` twice on it: a positional/constant_q member (init seed 1) and an
eos/summary_vector member (init seed 2), 80 epochs each with the best
epoch kept. It then decodes the members' own test split with the ensemble
and refuses the result unless most summaries end in `</s>` before the
12-token cap. It writes the two checkpoints and the shared vocabularies;
takes about four minutes on one core.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402


def main() -> int:
    common.import_program()
    from stmtmem.cli import main as cli_main
    from stmtmem.decoding import read_predictions

    work = os.path.join(common.OUT_DIR, "members-work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    checkpoints = []
    for name, encoder, init_seed in common.MEMBERS:
        cfg = common.write_config(
            os.path.join(work, f"{name}.json"), work, encoder, common.TRAIN_CORPUS,
            common.TRAIN_SPLIT, common.MEMBER_CORPUS_SEED, common.MEMBER_EPOCHS,
            checkpoint=os.path.join(work, f"{name}.ckpt"),
            log=os.path.join(work, f"{name}.log"))
        if not checkpoints and cli_main(["prepare", "--config", cfg]) != 0:
            return 1
        if cli_main(["train", "--config", cfg, "--seed", str(init_seed)]) != 0:
            return 1
        checkpoints.append(os.path.join(work, f"{name}.ckpt"))

    preds = os.path.join(work, "ensemble.preds")
    argv = ["predict", "--config", cfg, "--out", preds]
    for ckpt in checkpoints:
        argv += ["--checkpoint", ckpt]
    if cli_main(argv) != 0:
        return 1
    lengths = [len(tokens) for tokens in read_predictions(preds).values()]
    capped = sum(n >= 12 for n in lengths)
    print(f"ensemble on the member test split: {len(lengths)} samples, "
          f"{capped} hit the 12-token cap")
    if capped * 10 > len(lengths):
        print("members do not end their summaries in </s>; not kept", file=sys.stderr)
        return 1

    os.makedirs(common.MEMBERS_DIR, exist_ok=True)
    for ckpt in checkpoints:
        shutil.copyfile(ckpt, os.path.join(common.MEMBERS_DIR, os.path.basename(ckpt)))
    for vocab in ("code.vocab", "summary.vocab"):
        shutil.copyfile(os.path.join(work, vocab), os.path.join(common.MEMBERS_DIR, vocab))
    print(f"kept {len(checkpoints)} members in {common.MEMBERS_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
