"""Single executable driving the full pipeline.

Subcommands: prepare | train | predict | evaluate | analyze | ablate |
gradcheck. Every subcommand is deterministic given its config file and
input files, never mutates its inputs, and writes canonical-JSON companions
next to text reports. Exit codes: 0 success, 1 usage/config, 2 data
(also non-finite values, shape and vocabulary errors), 3 verification
failure; every failure prints one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import ModelConfig, canonical_json, parse_section
from .corpus import (
    Sample,
    Vocabulary,
    build_vocab,
    encode_sample,
    filter_by_length,
    read_dataset,
    split_by_project,
    write_dataset,
    write_text,
)
from .decoding import LoadedModel, predict_corpus, read_predictions
from .errors import ConfigError, DataError, StmtMemError, UsageError, VerificationError
from .metrics import ScoredCorpus, check_aligned, difference_set, improved_set, score_corpus
from .model import parameter_count
from .params import load_checkpoint, save_checkpoint
from .stats import paired_t_test
from .synthetic import SyntheticSpec, generate_synthetic_corpus
from .training import format_training_log, select_best, train
from . import verify

# the model checks' work in forward steps (verify.model_check_work): the toy
# config needs 45,672, and 2,000,000 took 20-75 s on one core of a 2-core box
GRADCHECK_WORK_LIMIT = 2_000_000
OUT_OF_SCOPE = "n/a (out of scope)"       # the paper's USE metric column

DEFAULT_ABLATION_SWEEP = [
    {"name": "baseline"},
    {"name": "h1", "h": 1},
    {"name": "h2", "h": 2},
    {"name": "h4", "h": 4},
    {"name": "h5", "h": 5},
    {"name": "eos", "statement_encoding": "eos"},
    {"name": "summary_vector", "gate_query": "summary_vector"},
    {"name": "attendgru_only", "encoder_kind": "attendgru_only"},
]


@dataclass
class RunPaths:
    dataset: str = ""
    train: str = ""
    val: str = ""
    test: str = ""
    code_vocab: str = ""
    summary_vocab: str = ""
    checkpoint: str = ""
    predictions: str = ""
    report: str = ""
    log: str = ""


@dataclass
class SplitSpec:
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    min_statements: int = 1
    exclude_ids: tuple[str, ...] = ()

    def validate(self) -> "SplitSpec":
        if any(r <= 0 for r in self.ratios):
            raise ConfigError(f"split ratios must be three positive numbers, got {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {sum(self.ratios)}")
        if self.min_statements < 1:
            raise ConfigError(f"min_statements must be >= 1, got {self.min_statements}")
        return self


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    paths: RunPaths = field(default_factory=RunPaths)
    split: SplitSpec = field(default_factory=SplitSpec)
    synthetic: SyntheticSpec | None = None
    seed: int = 13
    max_epochs: int = 30

    def validate(self) -> "RunConfig":
        # a 3-way project split needs 3 projects; benchmark self-tests
        # generate 1-project corpora, so SyntheticSpec allows fewer
        if self.synthetic is not None and self.synthetic.projects < 3:
            raise ConfigError(f"synthetic.projects must be >= 3 for the 3-way project split, "
                              f"got {self.synthetic.projects}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        return self

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        model = raw.get("model") if isinstance(raw, dict) else None
        if isinstance(model, dict) and "rng_seed" in model:   # else ignored for the run's seed
            raise ConfigError("invalid config: model.rng_seed is set by the run's seed; remove it")
        return parse_section(raw, "config", cls)


def _read_json(path: str, what: str):
    """The JSON value in file `path`; `what` names the file in the error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


# argparse destination -> the flag's name in messages
_PATH_FLAGS = {"config": "--config", "out": "--out", "checkpoint": "--checkpoint",
               "sweep": "--sweep", "preds_a": "preds_a", "preds_b": "preds_b"}


def _refuse_nul(named) -> None:
    """Refuse any (name, path) pair whose path holds a NUL character, which
    the system cannot open; called before the paths are read or written."""
    for name, value in named:
        if "\0" in value:
            raise ConfigError(f"{name} must not contain a NUL character, got {value!r}")


def _require_paths(cfg: RunConfig, command: str, *names: str) -> None:
    missing = [n for n in names if not getattr(cfg.paths, n)]
    if missing:
        raise ConfigError(f"{command} requires config paths: {', '.join(missing)}")


def _flag_or_config(value, cfg: RunConfig, command: str, flag: str, name: str):
    """`value` from the command-line flag, else config path `name`; one of the two is needed."""
    value = value or getattr(cfg.paths, name)
    if not value:
        raise ConfigError(f"{command} needs {flag} or a {name} path in the config")
    return value


def _load_vocabs(cfg: RunConfig) -> tuple[Vocabulary, Vocabulary]:
    return Vocabulary.load(cfg.paths.code_vocab), Vocabulary.load(cfg.paths.summary_vocab)


def _effective_model(cfg: RunConfig, code_vocab: Vocabulary,
                     sum_vocab: Vocabulary) -> ModelConfig:
    """The trained configuration: vocabulary sizes come from the actual
    vocabulary files and the rng seed from the run seed."""
    return replace(cfg.model, code_vocab_size=len(code_vocab),
                   summary_vocab_size=len(sum_vocab), rng_seed=cfg.seed).validate()


def _fmt(value, spec: str = "{:.4f}") -> str:
    if value is None:
        return "-"
    return spec.format(value)


def _metric_table(rows) -> str:
    """Rows of (system, meteor, bleu, t, p); the USE column is out of scope
    and marked as such."""
    header = (f"{'system':<30} {'METEOR':>8} {'USE':>20} {'BLEU':>8} "
              f"{'t':>9} {'p':>9}")
    lines = [header]
    for name, meteor_v, bleu_v, t, p in rows:
        lines.append(
            f"{name:<30} {_fmt(meteor_v):>8} {OUT_OF_SCOPE:>20} "
            f"{_fmt(bleu_v, '{:.2f}'):>8} {_fmt(t, '{:.3f}'):>9} {_fmt(p, '{:.4f}'):>9}"
        )
    return "\n".join(lines)


def _references(cfg: RunConfig) -> tuple[list[Sample], dict[str, list[str]]]:
    samples = read_dataset(cfg.paths.test)
    if not samples:
        raise DataError(f"test split {cfg.paths.test} holds no samples")
    return samples, {s.sample_id: s.summary_tokens for s in samples}


def _score(refs: dict[str, list[str]], preds: dict[str, list[str]], name: str) -> ScoredCorpus:
    """Score the predictions of file `name` against the references, which
    must hold the same sample ids."""
    check_aligned(name, preds, "references", refs)
    return score_corpus((sid, refs[sid], preds[sid]) for sid in sorted(refs))


# ---------------------------------------------------------------------------
# subcommands


def cmd_prepare(cfg: RunConfig) -> None:
    """Generate or ingest the dataset, filter, split by project, and build
    vocabularies from the training split."""
    _require_paths(cfg, "prepare", "dataset", "train", "val", "test",
                   "code_vocab", "summary_vocab")
    if cfg.synthetic is not None:
        samples = generate_synthetic_corpus(cfg.synthetic, cfg.seed)
        write_dataset(cfg.paths.dataset, samples)
    else:
        samples = read_dataset(cfg.paths.dataset)
    if cfg.split.exclude_ids:
        excluded = set(cfg.split.exclude_ids)
        samples = [s for s in samples if s.sample_id not in excluded]
    samples = filter_by_length(samples, cfg.split.min_statements)
    train_set, val_set, test_set = split_by_project(samples, cfg.split.ratios, cfg.seed)
    write_dataset(cfg.paths.train, train_set)
    write_dataset(cfg.paths.val, val_set)
    write_dataset(cfg.paths.test, test_set)
    code_vocab = build_vocab(train_set, cfg.model.code_vocab_size, "code")
    sum_vocab = build_vocab(train_set, cfg.model.summary_vocab_size, "summary")
    code_vocab.save(cfg.paths.code_vocab)
    sum_vocab.save(cfg.paths.summary_vocab)
    print(f"prepared {len(samples)} samples -> train {len(train_set)} / "
          f"val {len(val_set)} / test {len(test_set)}; "
          f"code vocab {len(code_vocab)}, summary vocab {len(sum_vocab)}")


def _train_one(train_raw: list[Sample], val_raw: list[Sample], model_cfg: ModelConfig,
               code_vocab: Vocabulary, sum_vocab: Vocabulary, max_epochs: int):
    """Train on the samples encoded for `model_cfg`, whose tdatlen, n and y
    set the encoding."""
    enc_train = [encode_sample(s, code_vocab, sum_vocab, model_cfg) for s in train_raw]
    enc_val = [encode_sample(s, code_vocab, sum_vocab, model_cfg) for s in val_raw]
    return train(enc_train, enc_val, model_cfg, max_epochs)


def cmd_train(cfg: RunConfig) -> None:
    _require_paths(cfg, "train", "train", "val", "code_vocab", "summary_vocab", "checkpoint")
    code_vocab, sum_vocab = _load_vocabs(cfg)
    model_cfg = _effective_model(cfg, code_vocab, sum_vocab)
    best, reports = _train_one(read_dataset(cfg.paths.train), read_dataset(cfg.paths.val),
                               model_cfg, code_vocab, sum_vocab, cfg.max_epochs)
    save_checkpoint(cfg.paths.checkpoint, model_cfg, best)
    log_path = cfg.paths.log or cfg.paths.checkpoint + ".log"
    write_text(log_path, format_training_log(reports), "training log")
    best_epoch = reports[select_best(reports)]
    print(f"trained {len(reports)} epochs; kept epoch {best_epoch.epoch} "
          f"(val acc {best_epoch.val_accuracy:.4f}, val loss {best_epoch.val_loss:.4f}) "
          f"-> {cfg.paths.checkpoint}")


def _load_models(checkpoint_paths) -> list[LoadedModel]:
    return [LoadedModel(params, config) for config, params in
            (load_checkpoint(p) for p in checkpoint_paths)]


def cmd_predict(cfg: RunConfig, checkpoints, out: str | None, dump_gates: bool) -> None:
    _require_paths(cfg, "predict", "test", "code_vocab", "summary_vocab")
    out_path = _flag_or_config(out, cfg, "predict", "--out", "predictions")
    if not checkpoints:
        checkpoints = [_flag_or_config(None, cfg, "predict", "--checkpoint", "checkpoint")]
    code_vocab, sum_vocab = _load_vocabs(cfg)
    models = _load_models(checkpoints)
    samples, _ = _references(cfg)
    gates_path = out_path + ".gates" if dump_gates else None
    start = time.perf_counter()
    records = predict_corpus(models, samples, code_vocab, sum_vocab, out_path,
                             dump_gates_path=gates_path)
    seconds = time.perf_counter() - start
    suffix = f" (+ gate dump {gates_path})" if gates_path else ""
    print(f"wrote {len(records)} predictions from {len(models)} model(s) to {out_path}{suffix} "
          f"in {seconds:.2f} s ({len(records) / seconds:.1f} samples/s)")


def _write_report(path: str, text: str, data: dict) -> None:
    """Write the text report and its canonical-JSON companion, and print the text."""
    write_text(path, text, "report")
    write_text(path + ".json", canonical_json(data), "report")
    print(text, end="")


def format_evaluation(data: dict) -> str:
    """The `evaluate` report, rendered from its JSON companion."""
    return _metric_table([(data["system"], data["meteor"], data["bleu"], None, None)]) + "\n"


def cmd_evaluate(cfg: RunConfig, out: str | None) -> None:
    _require_paths(cfg, "evaluate", "test", "predictions")
    report_path = _flag_or_config(out, cfg, "evaluate", "--out", "report")
    _, refs = _references(cfg)
    name = cfg.paths.predictions.rsplit("/", 1)[-1]
    scored = _score(refs, read_predictions(cfg.paths.predictions), name)
    data = {
        "system": name,
        "meteor": scored.mean_meteor,
        "use": OUT_OF_SCOPE,
        "bleu": scored.corpus_bleu,
        "samples": len(scored.entries),
    }
    _write_report(report_path, format_evaluation(data), data)


def format_analysis(data: dict, samples: int) -> str:
    """The `analyze` report of `samples` test samples, rendered from its
    JSON companion."""
    name_a, name_b = data["system_a"], data["system_b"]
    overall, partition = data["overall"], data["difference_set"]
    same = partition["scores"]["same"]["a"]
    diff = {key: entry or {"mean_meteor": None, "bleu": None}
            for key, entry in partition["scores"]["difference"].items()}
    diff_t = partition["ttest"] or {"t": None, "p": None}
    lines = [
        "== overall ==",
        _metric_table([
            (name_a, overall["a"]["meteor"], overall["a"]["bleu"], None, None),
            (name_b, overall["b"]["meteor"], overall["b"]["bleu"],
             overall["ttest"]["t"], overall["ttest"]["p"]),
        ]),
        "(t/p: paired t-test on per-sample METEOR, A vs B, shown on the B row)",
        "",
        "== difference set ==",
        f"size: {partition['pct']:.2f}% ({len(partition['ids'])} of {samples})",
        f"same set: METEOR {same['mean_meteor']:.4f}  BLEU {same['bleu']:.2f}" if same
        else "same set: empty",
        _metric_table([
            (name_a, diff["a"]["mean_meteor"], diff["a"]["bleu"], None, None),
            (name_b, diff["b"]["mean_meteor"], diff["b"]["bleu"], diff_t["t"], diff_t["p"]),
        ]),
        "",
    ]
    for key, winner, loser in (("improved_set_a_over_b", name_a, name_b),
                               ("improved_set_b_over_a", name_b, name_a)):
        improved = data[key]
        lines += [f"== improved set ({winner} over {loser}) ==",
                  f"size: {improved['pct']:.2f}%  mean METEOR "
                  f"{_fmt(improved['mean_a'])} vs {_fmt(improved['mean_b'])}"]
    return "\n".join(lines) + "\n"


def cmd_analyze(cfg: RunConfig, preds_a_path: str, preds_b_path: str, out: str | None) -> None:
    """Difference-set and improved-set analysis of two prediction files."""
    _require_paths(cfg, "analyze", "test")
    report_path = _flag_or_config(out, cfg, "analyze", "--out", "report")
    _, refs = _references(cfg)
    preds_a = read_predictions(preds_a_path)
    preds_b = read_predictions(preds_b_path)
    name_a = preds_a_path.rsplit("/", 1)[-1]
    name_b = preds_b_path.rsplit("/", 1)[-1]

    scored_a = _score(refs, preds_a, name_a)
    scored_b = _score(refs, preds_b, name_b)
    met_a, met_b = scored_a.meteor_by_id(), scored_b.meteor_by_id()
    ids = sorted(refs)     # a t-test needs 2 pairs; below that t and p are null
    overall_t = paired_t_test([met_a[sid] for sid in ids],
                              [met_b[sid] for sid in ids]) if len(ids) >= 2 else None
    partition = difference_set(preds_a, preds_b, refs)
    data = {
        "system_a": name_a,
        "system_b": name_b,
        "overall": {
            "a": {"meteor": scored_a.mean_meteor, "bleu": scored_a.corpus_bleu},
            "b": {"meteor": scored_b.mean_meteor, "bleu": scored_b.corpus_bleu},
            "ttest": ({"t": overall_t.t, "p": overall_t.p, "degenerate": overall_t.degenerate}
                      if overall_t else {"t": None, "p": None, "degenerate": None}),
        },
        "difference_set": {
            "pct": partition.difference_pct,
            "ids": partition.difference_ids,
            "scores": partition.scores,
            "ttest": ({"t": partition.ttest_difference.t, "p": partition.ttest_difference.p}
                      if partition.ttest_difference else None),
        },
    }
    for key, (first, second) in (("improved_set_a_over_b", (met_a, met_b)),
                                 ("improved_set_b_over_a", (met_b, met_a))):
        improved = improved_set(first, second)
        data[key] = {"pct": improved.size_pct, "ids": improved.ids,
                     "mean_a": improved.mean_a, "mean_b": improved.mean_b}
    _write_report(report_path, format_analysis(data, len(refs)), data)


def _load_sweep(path: str | None) -> list[dict]:
    if path is None:
        return [dict(entry) for entry in DEFAULT_ABLATION_SWEEP]
    sweep = _read_json(path, "sweep")
    if not isinstance(sweep, list) or not all(isinstance(e, dict) and "name" in e for e in sweep):
        raise ConfigError(f"sweep {path} must be a JSON list of objects with a 'name' key")
    for entry in sweep:   # a name ends a checkpoint's file name
        name = entry["name"]
        if not isinstance(name, str) or any(c in name for c in ("\0", "/", os.sep)):
            raise ConfigError(f"sweep {path}: each name must be a string without a NUL "
                              f"character or a path separator, got {name!r}")
    return sweep


def format_ablation(data: dict) -> str:
    """The `ablate` report, rendered from its JSON companion."""
    text = (_metric_table([(r["name"], r["meteor"], r["bleu"], r["t"], r["p"])
                           for r in data["rows"]])
            + "\n(t/p: paired t-test on per-sample METEOR vs the baseline row)\n")
    bad = [r["name"] for r in data["rows"] if not r["finite"]]
    if bad:
        text += f"WARNING: non-finite values in: {', '.join(bad)}\n"
    return text


def cmd_ablate(cfg: RunConfig, sweep_path: str | None, out: str | None) -> None:
    """Train every sweep configuration on the shared seed and data, score
    each on the test set, and report paired t-tests against the baseline."""
    _require_paths(cfg, "ablate", "train", "val", "test",
                   "code_vocab", "summary_vocab", "checkpoint")
    report_path = _flag_or_config(out, cfg, "ablate", "--out", "report")
    sweep = _load_sweep(sweep_path)
    code_vocab, sum_vocab = _load_vocabs(cfg)
    base_cfg = _effective_model(cfg, code_vocab, sum_vocab)
    samples, refs = _references(cfg)

    configs: list[tuple[str, ModelConfig]] = []
    for entry in sweep:
        overrides = {k: v for k, v in entry.items() if k != "name"}
        configs.append((entry["name"], parse_section(
            {**asdict(base_cfg), **overrides}, f"sweep entry {entry['name']!r}", ModelConfig)))
    if not any(mc == base_cfg for _, mc in configs):
        configs.insert(0, ("baseline", base_cfg))
    names = [name for name, _ in configs]
    twice = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if twice is not None:   # each name owns a checkpoint and a report row
        raise ConfigError(f"the sweep names {twice!r} twice (a sweep without the "
                          f"baseline configuration gets one named 'baseline')")
    baseline_index = next(i for i, (_, mc) in enumerate(configs) if mc == base_cfg)

    train_raw, val_raw = read_dataset(cfg.paths.train), read_dataset(cfg.paths.val)
    rows, per_sample = [], []
    for name, model_cfg in configs:
        best, reports = _train_one(train_raw, val_raw, model_cfg, code_vocab, sum_vocab,
                                   cfg.max_epochs)
        ckpt_path = f"{cfg.paths.checkpoint}.{name}"
        save_checkpoint(ckpt_path, model_cfg, best)
        pred_path = f"{ckpt_path}.preds"
        predict_corpus([LoadedModel(best, model_cfg)], samples, code_vocab, sum_vocab, pred_path)
        scored = _score(refs, read_predictions(pred_path), pred_path)
        per_sample.append(scored.meteor_by_id())
        rows.append({
            "name": name,
            "meteor": scored.mean_meteor,
            "use": OUT_OF_SCOPE,
            "bleu": scored.corpus_bleu,
            "parameters": parameter_count(model_cfg),
            "finite": bool(best.all_finite() and np.isfinite(scored.mean_meteor)),
            "epochs": len(reports),
        })
        print(f"ablate: {name} done (METEOR {scored.mean_meteor:.4f}, "
              f"BLEU {scored.corpus_bleu:.2f})")

    keys = sorted(per_sample[baseline_index])
    for i, (row, scores) in enumerate(zip(rows, per_sample)):
        tt = None if i == baseline_index or len(keys) < 2 else paired_t_test(
            [scores[k] for k in keys], [per_sample[baseline_index][k] for k in keys])
        row["t"], row["p"] = (tt.t, tt.p) if tt else (None, None)
    data = {"baseline": rows[baseline_index]["name"], "rows": rows}
    _write_report(report_path, format_ablation(data), data)


def cmd_gradcheck(cfg: RunConfig) -> None:
    """Finite-difference suites for the tensor kernels and the full network
    on the configured (toy-sized) model."""
    work = verify.model_check_work(cfg.model)
    if work > GRADCHECK_WORK_LIMIT:
        raise ConfigError(f"gradcheck requires a toy model: its model checks would run an "
                          f"estimated {work:,} forward steps (limit {GRADCHECK_WORK_LIMIT:,})")
    results = verify.run_op_checks(seed=cfg.seed)
    results += verify.run_model_checks(seed=cfg.seed, base=cfg.model)
    report = verify.format_report(results)
    print(report, end="")
    if cfg.paths.report:
        write_text(cfg.paths.report, report, "report")
    verify.require_all_passed(results)


# ---------------------------------------------------------------------------
# entry points


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are usage errors: main prints them as one line
    and returns 1, where argparse would print its usage and exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not
    change it, so in-process callers share it."""
    parser = _Parser(
        prog="stmtmem",
        description="statement-memory code summarization pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    common(sub.add_parser("prepare", help="generate/split data and build vocabularies"))
    common(sub.add_parser("train", help="train a model and write the best checkpoint"))

    p = sub.add_parser("predict", help="greedy-decode the test set (1..k checkpoints ensemble)")
    common(p)
    p.add_argument("--checkpoint", action="append", default=[],
                   help="checkpoint file; repeat for an ensemble")
    p.add_argument("--out", default=None, help="prediction file path")
    p.add_argument("--dump-gates", action="store_true",
                   help="also write per-hop statement gates next to the predictions")

    p = sub.add_parser("evaluate", help="score a prediction file against the test references")
    common(p)
    p.add_argument("--out", default=None, help="report path")

    p = sub.add_parser("analyze", help="difference/improved-set analysis of two prediction files")
    common(p)
    p.add_argument("preds_a", help="prediction file of system A")
    p.add_argument("preds_b", help="prediction file of system B")
    p.add_argument("--out", default=None, help="report path")

    p = sub.add_parser("ablate", help="train and compare a sweep of configurations")
    common(p)
    p.add_argument("--sweep", default=None, help="sweep JSON (default: built-in 8-config sweep)")
    p.add_argument("--out", default=None, help="report path")

    common(sub.add_parser("gradcheck", help="finite-difference verification suites"))
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # a non-finite value ends as a one-line data error, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = {flag: getattr(args, dest, None) for dest, flag in _PATH_FLAGS.items()}
            _refuse_nul((flag, v) for flag, value in values.items()
                        for v in (value if isinstance(value, list) else [value]) if v)
            raw = _read_json(args.config, "config")
            if args.seed is not None and isinstance(raw, dict):
                raw["seed"] = args.seed
            cfg = RunConfig.from_dict(raw)
            _refuse_nul((f"paths.{name}", v) for name, v in asdict(cfg.paths).items())
            if args.command == "prepare":
                cmd_prepare(cfg)
            elif args.command == "train":
                cmd_train(cfg)
            elif args.command == "predict":
                cmd_predict(cfg, args.checkpoint, args.out, args.dump_gates)
            elif args.command == "evaluate":
                cmd_evaluate(cfg, args.out)
            elif args.command == "analyze":
                cmd_analyze(cfg, args.preds_a, args.preds_b, args.out)
            elif args.command == "ablate":
                cmd_ablate(cfg, args.sweep, args.out)
            elif args.command == "gradcheck":
                cmd_gradcheck(cfg)
            else:  # pragma: no cover - argparse enforces the choices
                raise UsageError(f"unknown command {args.command}")
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StmtMemError as exc:   # DataError, NumericInputError, DimensionError, VocabularyError
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


def main_entry() -> None:  # console_scripts target
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
