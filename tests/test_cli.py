"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import stmtmem.model
from stmtmem import cli
from stmtmem import tensor as T
from stmtmem.cli import RunConfig
from stmtmem.config import canonical_json
from stmtmem.corpus import read_dataset
from stmtmem.decoding import read_predictions, write_predictions, PredictionRecord
from stmtmem.errors import ConfigError
from stmtmem.params import load_checkpoint, save_checkpoint


def base_config_dict(root):
    return {
        "model": {
            "tdatlen": 48, "comlen": 8, "e_dim": 10, "l_dim": 10, "h": 2,
            "n": 8, "y": 10, "batch": 100, "code_vocab_size": 200,
            "summary_vocab_size": 100, "projection_dim": 16, "grad_clip": 5.0,
        },
        "paths": {
            "dataset": f"{root}/corpus.tsv",
            "train": f"{root}/train.tsv",
            "val": f"{root}/val.tsv",
            "test": f"{root}/test.tsv",
            "code_vocab": f"{root}/code.vocab",
            "summary_vocab": f"{root}/summary.vocab",
            "checkpoint": f"{root}/model.ckpt",
            "predictions": f"{root}/model.preds",
            "report": f"{root}/report.txt",
            "log": f"{root}/train.log",
        },
        "split": {"ratios": [0.6, 0.2, 0.2], "min_statements": 1, "exclude_ids": []},
        "synthetic": {"projects": 6, "samples_per_project": 8,
                      "statement_range": (3, 5), "families": ["emit", "getter", "setter"],
                      "max_payloads": 1},
        "seed": 11,
        "max_epochs": 2,
    }


def assert_renders(report: str, render, *args) -> None:
    """The text report is its JSON companion rendered by `render`, byte for byte."""
    with open(report + ".json", encoding="utf-8") as fh:
        data = json.load(fh)
    with open(report, "rb") as fh:
        assert render(data, *args).encode("utf-8") == fh.read()


def write_config(tmp_path, overrides=None) -> str:
    raw = base_config_dict(str(tmp_path))
    if overrides:
        for key, value in overrides.items():
            if isinstance(value, dict):
                raw[key].update(value)
            else:
                raw[key] = value
    path = str(tmp_path / "run.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return path


class TestRunConfig:
    def test_round_trip_is_identity(self, tmp_path):
        cfg = RunConfig.from_dict(base_config_dict(str(tmp_path)))
        again = RunConfig.from_dict(json.loads(canonical_json(cfg.to_dict())))
        assert again == cfg

    def test_unknown_keys_rejected_at_each_level(self, tmp_path, capsys):
        raw = base_config_dict(str(tmp_path))
        raw["mystery"] = 1
        with pytest.raises(ConfigError, match="mystery"):
            RunConfig.from_dict(raw)
        raw = base_config_dict(str(tmp_path))
        raw["model"]["hidden"] = 9
        with pytest.raises(ConfigError, match="hidden"):
            RunConfig.from_dict(raw)
        raw = base_config_dict(str(tmp_path))
        raw["paths"]["__x"] = "p"
        with pytest.raises(ConfigError, match="__x"):
            RunConfig.from_dict(raw)
        raw = base_config_dict(str(tmp_path))
        raw["split"]["shuffle"] = True
        with pytest.raises(ConfigError, match="shuffle"):
            RunConfig.from_dict(raw)
        raw = base_config_dict(str(tmp_path))
        raw["synthetic"]["noise"] = 0.5
        with pytest.raises(ConfigError, match="noise"):
            RunConfig.from_dict(raw)
        path = write_config(tmp_path)
        assert cli.main(["prepare", "--config", path]) == 0
        sweep_path = str(tmp_path / "sweep.json")
        with open(sweep_path, "w") as fh:
            json.dump([{"name": "x", "hops": 1}], fh)
        capsys.readouterr()
        assert cli.main(["ablate", "--config", path, "--sweep", sweep_path]) == 1
        assert "hops" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, sweep", [
        (lambda raw: [], None),
        (lambda raw: {**raw, "model": 5}, None),
        (lambda raw: {**raw, "model": {"h": "3"}}, None),
        (lambda raw: {**raw, "seed": "abc"}, None),
        (lambda raw: {**raw, "split": {"ratios": 5}}, None),
        (lambda raw: {**raw, "synthetic": {"statement_range": [3]}}, None),
        (lambda raw: raw, [{"name": "x", "h": "3"}]),
        (lambda raw: {**raw, "model": {"h": 2.5}}, None),
        (lambda raw: {**raw, "model": {"batch": 2.5}}, None),
        (lambda raw: {**raw, "model": {"q_fill": "x"}}, None),
        (lambda raw: {**raw, "model": {"h": True}}, None),
        (lambda raw: {**raw, "synthetic": {"projects": 2.5}}, None),
    ], ids=["top_level_list", "model_not_object", "model_value_type", "seed_not_int",
            "ratios_not_list", "statement_range_short", "sweep_value_type",
            "int_field_float", "batch_float", "float_field_string", "int_field_bool",
            "synthetic_int_field_float"])
    def test_malformed_values_exit_1_with_one_line(self, tmp_path, capsys, edit, sweep):
        path = str(tmp_path / "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(edit(base_config_dict(str(tmp_path))), fh)
        argv = ["prepare", "--config", path]
        if sweep is not None:
            assert cli.main(argv) == 0
            sweep_path = str(tmp_path / "sweep.json")
            with open(sweep_path, "w") as fh:
                json.dump(sweep, fh)
            argv = ["ablate", "--config", path, "--sweep", sweep_path]
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_bad_ratios_fail_before_any_io(self, tmp_path):
        path = write_config(tmp_path, {"split": {"ratios": [0.9, 0.2, 0.1]}})
        assert cli.main(["prepare", "--config", path]) == 1
        assert not os.path.exists(tmp_path / "corpus.tsv")

    def test_missing_config_file_is_usage_error(self):
        assert cli.main(["prepare", "--config", "/does/not/exist.json"]) == 1


class TestPrepare:
    def test_counts_and_determinism(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["prepare", "--config", path]) == 0
        corpus = read_dataset(str(tmp_path / "corpus.tsv"))
        assert len(corpus) == 48
        parts = [read_dataset(str(tmp_path / f"{part}.tsv")) for part in ("train", "val", "test")]
        assert sum(len(p) for p in parts) == 48
        blobs = {name: open(tmp_path / name, "rb").read()
                 for name in ("corpus.tsv", "train.tsv", "code.vocab", "summary.vocab")}
        assert cli.main(["prepare", "--config", path]) == 0
        for name, blob in blobs.items():
            assert open(tmp_path / name, "rb").read() == blob

    def test_missing_dataset_is_data_error(self, tmp_path):
        path = write_config(tmp_path, {"synthetic": None})
        assert cli.main(["prepare", "--config", path]) == 2


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """prepare + train once; several tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    path = write_config(root, {"max_epochs": 3})
    assert cli.main(["prepare", "--config", path]) == 0
    assert cli.main(["train", "--config", path]) == 0
    return root, path


class TestTrainPredictEvaluate:
    def test_train_writes_checkpoint_and_log(self, pipeline):
        root, _ = pipeline
        assert (root / "model.ckpt").exists()
        log_lines = (root / "train.log").read_text().splitlines()
        assert len(log_lines) == 3
        for line in log_lines:
            fields = line.split("\t")
            assert len(fields) == 4

    def test_predict_then_rerun_identical(self, pipeline, capsys):
        root, path = pipeline
        inputs_before = {name: (root / name).read_bytes()
                         for name in ("test.tsv", "code.vocab", "summary.vocab",
                                      "model.ckpt")}
        assert cli.main(["predict", "--config", path]) == 0
        assert re.search(r" in \d+\.\d\d s \(\d+\.\d samples/s\)$", capsys.readouterr().out)
        first = (root / "model.preds").read_bytes()
        assert cli.main(["predict", "--config", path]) == 0
        assert (root / "model.preds").read_bytes() == first
        for name, blob in inputs_before.items():
            assert (root / name).read_bytes() == blob, f"{name} was mutated"
        preds = read_predictions(str(root / "model.preds"))
        refs = read_dataset(str(root / "test.tsv"))
        assert set(preds) == {s.sample_id for s in refs}

    def test_self_ensemble_identical_to_single(self, pipeline):
        root, path = pipeline
        ckpt = str(root / "model.ckpt")
        assert cli.main(["predict", "--config", path, "--checkpoint", ckpt,
                         "--out", str(root / "one.preds")]) == 0
        assert cli.main(["predict", "--config", path, "--checkpoint", ckpt,
                         "--checkpoint", ckpt, "--out", str(root / "two.preds")]) == 0
        assert (root / "one.preds").read_bytes() == (root / "two.preds").read_bytes()

    def test_dump_gates_writes_hop_lines(self, pipeline):
        root, path = pipeline
        out = str(root / "gated.preds")
        assert cli.main(["predict", "--config", path, "--out", out, "--dump-gates"]) == 0
        lines = (root / "gated.preds.gates").read_text().splitlines()
        refs = read_dataset(str(root / "test.tsv"))
        assert len(lines) == 2 * len(refs)  # h=2 hops per sample
        sid, hop, values = lines[0].split("\t")
        assert hop == "0"
        assert len(values.split()) == 8  # n statement slots

    def test_evaluate_perfect_predictions_score_100(self, pipeline):
        root, path = pipeline
        refs = read_dataset(str(root / "test.tsv"))
        perfect = str(root / "perfect.preds")
        write_predictions(perfect, [PredictionRecord(s.sample_id, list(s.summary_tokens))
                                    for s in refs])
        cfg_path = write_config(root, {"max_epochs": 3,
                                       "paths": {"predictions": perfect}})
        assert cli.main(["evaluate", "--config", cfg_path,
                         "--out", str(root / "perfect.report")]) == 0
        report = json.loads((root / "perfect.report.json").read_text())
        assert report["bleu"] == pytest.approx(100.0, abs=1e-9)
        assert report["meteor"] > 0.98
        text = (root / "perfect.report").read_text()
        assert "n/a (out of scope)" in text
        assert_renders(str(root / "perfect.report"), cli.format_evaluation)

    def test_evaluate_model_predictions(self, pipeline):
        root, path = pipeline
        assert cli.main(["predict", "--config", path]) == 0
        assert cli.main(["evaluate", "--config", path]) == 0
        report = json.loads((root / "report.txt.json").read_text())
        assert 0.0 <= report["meteor"] <= 1.0
        assert 0.0 <= report["bleu"] <= 100.0
        assert_renders(str(root / "report.txt"), cli.format_evaluation)

    def test_analyze_self_is_all_same_set(self, pipeline):
        root, path = pipeline
        preds = str(root / "model.preds")
        assert cli.main(["predict", "--config", path]) == 0
        out = str(root / "self.analysis")
        assert cli.main(["analyze", "--config", path, preds, preds, "--out", out]) == 0
        report = json.loads((root / "self.analysis.json").read_text())
        assert report["difference_set"]["pct"] == 0.0
        assert report["improved_set_a_over_b"]["pct"] == 0.0
        assert report["overall"]["ttest"]["t"] == 0.0
        assert report["overall"]["ttest"]["p"] == 1.0
        assert_renders(out, cli.format_analysis, len(read_dataset(str(root / "test.tsv"))))

    def test_analyze_two_systems_report_renders_from_json(self, pipeline):
        root, path = pipeline
        assert cli.main(["predict", "--config", path]) == 0
        perfect = str(root / "perfect_b.preds")
        refs = read_dataset(str(root / "test.tsv"))
        write_predictions(perfect, [PredictionRecord(s.sample_id, list(s.summary_tokens))
                                    for s in refs])
        out = str(root / "two.analysis")
        assert cli.main(["analyze", "--config", path, str(root / "model.preds"), perfect,
                         "--out", out]) == 0
        report = json.loads((root / "two.analysis.json").read_text())
        assert report["difference_set"]["pct"] > 0.0
        assert_renders(out, cli.format_analysis, len(refs))

    def test_analyze_missing_prediction_is_data_error(self, pipeline, capsys):
        root, path = pipeline
        preds = str(root / "model.preds")
        assert cli.main(["predict", "--config", path]) == 0
        lines = (root / "model.preds").read_text(encoding="utf-8").splitlines()
        short = root / "short.preds"
        short.write_text(lines[0] + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["analyze", "--config", path, preds, str(short),
                         "--out", str(root / "short.analysis")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "short.preds" in err
        assert "Traceback" not in err


def edit_config(root, edit) -> None:
    """Rewrite run.json with `edit(raw)`; NaN and Infinity are written as
    Python's JSON writer spells them."""
    raw = base_config_dict(str(root))
    edit(raw)
    (root / "run.json").write_text(json.dumps(raw), encoding="utf-8")


def write_perfect_predictions(root) -> None:
    refs = read_dataset(str(root / "test.tsv"))
    write_predictions(str(root / "model.preds"),
                      [PredictionRecord(s.sample_id, s.summary_tokens) for s in refs])


def corrupt_bytes(path, old: bytes, new: bytes) -> None:
    blob = path.read_bytes()
    assert old in blob
    path.write_bytes(blob.replace(old, new, 1))


def duplicate_first_line(path) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0] + b"".join(lines))


def set_model(**values):
    return lambda raw: raw["model"].update(values)


# (exit code, text the message holds, command, mutation of the prepared run)
CORRUPT_INPUTS = {
    "config_non_utf8": (1, "utf-8", "prepare", lambda root: corrupt_bytes(
        root / "run.json", b"report.txt", b"report\xff.txt")),
    "grad_clip_nan": (1, "grad_clip must be finite", "train",
                      lambda root: edit_config(root, set_model(grad_clip=float("nan")))),
    "q_fill_infinity": (1, "q_fill must be finite", "train",
                        lambda root: edit_config(root, set_model(q_fill=float("inf")))),
    "ratio_nan": (1, "ratios must be finite", "prepare", lambda root: edit_config(
        root, lambda raw: raw["split"].update(ratios=[float("nan"), 0.5, 0.5]))),
    "seed_negative": (1, "seed must be >= 0", "prepare",
                      lambda root: edit_config(root, lambda raw: raw.update(seed=-1))),
    "seed_flag_negative": (1, "seed must be >= 0", "prepare --seed -1", lambda root: None),
    "dataset_non_utf8": (2, "dataset", "prepare", lambda root: (
        edit_config(root, lambda raw: raw.update(synthetic=None)),
        corrupt_bytes(root / "corpus.tsv", b"\t", b"\xff\t"))),
    "vocabulary_non_utf8": (2, "summary.vocab", "train", lambda root: corrupt_bytes(
        root / "summary.vocab", b"</s>\n", b"</s>\n\xff\n")),
    "predictions_non_utf8": (2, "model.preds", "evaluate", lambda root: (
        write_perfect_predictions(root),
        corrupt_bytes(root / "model.preds", b"\t", b"\xff\t"))),
    "vocabulary_duplicate_token": (2, "duplicate token '<UNK>'", "train", lambda root: (
        corrupt_bytes(root / "code.vocab", b"<UNK>\n", b"<UNK>\n<UNK>\n"))),
    "test_duplicate_id": (2, "test.tsv:2: duplicate sample id", "evaluate", lambda root: (
        write_perfect_predictions(root), duplicate_first_line(root / "test.tsv"))),
    "predictions_duplicate_id": (2, "model.preds:2: duplicate sample id", "evaluate",
                                 lambda root: (write_perfect_predictions(root),
                                               duplicate_first_line(root / "model.preds"))),
    "test_split_empty": (2, "holds no samples", "evaluate", lambda root: (
        (root / "test.tsv").write_text(""), (root / "model.preds").write_text(""))),
}


class TestErrorContract:
    @pytest.mark.parametrize("probe", sorted(CORRUPT_INPUTS))
    def test_corrupt_input_exits_with_one_line(self, tmp_path, capsys, probe):
        code, message, command, mutate = CORRUPT_INPUTS[probe]
        path = write_config(tmp_path)
        assert cli.main(["prepare", "--config", path]) == 0
        mutate(tmp_path)
        capsys.readouterr()
        command, *flags = command.split()
        assert cli.main([command, "--config", path, *flags]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert message in err and "Traceback" not in err

    def test_nan_parameter_exits_2_with_one_line(self, pipeline, capsys):
        root, path = pipeline
        config, params = load_checkpoint(str(root / "model.ckpt"))
        params["out.b"].data[0] = np.nan
        bad = str(root / "nan.ckpt")
        save_checkpoint(bad, config, params)
        capsys.readouterr()
        assert cli.main(["predict", "--config", path, "--checkpoint", bad,
                         "--out", str(root / "nan.preds")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "non-finite" in err
        assert "Traceback" not in err

    def test_overflowing_parameters_exit_2_without_numpy_warnings(self, pipeline):
        # weights this large overflow in the first products; numpy's
        # RuntimeWarnings must not reach stderr ahead of the one line
        root, path = pipeline
        config, params = load_checkpoint(str(root / "model.ckpt"))
        for _, param in params.items():
            param.data *= 1e160
        huge = str(root / "huge.ckpt")
        save_checkpoint(huge, config, params)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-m", "stmtmem.cli", "predict", "--config", path,
                               "--checkpoint", huge, "--out", str(root / "huge.preds")],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 2
        assert len(done.stderr.splitlines()) == 1 and "non-finite" in done.stderr
        assert "RuntimeWarning" not in done.stderr and "Traceback" not in done.stderr

    def test_code_vocabulary_mismatch_is_usage_error(self, pipeline, capsys):
        root, _ = pipeline
        tokens = (root / "code.vocab").read_text(encoding="utf-8").splitlines()
        (root / "short.code.vocab").write_text("\n".join(tokens[:-1]) + "\n", encoding="utf-8")
        raw = base_config_dict(str(root))
        raw["paths"]["code_vocab"] = str(root / "short.code.vocab")
        cfg_path = str(root / "short.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        capsys.readouterr()
        assert cli.main(["predict", "--config", cfg_path,
                         "--out", str(root / "short.preds")]) == 1
        assert "code vocabulary size" in capsys.readouterr().err

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        missing = str(tmp_path / "missing.json")
        done = subprocess.run([sys.executable, "-m", "stmtmem.cli", "predict",
                               "--config", missing],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        assert done.stderr.splitlines() == [done.stderr.strip()]
        assert missing in done.stderr and "Traceback" not in done.stderr


class TestBlasThreads:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def thread_vars_after_import(self, **overrides):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(overrides, PYTHONPATH=src)
        code = ("import os, stmtmem; print(' '.join(os.environ[v] for v in "
                f"{self.VARS!r}))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_import_defaults_to_one_thread(self):
        assert self.thread_vars_after_import() == ["1", "1", "1"]

    def test_user_setting_is_kept(self):
        assert self.thread_vars_after_import(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]


class TestSeedOverride:
    def test_seed_flag_changes_artifacts(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["prepare", "--config", path]) == 0
        first = (tmp_path / "train.tsv").read_bytes()
        assert cli.main(["prepare", "--config", path, "--seed", "99"]) == 0
        assert (tmp_path / "train.tsv").read_bytes() != first


class TestGradcheck:
    def gradcheck_config(self, tmp_path):
        return write_config(tmp_path, {"model": {
            "tdatlen": 8, "comlen": 4, "e_dim": 3, "l_dim": 3, "h": 2,
            "n": 2, "y": 3, "code_vocab_size": 7, "summary_vocab_size": 5,
            "projection_dim": 4, "grad_clip": None,
        }})

    def test_passes_on_toy_config(self, tmp_path, capsys):
        path = self.gradcheck_config(tmp_path)
        assert cli.main(["gradcheck", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "max_rel_err" in out
        assert "FAIL" not in out

    def test_rejects_large_models(self, tmp_path):
        path = write_config(tmp_path, {"model": {"code_vocab_size": 69725,
                                                 "summary_vocab_size": 10908,
                                                 "e_dim": 100, "l_dim": 100}})
        assert cli.main(["gradcheck", "--config", path]) == 1

    def test_corrupted_gradient_fails_with_exit_3(self, tmp_path, monkeypatch, capsys):
        # Negative control: a memory gate (tanh features) whose backward is
        # wrong must be caught.
        real_gate = T.episodic_gate

        def bad_gate(*args, **kwargs):
            out = real_gate(*args, **kwargs)
            original = out._backward
            if original is not None:
                def corrupted(g):
                    original(g * 1.05)
                out._backward = corrupted
            return out

        monkeypatch.setattr(stmtmem.model, "episodic_gate", bad_gate)
        path = self.gradcheck_config(tmp_path)
        assert cli.main(["gradcheck", "--config", path]) == 3
        assert "FAIL" in capsys.readouterr().out


class TestAblate:
    def test_small_sweep_produces_report_and_checkpoints(self, tmp_path):
        path = write_config(tmp_path, {"max_epochs": 2})
        assert cli.main(["prepare", "--config", path]) == 0
        sweep_path = str(tmp_path / "sweep.json")
        with open(sweep_path, "w") as fh:
            json.dump([{"name": "h1", "h": 1}, {"name": "h3", "h": 3}], fh)
        out = str(tmp_path / "ablation.txt")
        assert cli.main(["ablate", "--config", path, "--sweep", sweep_path,
                         "--out", out]) == 0
        report = json.loads((tmp_path / "ablation.txt.json").read_text())
        names = [row["name"] for row in report["rows"]]
        assert names == ["baseline", "h1", "h3"]  # baseline auto-inserted
        for name in names:
            assert (tmp_path / f"model.ckpt.{name}").exists()
        baseline_rows = [row for row in report["rows"] if row["t"] is None]
        assert len(baseline_rows) == 1 and baseline_rows[0]["name"] == "baseline"
        assert all(row["finite"] for row in report["rows"])
        assert_renders(out, cli.format_ablation)

    def test_sweep_entry_equal_to_baseline_is_the_baseline(self, tmp_path):
        path = write_config(tmp_path, {"max_epochs": 1})
        assert cli.main(["prepare", "--config", path]) == 0
        sweep_path = str(tmp_path / "sweep.json")
        with open(sweep_path, "w") as fh:
            json.dump([{"name": "h1", "h": 1}, {"name": "default", "h": 2}], fh)
        out = str(tmp_path / "ablation.txt")
        assert cli.main(["ablate", "--config", path, "--sweep", sweep_path,
                         "--out", out]) == 0
        report = json.loads((tmp_path / "ablation.txt.json").read_text())
        assert report["baseline"] == "default"
        assert [row["name"] for row in report["rows"]] == ["h1", "default"]
