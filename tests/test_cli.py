"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

import json
import os
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

    def test_unknown_keys_rejected_at_each_level(self, tmp_path):
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

    def test_predict_then_rerun_identical(self, pipeline):
        root, path = pipeline
        inputs_before = {name: (root / name).read_bytes()
                         for name in ("test.tsv", "code.vocab", "summary.vocab",
                                      "model.ckpt")}
        assert cli.main(["predict", "--config", path]) == 0
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

    def test_evaluate_model_predictions(self, pipeline):
        root, path = pipeline
        assert cli.main(["predict", "--config", path]) == 0
        assert cli.main(["evaluate", "--config", path]) == 0
        report = json.loads((root / "report.txt.json").read_text())
        assert 0.0 <= report["meteor"] <= 1.0
        assert 0.0 <= report["bleu"] <= 100.0

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


class TestErrorContract:
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
