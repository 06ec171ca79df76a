"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stmtmem.model
from stmtmem import cli
from stmtmem import tensor as T
from stmtmem.cli import RunConfig
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


def config_fields() -> list[tuple[str | None, str, object]]:
    """(section, field, declared type) of every run-config field, read from
    the dataclasses; the section is None for a top-level field."""
    found = []
    for name, kind in typing.get_type_hints(RunConfig).items():
        found.append((None, name, kind))
        for section in (kind, *typing.get_args(kind)):
            if dataclasses.is_dataclass(section):
                found += [(name, f, k) for f, k in typing.get_type_hints(section).items()]
    return found


NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
NUMBERS = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
STRINGS = st.text(max_size=8)
LISTS = st.lists(st.integers(0, 9) | st.text(max_size=3), max_size=3)


def wrong_kind(kind):
    """JSON values whose kind differs from the declared type `kind` (a
    string for a number, a number for a string, a bare string or a scalar
    for a list, a list for a scalar, a boolean for a number, NaN and +-inf):
    invalid kinds only, never valid but huge values."""
    args = typing.get_args(kind)
    if type(None) in args:
        kind = args[0]
    if dataclasses.is_dataclass(kind):
        return STRINGS | NUMBERS | LISTS | st.booleans() | NON_FINITE
    if typing.get_origin(kind) is tuple:
        return STRINGS | NUMBERS | st.booleans() | NON_FINITE
    if kind is str:
        return NUMBERS | LISTS | st.booleans() | NON_FINITE
    return STRINGS | LISTS | st.booleans() | NON_FINITE


class TestRunConfig:
    @given(st.sampled_from(config_fields()).flatmap(
        lambda f: st.tuples(st.just(f), wrong_kind(f[2]))))
    @settings(max_examples=300, deadline=None)
    def test_value_of_the_wrong_kind_exits_1_naming_the_field(self, case):
        (section, name, _), value = case
        with tempfile.TemporaryDirectory() as root:
            raw = base_config_dict(root)
            (raw[section] if section else raw)[name] = value
            path = os.path.join(root, "run.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert cli.main(["prepare", "--config", path]) == 1
            assert os.listdir(root) == ["run.json"]
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]
        assert "Traceback" not in err.getvalue()

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
        (lambda raw: {**raw, "split": {"exclude_ids": "proj000_fn000"}}, None),
        (lambda raw: {**raw, "synthetic": {"families": "emit"}}, None),
    ], ids=["top_level_list", "model_not_object", "model_value_type", "seed_not_int",
            "ratios_not_list", "statement_range_short", "sweep_value_type",
            "int_field_float", "batch_float", "float_field_string", "int_field_bool",
            "synthetic_int_field_float", "exclude_ids_bare_string", "families_bare_string"])
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
        if sweep is None:
            assert sorted(os.listdir(tmp_path)) == ["run.json"]

    def test_bad_ratios_fail_before_any_io(self, tmp_path):
        path = write_config(tmp_path, {"split": {"ratios": [0.9, 0.2, 0.1]}})
        assert cli.main(["prepare", "--config", path]) == 1
        assert not os.path.exists(tmp_path / "corpus.tsv")

    @pytest.mark.parametrize("projects", [1, 2])
    def test_too_few_projects_fail_before_any_io(self, tmp_path, capsys, projects):
        path = write_config(tmp_path, {"synthetic": {"projects": projects}})
        assert cli.main(["prepare", "--config", path]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "synthetic.projects must be >= 3" in err
        assert os.listdir(tmp_path) == ["run.json"]

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
    "exclude_id_not_a_string": (1, "exclude_ids must be a JSON list of strings", "prepare",
                                lambda root: edit_config(
                                    root, lambda raw: raw["split"].update(exclude_ids=[[1]]))),
    "model_rng_seed_set": (1, "model.rng_seed is set by the run's seed", "prepare",
                           lambda root: edit_config(root, set_model(rng_seed=5))),
    "max_epochs_zero": (1, "max_epochs must be >= 1", "train",
                        lambda root: edit_config(root, lambda raw: raw.update(max_epochs=0))),
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
    "dataset_path_nul": (1, "paths.dataset must not contain a NUL", "prepare",
                         lambda root: edit_config(root, lambda raw: raw["paths"].update(
                             dataset=f"{root}/a\u0000b.tsv"))),
    "out_flag_nul": (1, "--out must not contain a NUL", "predict --out a\u0000b.preds",
                     lambda root: None),
    "config_flag_nul": (1, "--config must not contain a NUL", "prepare --config a\u0000b.json",
                        lambda root: None),
}


class TestErrorContract:
    @pytest.mark.parametrize("probe", sorted(CORRUPT_INPUTS))
    def test_corrupt_input_exits_with_one_line(self, tmp_path, capsys, probe):
        code, message, command, mutate = CORRUPT_INPUTS[probe]
        path = write_config(tmp_path)
        assert cli.main(["prepare", "--config", path]) == 0
        mutate(tmp_path)
        capsys.readouterr()
        files = {p: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
        command, *flags = command.split()
        assert cli.main([command, "--config", path, *flags]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert message in err and "Traceback" not in err
        # the failing command wrote no file
        assert {p: p.stat().st_mtime_ns for p in tmp_path.iterdir()} == files

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

    @pytest.mark.parametrize("argv", [
        [],
        ["predict"],
        ["predict", "--config", "run.json", "--bogus"],
        ["train", "--config", "run.json", "--seed", "abc"],
    ], ids=["no_command", "predict_without_config", "unknown_flag", "seed_not_an_int"])
    def test_usage_error_exits_1_with_one_line(self, capsys, argv):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error:") and "Traceback" not in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as done:
            cli.main(["predict", "--help"])
        assert done.value.code == 0
        assert "--checkpoint" in capsys.readouterr().out

    def test_calls_share_no_flag_state(self, pipeline, capsys):
        # the parser is built once per process; each call's --checkpoint
        # list is its own
        root, path = pipeline
        ckpt, out = str(root / "model.ckpt"), str(root / "flags.preds")
        assert cli.main(["predict", "--config", path, "--out", out,
                         "--checkpoint", str(root / "missing.ckpt")]) == 2
        for checkpoints, members in (([], 1), ([ckpt, ckpt], 2), ([ckpt], 1)):
            capsys.readouterr()
            flags = [arg for c in checkpoints for arg in ("--checkpoint", c)]
            assert cli.main(["predict", "--config", path, "--out", out, *flags]) == 0
            assert f" from {members} model(s) " in capsys.readouterr().out

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


def flip_bit(blob: bytes) -> bytes:
    """Bit 0 of the first line's first tab flipped, or of the first byte
    when that line has no tab (a vocabulary's first reserved token, a
    checkpoint's format line)."""
    first = blob.split(b"\n", 1)[0]
    at = first.index(b"\t") if b"\t" in first else 0
    return blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:]


# (name, mutation of a data file's bytes); each leaves a file that no
# reader may accept
MUTATIONS = (
    ("byte_flip", flip_bit),
    ("truncated", lambda blob: blob[:len(blob.split(b"\n", 1)[0]) // 2]),
    ("non_utf8", lambda blob: blob.replace(b"\n", b"\n\xff\xfe", 1)),
    ("duplicate_line", lambda blob: blob.split(b"\n", 1)[0] + b"\n" + blob),
    ("extra_field", lambda blob: blob.replace(b"\n", b"\textra\n", 1)),
    ("empty", lambda blob: b""),
)
# (file, mutation) -> text the one stderr line holds
MUTATION_MESSAGES = {("model.ckpt", "truncated"): "format line is 'stmtmem-ch', not",
                     ("model.ckpt", "empty"): "format line is '', not"}
# data file of a prepared and trained run -> the commands that read it
DATA_FILE_READERS = {
    "train.tsv": ("train",),
    "val.tsv": ("train",),
    "test.tsv": ("predict", "evaluate"),
    "code.vocab": ("train", "predict"),
    "summary.vocab": ("train", "predict"),
    "model.ckpt": ("predict",),
    "model.preds": ("evaluate",),
}


class TestDataFileMutations:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """The data files of one tiny run: prepared, trained one epoch,
        predicted."""
        root = tmp_path_factory.mktemp("mutations")
        path = write_config(root, {"max_epochs": 1})
        for command in ("prepare", "train", "predict"):
            assert cli.main([command, "--config", path]) == 0
        return {name: (root / name).read_bytes() for name in DATA_FILE_READERS}

    @pytest.mark.parametrize("name", sorted(DATA_FILE_READERS))
    def test_every_reader_refuses_a_mutated_file_with_one_line(self, trained, tmp_path,
                                                               capsys, name):
        # 7 files x 6 mutations x their readers, each on a fresh copy of the run
        for label, mutate in MUTATIONS:
            for command in DATA_FILE_READERS[name]:
                run = tmp_path / f"{label}-{command}"
                run.mkdir()
                path = write_config(run, {"max_epochs": 1})
                for other, blob in trained.items():
                    (run / other).write_bytes(mutate(blob) if other == name else blob)
                capsys.readouterr()
                files = {p: p.stat().st_mtime_ns for p in run.iterdir()}
                code = cli.main([command, "--config", path])
                err = capsys.readouterr().err
                case = f"{name} {label}, {command}: exit {code}, stderr {err!r}"
                assert code in (1, 2), case
                assert len(err.splitlines()) == 1 and "Traceback" not in err, case
                assert MUTATION_MESSAGES.get((name, label), "") in err, case
                assert {p: p.stat().st_mtime_ns for p in run.iterdir()} == files, case

    # half the flips land in the first KiB: the text files and the checkpoint header
    @given(name=st.sampled_from(sorted(DATA_FILE_READERS)),
           position=st.integers(0, 1023) | st.integers(0, 2 ** 20), xor=st.integers(1, 255))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_a_byte_flipped_anywhere_exits_0_or_with_one_line(self, trained, name, position, xor):
        # a flip may leave a valid file (a token spelt differently, another
        # float), so success is allowed; a failure keeps the error contract
        blob = bytearray(trained[name])
        blob[position % len(blob)] ^= xor
        for command in DATA_FILE_READERS[name]:
            with tempfile.TemporaryDirectory() as tmp:
                run = pathlib.Path(tmp)
                path = write_config(run, {"max_epochs": 1})
                for other, data in trained.items():
                    (run / other).write_bytes(bytes(blob) if other == name else data)
                files = {p: p.stat().st_mtime_ns for p in run.iterdir()}
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([command, "--config", path])
                case = f"{name} byte {position % len(blob)} ^ {xor}, {command}: exit {code}, " \
                       f"stderr {err.getvalue()!r}"
                assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), case
                if code:
                    assert len(err.getvalue().splitlines()) == 1, case
                    assert {p: p.stat().st_mtime_ns for p in run.iterdir()} == files, case


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

    @pytest.mark.parametrize("sweep", [
        [{"name": "a\u0000b"}],
        [{"name": 5, "h": 1}],
        [{"name": None, "h": 1}],
        [{"name": ["x"], "h": 1}],
        [{"name": "x", "h": 1}, {"name": "x", "h": 3}],
        [{"name": "baseline", "h": 1}],
    ], ids=["nul", "number", "null", "list", "repeated", "implicit_baseline"])
    def test_bad_names_exit_1_before_any_training(self, tmp_path, capsys, sweep):
        path = write_config(tmp_path, {"max_epochs": 1})
        assert cli.main(["prepare", "--config", path]) == 0
        sweep_path = str(tmp_path / "sweep.json")
        with open(sweep_path, "w") as fh:
            json.dump(sweep, fh)
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert cli.main(["ablate", "--config", path, "--sweep", sweep_path]) == 1
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err and "ablate:" not in out
        assert sorted(os.listdir(tmp_path)) == before

    def test_sweep_entry_keeps_its_rng_seed(self, tmp_path):
        # the run's seed sets the baseline's rng_seed; a sweep entry may override it
        path = write_config(tmp_path, {"max_epochs": 1})
        assert cli.main(["prepare", "--config", path]) == 0
        sweep_path = str(tmp_path / "sweep.json")
        with open(sweep_path, "w") as fh:
            json.dump([{"name": "reseeded", "rng_seed": 99}], fh)
        assert cli.main(["ablate", "--config", path, "--sweep", sweep_path,
                         "--out", str(tmp_path / "ablation.txt")]) == 0
        seeds = {name: load_checkpoint(str(tmp_path / f"model.ckpt.{name}"))[0].rng_seed
                 for name in ("baseline", "reseeded")}
        assert seeds == {"baseline": 11, "reseeded": 99}

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
