import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreader_profiler import cli
from spreader_profiler.corpus import Label, Language, load_corpus, parse_truth_file
from spreader_profiler.evaluation import final_config, fit_pipeline
from spreader_profiler.models import LinearModel, ModelKind, load_model, save_model
from spreader_profiler.vectorize import NgramRange, Vocabulary, smooth_idf
from spreader_profiler.synth import generate_corpus_dir


def run(argv):
    return cli.run([str(a) for a in argv])


class TestTrainEvaluatePredict:
    def test_train_writes_model_and_report(self, small_synth_dir, tmp_path, capsys):
        model_path = tmp_path / "model.en"
        rc = run(["train", "--input", small_synth_dir, "--lang", "en",
                  "--seed", 42, "--out", model_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert model_path.exists()
        assert "split: seed=42 fraction=7/10" in out
        assert "TP\tTN\tFP\tFN\tP\tR\tF1\tAcc" in out

    def test_train_twice_byte_identical_model(self, small_synth_dir, tmp_path):
        paths = [tmp_path / "a.model", tmp_path / "b.model"]
        for path in paths:
            assert run(["train", "--input", small_synth_dir, "--lang", "en",
                        "--seed", 7, "--out", path]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_evaluate_heldout_split(self, small_synth_dir, tmp_path, capsys):
        model_path = tmp_path / "model.en"
        run(["train", "--input", small_synth_dir, "--lang", "en", "--seed", 5,
             "--out", model_path])
        capsys.readouterr()
        rc = run(["evaluate", "--model", model_path, "--input", small_synth_dir,
                  "--split", "test", "--seed", 5])
        out = capsys.readouterr().out
        assert rc == 0
        assert "authors: 8" in out  # 30% of 24, floor-split: 4 + 4

    def test_predict_writes_truth_format(self, small_synth_dir, tmp_path):
        model_path = tmp_path / "model.en"
        run(["train", "--input", small_synth_dir, "--lang", "en", "--out", model_path])
        unlabeled = tmp_path / "unlabeled"
        generate_corpus_dir(unlabeled, authors_per_class=3, tweets_per_author=20,
                            seed=99, language="en", labeled=False)
        predictions = tmp_path / "preds.txt"
        rc = run(["predict", "--model", model_path, "--input", unlabeled,
                  "--out", predictions])
        assert rc == 0
        parsed = parse_truth_file(predictions.read_text())
        corpus = load_corpus(unlabeled, "en")
        assert sorted(parsed) == corpus.author_ids()

    def test_predictions_reconsumable_as_truth(self, small_synth_dir, tmp_path):
        model_path = tmp_path / "model.en"
        run(["train", "--input", small_synth_dir, "--lang", "en", "--out", model_path])
        unlabeled = tmp_path / "unlabeled"
        generate_corpus_dir(unlabeled, authors_per_class=3, tweets_per_author=20,
                            seed=99, language="en", labeled=False)
        rc = run(["predict", "--model", model_path, "--input", unlabeled,
                  "--out", unlabeled / "truth.txt"])
        assert rc == 0
        relabeled = load_corpus(unlabeled, "en")
        assert relabeled.is_labeled

    def test_vectorizer_override_flags(self, small_synth_dir, tmp_path, capsys):
        rc = run(["train", "--input", small_synth_dir, "--lang", "en",
                  "--model", "logreg", "--range", "2:4", "--max-features", "500",
                  "--weighting", "count"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "model: logreg" in out
        assert "count,char,[2;4],max_features=500" in out

    def test_positive_class_override(self, small_synth_dir, tmp_path, capsys):
        model_path = tmp_path / "model.en"
        run(["train", "--input", small_synth_dir, "--lang", "en", "--out", model_path])
        capsys.readouterr()
        rc = run(["evaluate", "--model", model_path, "--input", small_synth_dir,
                  "--positive-class", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "positive class: 0" in out

    def test_predict_twice_byte_identical(self, small_synth_dir, tmp_path):
        model_path = tmp_path / "model.en"
        run(["train", "--input", small_synth_dir, "--lang", "en", "--out", model_path])
        outputs = [tmp_path / "p1.txt", tmp_path / "p2.txt"]
        for path in outputs:
            assert run(["predict", "--model", model_path, "--input", small_synth_dir,
                        "--out", path]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()


    def test_exact_zero_decision_values_are_counted_ties_for_true_class(
        self, small_synth_dir, tmp_path, capsys
    ):
        corpus = load_corpus(small_synth_dir, "en")
        fitted = fit_pipeline(corpus, final_config(Language.EN))
        tied = LinearModel(fitted.kind, np.zeros(fitted.dimension), 0.0,
                           fitted.feature_spec, fitted.language)
        model_path = tmp_path / "tied.model"
        save_model(tied, model_path)
        capsys.readouterr()
        assert run(["evaluate", "--model", model_path, "--input", small_synth_dir]) == 0
        assert f"ties at the decision boundary: {len(corpus)}" in capsys.readouterr().out
        predictions = tmp_path / "preds.txt"
        assert run(["predict", "--model", model_path, "--input", small_synth_dir,
                    "--out", predictions]) == 0
        assert set(parse_truth_file(predictions.read_text()).values()) == {
            Label.TRUE_NEWS_SPREADER
        }


class TestAnalyze:
    def test_analyze_prints_table(self, small_synth_dir, capsys):
        rc = run(["analyze", "--input", small_synth_dir, "--lang", "en"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0].startswith("Features")
        assert "Retweets (RT)" in out

    def test_analyze_to_file_deterministic(self, small_synth_dir, tmp_path):
        outputs = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in outputs:
            assert run(["analyze", "--input", small_synth_dir, "--lang", "en",
                        "--out", path]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()


class TestGridSearch:
    def test_small_grid(self, small_synth_dir, tmp_path):
        out_path = tmp_path / "grid.tsv"
        rc = run(["gridsearch", "--input", small_synth_dir, "--lang", "en",
                  "--ranges", "1:2", "--min-df", "1", "--max-features", "200,400",
                  "--weighting", "tfidf", "--models", "svm", "--out", out_path])
        assert rc == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 configs
        report_path = tmp_path / "grid.tsv.report.txt"
        assert report_path.exists()
        assert "mean_accuracy" in report_path.read_text()

    @pytest.mark.parametrize("flags", [
        ["--ranges", "1:2,1:2", "--weighting", "tfidf", "--models", "svm"],
        ["--ranges", "1:2", "--weighting", "count,count", "--models", "svm,svm"],
    ])
    def test_a_repeated_flag_value_adds_no_row(self, small_synth_dir, flags, capsys):
        """The TSV has one row per configuration, however often a flag
        names a value."""
        assert run(["gridsearch", "--input", small_synth_dir, "--lang", "en",
                    "--min-df", "1", "--max-features", "200", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2  # header + 1 config
        assert lines[1].startswith("1\t")


_EVERY_COMMAND = """
import contextlib, io, json, sys
from spreader_profiler import cli
corpus, out = sys.argv[1:]
commands = [
    ["analyze", "--input", corpus, "--lang", "en"],
    ["train", "--input", corpus, "--lang", "en", "--out", f"{out}/model"],
    ["evaluate", "--model", f"{out}/model", "--input", corpus],
    ["predict", "--model", f"{out}/model", "--input", corpus, "--out", f"{out}/predictions"],
    ["gridsearch", "--input", corpus, "--lang", "en", "--ranges", "1:2", "--min-df", "1",
     "--max-features", "200,400", "--weighting", "tfidf", "--models", "svm"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in commands]
print(json.dumps([codes, sorted(name for name in sys.modules if name.split(".")[0] == "scipy")]))
"""


def test_no_command_imports_scipy(small_synth_dir, tmp_path):
    """Every subcommand runs, in a fresh interpreter, without importing
    scipy, at start-up or later: the package's sparse matrices are its
    own CSC arrays, and scipy's import would cost every command."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _EVERY_COMMAND, str(small_synth_dir), str(tmp_path)],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    codes, imported = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * 5
    assert imported == []


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["train"]) == 1  # --input and --lang missing
        assert run(["no-such-command"]) == 1
        assert run([]) == 1

    def test_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["analyze", "--input", empty, "--lang", "en"]) == 2

    def test_corrupt_truth_is_data_error(self, tmp_path, small_synth_dir):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(small_synth_dir, broken)
        (broken / "truth.txt").write_text("not a truth line\n")
        assert run(["analyze", "--input", broken, "--lang", "en"]) == 2

    def test_model_error(self, tmp_path, small_synth_dir):
        bogus = tmp_path / "bogus.model"
        bogus.write_text("im not a model\n")
        assert run(["evaluate", "--model", bogus, "--input", small_synth_dir]) == 3

    def test_missing_input_dir(self, tmp_path):
        assert run(["analyze", "--input", tmp_path / "nowhere", "--lang", "en"]) == 2

    @staticmethod
    def assert_one_line(capsys, prefix):
        """The captured stderr is one line starting with ``prefix``; the
        captured stdout is returned."""
        out, err = capsys.readouterr()
        assert err.startswith(prefix)
        assert err.count("\n") == 1
        assert "Traceback" not in err
        return out

    @pytest.mark.filterwarnings("default::spreader_profiler.errors.NonStandardTweetCount")
    @pytest.mark.parametrize("corrupt_truth", [False, True])
    def test_warning_is_one_stderr_line(self, corrupt_truth, tmp_path, small_synth_dir, capsys):
        """The small corpus's authors have 20 tweets, not 100."""
        corpus = small_synth_dir
        if corrupt_truth:
            corpus = tmp_path / "broken"
            shutil.copytree(small_synth_dir, corpus)
            truth = corpus / "truth.txt"
            truth.write_bytes(b"\xff\xfe" + truth.read_bytes())
        assert run(["analyze", "--input", corpus, "--lang", "en"]) == (2 if corrupt_truth else 0)
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("warning: NonStandardTweetCount: 24 of 24 authors in ")
        if corrupt_truth:
            assert len(lines) == 2 and lines[1].startswith("data error: ")
        else:
            assert len(lines) == 1

    def test_non_alphanumeric_author_file_is_data_error(self, tmp_path, small_synth_dir, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(small_synth_dir, broken)
        first = sorted(broken.glob("*.xml"))[0]
        first.rename(broken / "a-b.xml")
        assert run(["analyze", "--input", broken, "--lang", "en"]) == 2
        self.assert_one_line(capsys, "data error: a-b.xml: ")

    def test_non_utf8_truth_is_data_error(self, tmp_path, small_synth_dir, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(small_synth_dir, broken)
        truth = broken / "truth.txt"
        truth.write_bytes(b"\xff\xfe" + truth.read_bytes())
        assert run(["analyze", "--input", broken, "--lang", "en"]) == 2
        self.assert_one_line(capsys, "data error: ")

    @pytest.mark.parametrize("subcommand", ["evaluate", "predict"])
    @pytest.mark.parametrize(
        "kind", ["directory", "non-utf8", "missing", "symlink-loop", "name-too-long"]
    )
    def test_unreadable_model_is_model_error(
        self, subcommand, kind, tmp_path, small_synth_dir, capsys
    ):
        model = tmp_path
        if kind == "missing":
            model = tmp_path / "no-such.model"
        elif kind == "non-utf8":
            model = tmp_path / "binary.model"
            model.write_bytes(b"spreader-profiler-model 1\n\xff\xfe\n")
        elif kind == "symlink-loop":
            model = tmp_path / "loop.model"
            model.symlink_to(model)
        elif kind == "name-too-long":
            model = tmp_path / ("m" * 300)
        assert run([subcommand, "--model", model, "--input", small_synth_dir]) == 3
        self.assert_one_line(capsys, "model error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--lang", "en", "--max-features", "0"],
            ["train", "--lang", "en", "--min-df", "0"],
            ["train", "--lang", "en", "--fraction", "3/2"],
            ["gridsearch", "--lang", "en", "--min-df", "0"],
            ["gridsearch", "--lang", "en", "--max-features", "100,0"],
            ["gridsearch", "--lang", "en", "--folds", "0"],
            ["evaluate", "--model", "unused.model", "--split", "test", "--seed", "-1"],
            ["gridsearch", "--lang", "en", "--models", ""],
            ["gridsearch", "--lang", "en", "--models", ","],
            ["gridsearch", "--lang", "en", "--ranges", ""],
            ["gridsearch", "--lang", "en", "--min-df", ""],
            ["gridsearch", "--lang", "en", "--max-features", ""],
            ["gridsearch", "--lang", "en", "--weighting", ""],
        ],
    )
    def test_invalid_configuration_is_usage_error(self, argv, small_synth_dir, capsys):
        assert run([*argv, "--input", small_synth_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["train", "--lang", "en", "--range", "2:1"], None,
             "argument --range: max_n must be >= min_n, got [2;1]"),
            (["train", "--lang", "en", "--range", "2-3"], None,
             "argument --range: expected MIN:MAX, got '2-3'"),
            (["train"], None, "the following arguments are required: --lang"),
            (["train", "--lang", "xx"], None, "argument --lang: invalid choice: 'xx'"),
            (["gridsearch", "--lang", "en", "--folds", "abc"], None,
             "argument --folds: invalid int value: 'abc'"),
            (["train", "--lang", "en"], "seed=abc\n", "argument --seed: invalid int value: 'abc'"),
            (["gridsearch", "--lang", "en", "--models", "svm,foo"], None,
             "argument --models: invalid ModelKind value: 'foo'"),
            (["gridsearch", "--lang", "en", "--weighting", "count, idf"], None,
             "argument --weighting: invalid Weighting value: 'idf'"),
            (["gridsearch", "--lang", "en", "--min-df", "1,2.5,x"], None,
             "argument --min-df: invalid int value: '2.5'"),
            (["gridsearch", "--lang", "en"], "ranges=1:3,3:1\n",
             "argument --ranges: max_n must be >= min_n, got [3;1]"),
        ],
    )
    def test_bad_command_line_is_one_usage_line(self, argv, config, message, tmp_path, capsys):
        argv = [*argv, "--input", str(tmp_path)]
        if config is not None:
            (tmp_path / "run.conf").write_text(config)
            argv += ["--config", str(tmp_path / "run.conf")]
        assert run(argv) == 1
        assert self.assert_one_line(capsys, f"usage error: {message}") == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["no-such-command"], "argument subcommand: invalid choice: 'no-such-command'"),
            ([], "the following arguments are required: subcommand"),
        ],
    )
    def test_bad_subcommand_is_one_usage_line(self, argv, message, capsys):
        assert run(argv) == 1
        assert self.assert_one_line(capsys, f"usage error: {message}") == ""

    @pytest.mark.parametrize("argv", [["-h"], ["train", "-h"], ["gridsearch", "--help"]])
    def test_help_goes_to_stdout(self, argv, capsys):
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: spreader-profiler") and err == ""

    def test_empty_grid_flag_is_refused_before_the_corpus_is_read(self, tmp_path, capsys):
        assert run(["gridsearch", "--lang", "en", "--models", "", "--input", tmp_path / "none"]) == 1
        self.assert_one_line(capsys, "usage error: --models needs at least one value")


class TestUnusablePaths:
    """A path that names a directory where a file is read or written is a
    data error: one line, exit 2."""

    GRID = ["--ranges", "1:2", "--models", "svm", "--weighting", "count",
            "--max-features", "50", "--min-df", "1"]

    @pytest.fixture(scope="class")
    def model(self, small_synth_dir, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.en"
        assert run(["train", "--input", small_synth_dir, "--lang", "en", "--out", path]) == 0
        return path

    @pytest.mark.parametrize("subcommand", ["train", "predict", "analyze", "gridsearch"])
    def test_out_naming_a_directory(self, subcommand, model, small_synth_dir, tmp_path, capsys):
        flags = {
            "train": ["--lang", "en"],
            "predict": ["--model", model],
            "analyze": ["--lang", "en"],
            "gridsearch": ["--lang", "en", *self.GRID],
        }[subcommand]
        argv = [subcommand, "--input", small_synth_dir, *flags, "--out", tmp_path]
        assert run(argv) == 2
        # nothing on stdout: train reports no model that it failed to write
        assert TestExitCodes.assert_one_line(capsys, "data error: ") == ""

    def test_grid_report_sibling_naming_a_directory(self, small_synth_dir, tmp_path, capsys):
        (tmp_path / "grid.tsv.report.txt").mkdir()
        argv = ["gridsearch", "--input", small_synth_dir, "--lang", "en", *self.GRID,
                "--out", tmp_path / "grid.tsv"]
        assert run(argv) == 2
        TestExitCodes.assert_one_line(capsys, "data error: ")

    def test_corpus_holding_a_directory_named_like_an_author(
        self, small_synth_dir, tmp_path, capsys
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(small_synth_dir, corpus)
        (corpus / "abc123.xml").mkdir()
        assert run(["analyze", "--input", corpus, "--lang", "en"]) == 2
        TestExitCodes.assert_one_line(capsys, "data error: ")


@pytest.fixture(scope="module")
def few_authors(tmp_path_factory):
    """Corpora of 3 credible users and 3 spreaders, of 3 and 1, and of 3
    and none."""
    root = tmp_path_factory.mktemp("few")
    generate_corpus_dir(root / "3-3", authors_per_class=3, tweets_per_author=100, seed=5,
                        language="en")
    for name, kept in (("3-1", 1), ("3-0", 0)):
        shutil.copytree(root / "3-3", root / name)
        truth = root / name / "truth.txt"
        lines = truth.read_text(encoding="utf-8").splitlines()
        dropped = [line for line in lines if line.endswith(":::1")][kept:]
        for line in dropped:
            (root / name / f"{line.partition(':::')[0]}.xml").unlink()
        truth.write_text("".join(f"{line}\n" for line in lines if line not in dropped),
                         encoding="utf-8")
    return root


class TestDegenerateFolds:
    """Folds that would leave a training side without a class, or a test
    side without authors, are a data error."""

    @pytest.mark.parametrize(
        "corpus, folds, message",
        [
            ("3-1", 2, "2 folds need 2 authors of class FAKE_NEWS_SPREADER, got 1"),
            ("3-1", 3, "3 folds need 2 authors of class FAKE_NEWS_SPREADER, got 1"),
            ("3-3", 4, "4 folds need 4 authors of one class; TRUE_NEWS_SPREADER has 3"),
        ],
    )
    def test_degenerate_folds_are_one_data_error_line(
        self, few_authors, corpus, folds, message, tmp_path
    ):
        code, err = _run_captured(["gridsearch", "--input", few_authors / corpus, "--lang", "en",
                                   "--folds", folds, "--out", tmp_path / "grid.tsv"])
        assert code == 2
        assert err.startswith(f"data error: {message}") and err.count("\n") == 1
        assert "SPREADER" in err and "Traceback" not in err

    def test_folds_up_to_the_larger_class_run(self, few_authors, tmp_path):
        code, err = _run_captured(["gridsearch", "--input", few_authors / "3-3", "--lang", "en",
                                   "--folds", 3, "--ranges", "1:2", "--max-features", "100",
                                   "--min-df", "1", "--out", tmp_path / "grid.tsv"])
        assert code == 0 and "error" not in err


class TestOneClassCorpus:
    """A labeled corpus without a spreader is a data error for every
    command that splits it to train, whatever the fold count."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train"], "the split needs authors of class FAKE_NEWS_SPREADER, got 0"),
            (["gridsearch", "--folds", 1],
             "the split needs authors of class FAKE_NEWS_SPREADER, got 0"),
            (["gridsearch", "--folds", 2],
             "2 folds need 2 authors of class FAKE_NEWS_SPREADER, got 0"),
        ],
        ids=["train", "folds-1", "folds-2"],
    )
    def test_is_one_data_error_line(self, few_authors, argv, message, tmp_path):
        command, *flags = argv
        code, err = _run_captured([command, "--input", few_authors / "3-0", "--lang", "en",
                                   *flags, "--out", tmp_path / "out.txt"])
        assert code == 2
        assert err == f"data error: {message}\n"
        assert not (tmp_path / "out.txt").exists()

    def test_evaluating_its_test_side_runs(self, few_authors, tmp_path):
        model = tmp_path / "model.txt"
        code, err = _run_captured(["train", "--input", few_authors / "3-3", "--lang", "en",
                                   "--out", model])
        assert code == 0 and "error" not in err
        code, err = _run_captured(["evaluate", "--model", model, "--input", few_authors / "3-0",
                                   "--split", "test"])
        assert code == 0 and "error" not in err


class TestConfigFile:
    def test_config_overrides_flags(self, small_synth_dir, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("seed=5\nmax-features=250\n")
        rc = run(["train", "--input", small_synth_dir, "--lang", "en",
                  "--seed", 1, "--config", config])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed=5" in out
        assert "max_features=250" in out

    def test_malformed_config_is_data_error(self, small_synth_dir, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("seed 5\n")
        assert run(["train", "--input", small_synth_dir, "--lang", "en",
                    "--config", config]) == 2

    def test_unknown_config_key_is_usage_error(self, small_synth_dir, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("frobnicate=yes\n")
        assert run(["train", "--input", small_synth_dir, "--lang", "en",
                    "--config", config]) == 1

    def test_config_directory_is_data_error(self, small_synth_dir, tmp_path, capsys):
        assert run(["train", "--input", small_synth_dir, "--lang", "en",
                    "--config", tmp_path]) == 2
        TestExitCodes.assert_one_line(capsys, "data error: ")

    @pytest.mark.parametrize("subcommand, line", [
        ("evaluate", "model=a\0b"),
        ("predict", "out=p\0.txt"),
    ])
    def test_nul_in_config_is_data_error(self, subcommand, line, fuzz_inputs, tmp_path, capsys):
        """Each value would otherwise reach a path: the model read, or the
        predictions written with a readable model."""
        corpus, model = fuzz_inputs
        config = tmp_path / "run.conf"
        config.write_text(f"# a comment\n{line}\n")
        assert run([subcommand, "--model", model, "--input", corpus, "--config", config]) == 2
        TestExitCodes.assert_one_line(capsys, f"data error: {config}:2: ")

    def test_non_utf8_config_is_data_error(self, small_synth_dir, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"seed=5\n\xff\xfe=1\n")
        assert run(["train", "--input", small_synth_dir, "--lang", "en",
                    "--config", config]) == 2
        TestExitCodes.assert_one_line(capsys, "data error: ")


# Text for corrupted lines: no tab, colon or line boundary, so an edited
# model line is never well formed and a truth line stays one line.
_LINE_TEXT = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters=":"),
    max_size=12,
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A corpus of two authors per class with the standard 100 tweets
    each (so that loading it warns about nothing) and a model trained
    on it."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "en"
    generate_corpus_dir(corpus, authors_per_class=2, tweets_per_author=100, seed=5,
                        language="en")
    model = root / "model.txt"
    save_model(fit_pipeline(load_corpus(corpus, "en"), final_config(Language.EN)), model)
    return corpus, model


def _run_captured(argv):
    """Exit code and standard error of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def _corrupt_corpus(directory, data):
    xml_paths = sorted(directory.glob("*.xml"))
    fault = data.draw(st.sampled_from(["truncate", "garble", "truth-line", "missing-author"]))
    if fault == "truncate":
        path = data.draw(st.sampled_from(xml_paths))
        raw = path.read_bytes()
        path.write_bytes(raw[: data.draw(st.integers(0, raw.rindex(b"</author>")))])
    elif fault == "garble":
        path = data.draw(st.sampled_from(xml_paths))
        raw = path.read_bytes()
        at = data.draw(st.integers(0, len(raw)))
        byte = data.draw(st.integers(0xF8, 0xFF))  # never valid in UTF-8
        path.write_bytes(raw[:at] + bytes([byte]) + raw[at:])
    elif fault == "truth-line":
        truth = directory / "truth.txt"
        lines = truth.read_text(encoding="utf-8").splitlines()
        known = sorted(line.partition(":::")[0] for line in lines)
        bad = data.draw(
            st.one_of(
                _LINE_TEXT.filter(lambda text: text.strip()),  # no separator
                st.builds("{}:::{}".format, st.sampled_from(known),
                          _LINE_TEXT.filter(lambda text: text.strip() not in ("0", "1"))),
                st.builds("{}:::1".format,
                          _LINE_TEXT.filter(lambda text: not text.strip().isalnum())),
                st.sampled_from(lines),  # a repeated author
                st.just("nosuchauthor:::0"),
            )
        )
        lines.insert(data.draw(st.integers(0, len(lines))), bad)
        truth.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        data.draw(st.sampled_from(xml_paths)).unlink()


def _corrupt_model(path, data):
    """Delete, repeat or edit one line above the checksum, and keep the
    old checksum or write one over the edited lines."""
    *lines, checksum = path.read_text(encoding="utf-8").splitlines()
    number = data.draw(st.integers(0, len(lines) - 1))
    fault = data.draw(st.sampled_from(["delete", "duplicate", "edit"]))
    if fault == "delete":
        del lines[number]
    elif fault == "duplicate":
        lines.insert(number, lines[number])
    else:
        lines[number] = data.draw(_LINE_TEXT.filter(lambda text: text != lines[number]))
    body = "\n".join(lines) + "\n"
    if data.draw(st.booleans()):
        checksum = f"checksum\tsha256:{hashlib.sha256(body.encode('utf-8')).hexdigest()}"
    path.write_text(body + checksum + "\n", encoding="utf-8")


class TestCorruptInputs:
    """Randomly corrupted corpora and model files end in one error line."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_corrupt_corpus_is_a_data_error(self, fuzz_inputs, data):
        corpus, _ = fuzz_inputs
        with tempfile.TemporaryDirectory() as scratch:
            broken = Path(scratch) / "en"
            shutil.copytree(corpus, broken)
            _corrupt_corpus(broken, data)
            code, err = _run_captured(["analyze", "--input", broken, "--lang", "en"])
        assert code == 2
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_corrupt_model_is_a_model_error(self, fuzz_inputs, data):
        corpus, model = fuzz_inputs
        with tempfile.TemporaryDirectory() as scratch:
            broken = Path(scratch) / "model.txt"
            shutil.copyfile(model, broken)
            _corrupt_model(broken, data)
            code, err = _run_captured(["evaluate", "--model", broken, "--input", corpus])
        assert code == 3
        assert err.startswith("model error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_model_naming_the_word_analyzer_is_a_model_error(fuzz_inputs, tmp_path):
    corpus, model = fuzz_inputs
    *lines, _ = model.read_text(encoding="utf-8").splitlines()
    assert lines.count("analyzer\tchar") == 1
    lines[lines.index("analyzer\tchar")] = "analyzer\tword"
    body = "\n".join(lines) + "\n"
    broken = tmp_path / "model.txt"
    broken.write_text(body + f"checksum\tsha256:{hashlib.sha256(body.encode()).hexdigest()}\n",
                      encoding="utf-8")
    code, err = _run_captured(["evaluate", "--model", broken, "--input", corpus])
    assert code == 3
    assert err.startswith("model error: ") and err.count("\n") == 1
    assert "'word' is not a valid Analyzer" in err and "Traceback" not in err


def test_terms_outside_a_blocks_lengths_score_as_absent(fuzz_inputs, tmp_path):
    """A model file may hold terms of lengths its block does not count:
    the empty term, terms shorter than ``min_n`` and terms longer than
    every counted length. Evaluated and predicted with, they change no
    output, even with weights that would outweigh every other term."""
    corpus, model = fuzz_inputs
    fitted = load_model(model)
    vocab = fitted.feature_spec[0]
    weight_of = dict(zip(vocab.terms(), fitted.weights.tolist()))
    config = replace(vocab.config, range=NgramRange(2, 3))
    kept = [term for term in vocab.terms() if len(term) >= 2]
    outside = ["", *(term for term in vocab.terms() if len(term) < 2), "abcdefgh", "thequick"]
    outputs = []
    for terms in (kept, sorted(kept + outside)):
        df = [vocab.document_frequency.get(term, 1) for term in terms]
        idf = [smooth_idf(vocab.corpus_size, d) for d in df]
        block = Vocabulary.from_columns(config, terms, df, vocab.corpus_size, idf)
        weights = np.array([100.0 if term in outside else weight_of[term] for term in terms])
        path = tmp_path / f"{len(terms)}.model"
        save_model(LinearModel(ModelKind.SVM, weights, fitted.bias, (block,), Language.EN), path)
        for argv in (["evaluate", "--model", path, "--input", corpus],
                     ["predict", "--model", path, "--input", corpus]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert run(argv) == 0
            assert err.getvalue() == ""
            outputs.append(out.getvalue())
    assert outputs[:2] == outputs[2:]


def test_help_exits_zero():
    assert run(["--help"]) == 0
