import pytest

from spreader_profiler.corpus import Label, load_corpus
from spreader_profiler.synth import generate_corpus_dir, main


def test_generator_is_deterministic(tmp_path):
    first = generate_corpus_dir(tmp_path / "a", authors_per_class=4, tweets_per_author=5, seed=2)
    second = generate_corpus_dir(tmp_path / "b", authors_per_class=4, tweets_per_author=5, seed=2)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_generated_corpus_loads_balanced(tmp_path):
    generate_corpus_dir(tmp_path / "c", authors_per_class=5, tweets_per_author=8, seed=4)
    corpus = load_corpus(tmp_path / "c", "en")
    counts = corpus.class_counts()
    assert counts[Label.TRUE_NEWS_SPREADER] == counts[Label.FAKE_NEWS_SPREADER] == 5
    assert all(len(author.tweets) == 8 for author in corpus)


def test_unlabeled_mode(tmp_path):
    generate_corpus_dir(tmp_path / "u", authors_per_class=3, tweets_per_author=5,
                        seed=1, labeled=False)
    corpus = load_corpus(tmp_path / "u", "en")
    assert not corpus.is_labeled


def test_module_cli(tmp_path, capsys):
    rc = main([str(tmp_path / "m"), "--authors-per-class", "2",
               "--tweets-per-author", "3", "--seed", "9", "--lang", "es"])
    assert rc == 0
    assert "wrote 4 authors" in capsys.readouterr().out
    corpus = load_corpus(tmp_path / "m", "es")
    assert len(corpus) == 4


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--authors-per-class", "0"], "authors_per_class must be >= 1, got 0"),
        (["--authors-per-class", "-2"], "authors_per_class must be >= 1, got -2"),
        (["--tweets-per-author", "0"], "tweets_per_author must be >= 1, got 0"),
    ],
)
def test_module_cli_refuses_a_count_below_one(flags, message, tmp_path, capsys):
    """A usage error (exit 2, argparse's message), and nothing written:
    no directory and no truth file that no command could read."""
    with pytest.raises(SystemExit) as exit_info:
        main([str(tmp_path / "out"), *flags])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"python -m spreader_profiler.synth: error: {message}\n")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("counts", [{"authors_per_class": 0}, {"tweets_per_author": -1}])
def test_generator_refuses_a_count_below_one_before_writing(counts, tmp_path):
    with pytest.raises(ValueError, match="must be >= 1"):
        generate_corpus_dir(tmp_path / "out", **counts)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["file", "under-file"])
def test_module_cli_reports_an_unusable_out_dir_in_one_line(target, tmp_path, capsys):
    (tmp_path / "taken").write_text("a file\n")
    out_dir = tmp_path / "taken" if target == "file" else tmp_path / "taken" / "sub"
    assert main([str(out_dir), "--authors-per-class", "1", "--tweets-per-author", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("python -m spreader_profiler.synth: error: [Errno ")
    assert err.count("\n") == 1 and str(out_dir) in err
    assert (tmp_path / "taken").read_text() == "a file\n"
