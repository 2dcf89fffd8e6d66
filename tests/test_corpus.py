import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreader_profiler.corpus import (
    AuthorDocument,
    Corpus,
    Label,
    Language,
    SplitSpec,
    load_corpus,
    parse_author_xml,
    parse_truth_file,
    render_author_xml,
    split_corpus,
    split_folds,
)
from spreader_profiler.errors import (
    DegenerateSplit,
    DuplicateAuthorId,
    EmptyAuthor,
    MalformedTruthLine,
    MalformedXml,
    MissingAuthorFile,
    NonStandardTweetCount,
    UnlabeledAuthor,
    UnlabeledCorpus,
)
from spreader_profiler.synth import generate_corpus_dir

from conftest import make_author, make_corpus


class TestParseAuthorXml:
    def test_hundred_documents(self):
        docs = "".join(f"<document><![CDATA[tweet {i}]]></document>" for i in range(100))
        raw = f'<author lang="en"><documents>{docs}</documents></author>'.encode()
        doc = parse_author_xml(raw, author_id="abc123")
        assert len(doc.tweets) == 100
        assert doc.tweets[0] == "tweet 0"
        assert doc.label is None

    def test_single_cdata_document(self):
        raw = b"<documents><document><![CDATA[hi #URL#]]></document></documents>"
        doc = parse_author_xml(raw, author_id="a1")
        assert doc.tweets == ("hi #URL#",)

    def test_empty_documents_container(self):
        with pytest.raises(EmptyAuthor):
            parse_author_xml(b"<documents></documents>", author_id="a1")

    def test_malformed_xml(self):
        with pytest.raises(MalformedXml):
            parse_author_xml(b"<documents><document>oops", author_id="a1")

    def test_entities_decoded(self):
        raw = b"<documents><document>a &amp; b</document></documents>"
        doc = parse_author_xml(raw, author_id="a1")
        assert doc.tweets == ("a & b",)

    def test_non_hundred_count_warns(self):
        raw = b"<documents><document>only one</document></documents>"
        with pytest.warns(NonStandardTweetCount):
            parse_author_xml(raw, author_id="a1")

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(
                    codec="utf-8", exclude_categories=("Cs", "Cc"), include_characters=" \t"
                ),
                max_size=60,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_render_parse_round_trip(self, tweets):
        doc = make_author("a1", tweets)
        parsed = parse_author_xml(render_author_xml(doc, Language.EN), author_id="a1")
        assert parsed.tweets == doc.tweets

    def test_round_trip_with_cdata_terminator_inside(self):
        doc = make_author("a1", ["x ]]> y", "plain"])
        parsed = parse_author_xml(render_author_xml(doc), author_id="a1")
        assert parsed.tweets == doc.tweets


class TestParseTruthFile:
    def test_two_lines(self):
        labels = parse_truth_file("a1b2:::1\nc3d4:::0")
        assert labels == {
            "a1b2": Label.FAKE_NEWS_SPREADER,
            "c3d4": Label.TRUE_NEWS_SPREADER,
        }

    def test_empty_string(self):
        assert parse_truth_file("") == {}

    def test_invalid_label(self):
        with pytest.raises(MalformedTruthLine):
            parse_truth_file("a1b2:::2")

    def test_missing_separator(self):
        with pytest.raises(MalformedTruthLine) as err:
            parse_truth_file("a1b2:1\n")
        assert "line 1" in str(err.value)

    def test_duplicate_id(self):
        with pytest.raises(DuplicateAuthorId):
            parse_truth_file("a1:::0\na1:::1")

    def test_blank_lines_skipped(self):
        assert len(parse_truth_file("\na1:::0\n\n")) == 1


class TestLoadCorpus:
    def _write_author(self, directory, author_id, tweets):
        doc = make_author(author_id, tweets)
        (directory / f"{author_id}.xml").write_bytes(render_author_xml(doc))

    def test_balanced_300_author_corpus(self, tmp_path):
        generate_corpus_dir(
            tmp_path, authors_per_class=150, tweets_per_author=3, seed=11, language="en"
        )
        corpus = load_corpus(tmp_path, "en")
        assert len(corpus) == 300
        counts = corpus.class_counts()
        assert counts[Label.TRUE_NEWS_SPREADER] == counts[Label.FAKE_NEWS_SPREADER] == 150

    def test_unlabeled_when_no_truth(self, tmp_path):
        self._write_author(tmp_path, "b1", ["x"])
        self._write_author(tmp_path, "a1", ["y"])
        corpus = load_corpus(tmp_path, Language.EN)
        assert len(corpus) == 2
        assert not corpus.is_labeled
        assert corpus.author_ids() == ["a1", "b1"]  # sorted regardless of write order

    def test_truth_without_xml(self, tmp_path):
        self._write_author(tmp_path, "a1", ["x"])
        (tmp_path / "truth.txt").write_text("a1:::0\nzz:::1\n")
        with pytest.raises(MissingAuthorFile):
            load_corpus(tmp_path, "en")

    def test_xml_without_truth_entry(self, tmp_path):
        self._write_author(tmp_path, "a1", ["x"])
        self._write_author(tmp_path, "a2", ["y"])
        (tmp_path / "truth.txt").write_text("a1:::0\n")
        with pytest.raises(UnlabeledAuthor):
            load_corpus(tmp_path, "en")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(MissingAuthorFile):
            load_corpus(tmp_path, "en")

    def test_tweet_count_warnings_aggregate_to_one(self, tmp_path):
        for author_id in ("a1", "a2", "a3"):
            self._write_author(tmp_path, author_id, ["just one tweet"])
        with pytest.warns(NonStandardTweetCount) as caught:
            load_corpus(tmp_path, "en")
        summaries = [w for w in caught if "3 of 3 authors" in str(w.message)]
        assert len(summaries) == 1
        assert len(caught) == 1


class TestCorpusInvariants:
    def test_sorted_iteration(self):
        corpus = make_corpus([("b2", ["x"], 0), ("a1", ["y"], 1)])
        assert corpus.author_ids() == ["a1", "b2"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateAuthorId):
            make_corpus([("a1", ["x"], 0), ("a1", ["y"], 1)])

    def test_mixed_labeling_rejected(self):
        with pytest.raises(UnlabeledAuthor):
            Corpus(
                Language.EN,
                (make_author("a1", ["x"], Label.TRUE_NEWS_SPREADER), make_author("b1", ["y"])),
            )

    def test_bad_author_id_rejected(self):
        with pytest.raises(ValueError):
            make_author("has space", ["x"])
        with pytest.raises(ValueError):
            make_author("", ["x"])

    def test_empty_tweets_rejected(self):
        with pytest.raises(EmptyAuthor):
            AuthorDocument("a1", ())


def _balanced_corpus(n_per_class, seed=0):
    rng = random.Random(seed)
    pairs = []
    for i in range(n_per_class):
        pairs.append((f"t{i:03d}x", [f"true tweet {rng.random()}"], 0))
        pairs.append((f"f{i:03d}x", [f"fake tweet {rng.random()}"], 1))
    return make_corpus(pairs)


class TestSplitCorpus:
    def test_seventy_thirty_counts(self):
        corpus = _balanced_corpus(150)
        train, test = split_corpus(corpus, SplitSpec(seed=1))
        assert train.class_counts() == {
            Label.TRUE_NEWS_SPREADER: 105,
            Label.FAKE_NEWS_SPREADER: 105,
        }
        assert test.class_counts() == {
            Label.TRUE_NEWS_SPREADER: 45,
            Label.FAKE_NEWS_SPREADER: 45,
        }

    def test_same_seed_same_partition(self):
        corpus = _balanced_corpus(20)
        first = split_corpus(corpus, SplitSpec(seed=99))
        second = split_corpus(corpus, SplitSpec(seed=99))
        assert first[0].author_ids() == second[0].author_ids()
        assert first[1].author_ids() == second[1].author_ids()

    def test_different_seed_usually_differs(self):
        corpus = _balanced_corpus(20)
        a, _ = split_corpus(corpus, SplitSpec(seed=1))
        b, _ = split_corpus(corpus, SplitSpec(seed=2))
        assert a.author_ids() != b.author_ids()

    def test_partition_properties(self):
        corpus = _balanced_corpus(17)
        train, test = split_corpus(corpus, SplitSpec(seed=5))
        train_ids, test_ids = set(train.author_ids()), set(test.author_ids())
        assert train_ids | test_ids == set(corpus.author_ids())
        assert train_ids & test_ids == set()
        frac = Fraction(7, 10)
        for part in (train, test):
            counts = part.class_counts()
            for label, count in counts.items():
                class_total = 17
                expected = class_total * (frac if part is train else 1 - frac)
                assert abs(count - expected) < 1

    def test_degenerate_split(self):
        corpus = _balanced_corpus(2)
        with pytest.raises(DegenerateSplit):
            split_corpus(corpus, SplitSpec(train_fraction=Fraction(1, 10), seed=0))

    def test_unlabeled_corpus_rejected(self):
        corpus = make_corpus([("a1", ["x"], None), ("b1", ["y"], None)], labeled=False)
        with pytest.raises(UnlabeledCorpus):
            split_corpus(corpus, SplitSpec())

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=Fraction(1))
        with pytest.raises(ValueError):
            SplitSpec(seed=-1)

    @settings(max_examples=60, deadline=None)
    @given(
        per_class=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32),
        numerator=st.integers(min_value=1, max_value=9),
    )
    def test_stratified_floor_property(self, per_class, seed, numerator):
        corpus = _balanced_corpus(per_class)
        frac = Fraction(numerator, 10)
        if (per_class * numerator) // 10 == 0:
            with pytest.raises(DegenerateSplit):
                split_corpus(corpus, SplitSpec(train_fraction=frac, seed=seed))
            return
        train, test = split_corpus(corpus, SplitSpec(train_fraction=frac, seed=seed))
        expected_train = (per_class * numerator) // 10
        for count in train.class_counts().values():
            assert count == expected_train
        for count in test.class_counts().values():
            assert count == per_class - expected_train


def _corpus_of_sizes(n_true, n_fake):
    pairs = [(f"t{i:03d}x", ["true tweet"], 0) for i in range(n_true)]
    pairs += [(f"f{i:03d}x", ["fake tweet"], 1) for i in range(n_fake)]
    return make_corpus(pairs)


class TestSplitFolds:
    def test_one_fold_is_the_seeded_split(self):
        corpus, spec = _balanced_corpus(9), SplitSpec(seed=3)
        assert split_folds(corpus, spec, 1) == [split_corpus(corpus, spec)]

    def test_folds_and_split_draw_one_shuffle(self):
        # with as many folds as the larger class has authors, fold f holds
        # the author at position f of each shuffled class
        corpus = _corpus_of_sizes(7, 5)
        spec = SplitSpec(train_fraction=Fraction(1, 2), seed=21)
        order = {label: [] for label in Label}
        for _, test in split_folds(corpus, spec, 7):
            for author in test:
                order[author.label].append(author.author_id)
        train, _ = split_corpus(corpus, spec)
        kept = order[Label.TRUE_NEWS_SPREADER][:3] + order[Label.FAKE_NEWS_SPREADER][:2]
        assert sorted(kept) == train.author_ids()

    @settings(max_examples=80, deadline=None)
    @given(
        n_true=st.integers(0, 7),
        n_fake=st.integers(0, 7),
        folds=st.integers(2, 9),
        seed=st.integers(0, 2**32),
    )
    def test_refuses_exactly_the_degenerate_folds(self, n_true, n_fake, folds, seed):
        if n_true + n_fake == 0:
            return
        corpus = _corpus_of_sizes(n_true, n_fake)
        sizes = {Label.TRUE_NEWS_SPREADER: n_true, Label.FAKE_NEWS_SPREADER: n_fake}
        # dealt round-robin, fold f tests positions f, f + folds, ... of each class
        tested = [{label: len(range(f, size, folds)) for label, size in sizes.items()}
                  for f in range(folds)]
        degenerate = any(
            sum(counts.values()) == 0 or any(counts[c] == sizes[c] for c in sizes)
            for counts in tested
        )
        if degenerate:
            with pytest.raises(DegenerateSplit, match=f"^{folds} folds need "):
                split_folds(corpus, SplitSpec(seed=seed), folds)
            return
        pairs = split_folds(corpus, SplitSpec(seed=seed), folds)
        held_out = [author for _, test in pairs for author in test.author_ids()]
        assert sorted(held_out) == corpus.author_ids()  # each author held out once
        for (train, test), counts in zip(pairs, tested):
            assert set(train.author_ids()).isdisjoint(test.author_ids())
            assert {label: sum(a.label is label for a in test) for label in sizes} == counts
            assert 0 not in train.class_counts().values()

    @pytest.mark.parametrize(
        "n_true, n_fake, folds, message",
        [
            (3, 1, 2, "2 folds need 2 authors of class FAKE_NEWS_SPREADER, got 1"),
            (3, 1, 3, "3 folds need 2 authors of class FAKE_NEWS_SPREADER, got 1"),
            (3, 0, 2, "2 folds need 2 authors of class FAKE_NEWS_SPREADER, got 0"),
            (3, 3, 4, "4 folds need 4 authors of one class; TRUE_NEWS_SPREADER has 3"),
        ],
    )
    def test_degenerate_folds_name_the_count_and_the_class(self, n_true, n_fake, folds, message):
        with pytest.raises(DegenerateSplit, match=message) as refused:
            split_folds(_corpus_of_sizes(n_true, n_fake), SplitSpec(), folds)
        assert "SPREADER" in str(refused.value)

    def test_fold_count_validation(self):
        with pytest.raises(ValueError):
            split_folds(_balanced_corpus(3), SplitSpec(), 0)


def test_load_corpus_order_independent(tmp_path):
    # same files created in two different orders load to the same corpus
    dirs = [tmp_path / "one", tmp_path / "two"]
    authors = [("a9", "first"), ("a1", "second"), ("a5", "third")]
    for directory, ordering in zip(dirs, (authors, list(reversed(authors)))):
        directory.mkdir()
        for author_id, text in ordering:
            doc = make_author(author_id, [text])
            (directory / f"{author_id}.xml").write_bytes(render_author_xml(doc))
    first = load_corpus(dirs[0], "en")
    second = load_corpus(dirs[1], "en")
    assert first.author_ids() == second.author_ids()
    assert [a.tweets for a in first] == [a.tweets for a in second]
