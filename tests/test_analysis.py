import pytest

from spreader_profiler.analysis import (
    class_tally,
    corpus_stats,
    render_stats_table,
)
from spreader_profiler.corpus import Label, load_corpus
from spreader_profiler.errors import UnlabeledCorpus

from conftest import make_author, make_corpus, pan_data_dir


class TestAuthorTally:
    def test_hand_counted_example(self):
        doc = make_author("a1", ["RT #USER#: GO NOW", "ok 😀😀"], Label.TRUE_NEWS_SPREADER)
        stats = class_tally([doc])
        assert stats.retweets == 1
        assert stats.user_tokens == 1
        assert stats.emojis_total == 2
        assert stats.emojis_unique == 1
        assert stats.uppercased_tokens_total == 3  # RT, GO, NOW
        assert stats.uppercased_phrases_total == 1  # the GO NOW run

    def test_empty_class_is_all_zeros(self):
        stats = class_tally([])
        assert stats.unique_tokens == 0
        assert stats.emojis_total == 0
        assert stats.retweets == 0
        assert stats.uppercased_phrases_total == 0

    def test_phrase_run_does_not_span_tweets(self):
        doc = make_author("a1", ["ONE TWO", "THREE FOUR"])
        stats = class_tally([doc])
        assert stats.uppercased_phrases_total == 2

    def test_rt_must_lead_the_tweet(self):
        doc = make_author("a1", ["ok RT #USER# hi", "RT go"])
        stats = class_tally([doc])
        assert stats.retweets == 1

    def test_placeholder_counting_is_substring_exact(self):
        doc = make_author("a1", ["…#URL# #URL#end #HASHTAG##HASHTAG#"])
        stats = class_tally([doc])
        assert stats.url_tokens == 2
        assert stats.hashtag_tokens == 2

    def test_single_letter_not_uppercased_token(self):
        doc = make_author("a1", ["A BIG DEAL"])
        stats = class_tally([doc])
        assert stats.uppercased_tokens_total == 2  # BIG, DEAL; 'A' is too short


class TestCorpusStats:
    def _corpus(self):
        return make_corpus(
            [
                ("t1", ["RT #USER#: GO NOW", "ok 😀😀"], 0),
                ("t2", ["sunny day #HASHTAG#"], 0),
                ("f1", ["SHOCKING NEWS #URL# 😀"], 1),
            ]
        )

    def test_split_by_class(self):
        stats = corpus_stats(self._corpus())
        assert stats.true_class.retweets == 1
        assert stats.fake_class.retweets == 0
        assert stats.true_class.hashtag_tokens == 1
        assert stats.fake_class.url_tokens == 1
        assert stats.fake_class.uppercased_phrases_total == 1

    def test_unlabeled_rejected(self):
        corpus = make_corpus([("a1", ["x y"], None)], labeled=False)
        with pytest.raises(UnlabeledCorpus):
            corpus_stats(corpus)

    def test_tallies_do_not_depend_on_how_tweets_are_grouped_into_authors(self):
        authors = list(self._corpus())
        tweets = [tweet for author in authors for tweet in author.tweets]
        whole = class_tally(authors)
        assert class_tally([make_author("x1", tweets)]) == whole
        for cut in range(1, len(tweets)):
            regrouped = [make_author("x1", tweets[:cut]), make_author("x2", tweets[cut:])]
            assert class_tally(regrouped) == whole
        singles = [make_author(f"x{i}", [tweet]) for i, tweet in enumerate(tweets)]
        assert class_tally(singles) == whole

    def test_permutation_invariance(self):
        authors = list(self._corpus())
        forward = class_tally(authors)
        backward = class_tally(list(reversed(authors)))
        assert forward == backward

    def test_unique_tokens_deduplicate_across_authors(self):
        corpus = make_corpus([("t1", ["same words"], 0), ("t2", ["same words"], 0),
                              ("f1", ["other"], 1)])
        stats = corpus_stats(corpus)
        assert stats.true_class.unique_tokens == 2


class TestRendering:
    def test_table_shape(self):
        corpus = make_corpus([("t1", ["RT GO"], 0), ("f1", ["ok"], 1)])
        table = render_stats_table(corpus_stats(corpus))
        lines = table.splitlines()
        assert lines[0].startswith("Features")
        assert "True" in lines[0] and "Fake" in lines[0]
        titles = [line.split("  ")[0].strip() for line in lines[2:]]
        assert titles[0] == "Unique Tokens"
        assert "Retweets (RT)" in titles
        assert sum("n/a (out of scope)" in line for line in lines) == 6

    def test_rendering_deterministic(self):
        corpus = make_corpus([("t1", ["RT GO"], 0), ("f1", ["ok"], 1)])
        assert render_stats_table(corpus_stats(corpus)) == render_stats_table(
            corpus_stats(corpus)
        )


@pytest.mark.skipif(pan_data_dir() is None, reason="real shared-task data not available")
def test_real_en_corpus_hashtag_distribution():
    corpus = load_corpus(pan_data_dir() / "en", "en")
    stats = corpus_stats(corpus)
    assert stats.fake_class.hashtag_tokens < stats.true_class.hashtag_tokens
