import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreader_profiler.corpus import Language
from spreader_profiler.preprocess import (
    DEFAULT_SIGN_DELETION_SET,
    EMOJI_RE,
    PLACEHOLDER_TOKENS,
    StopwordList,
    TokenStream,
    concatenate_tweets,
    filter_and_lowercase,
    load_stopwords,
    normalize_whitespace,
    preprocess_author,
    preprocess_corpus,
    replace_numbers_and_emojis,
    squeeze_repeats,
    strip_irrelevant_signs,
    tokenize,
)

from conftest import make_author, make_corpus
from oracles import PLAIN_EMOJI_RE, brute_preprocess_author

SIGNS = "".join(sorted(DEFAULT_SIGN_DELETION_SET))


class TestConcatenate:
    def test_two_tweets(self):
        assert concatenate_tweets(make_author("a1", ["a", "b"])) == "a b"

    def test_identity(self):
        assert concatenate_tweets(make_author("a1", ["x"])) == "x"

    def test_hundred_tweets_have_99_separators(self):
        doc = make_author("a1", [f"t{i}" for i in range(100)])
        joined = concatenate_tweets(doc)
        assert joined.count(" ") == 99


class TestNormalizeWhitespace:
    def test_mixed_runs(self):
        assert normalize_whitespace("a\t\n b") == "a b"

    def test_idempotent(self):
        assert normalize_whitespace("a b") == "a b"

    def test_all_whitespace(self):
        assert normalize_whitespace("  ") == ""

    @settings(max_examples=200)
    @given(st.text(max_size=80))
    def test_output_has_single_spaces_only(self, text):
        out = normalize_whitespace(text)
        assert "  " not in out
        assert out == out.strip()
        for ch in out:
            assert not ch.isspace() or ch == " "


class TestReplaceNumbersAndEmojis:
    def test_digits(self):
        assert replace_numbers_and_emojis("won 15 dollars") == "won #NUMBER# dollars"

    def test_emoji(self):
        assert replace_numbers_and_emojis("hi 😀") == "hi #EMOJI#"

    def test_placeholder_untouched(self):
        assert replace_numbers_and_emojis("#URL#") == "#URL#"

    def test_grouped_number_is_single_placeholder(self):
        assert replace_numbers_and_emojis("1,000.50 left") == "#NUMBER# left"

    def test_number_inside_word(self):
        assert replace_numbers_and_emojis("abc123def") == "abc#NUMBER#def"

    def test_adjacent_emojis_become_separate_placeholders(self):
        assert replace_numbers_and_emojis("😀😀") == "#EMOJI##EMOJI#"

    def test_variation_selector_absorbed(self):
        assert replace_numbers_and_emojis("☀️ out") == "#EMOJI# out"

    @settings(max_examples=300)
    @given(st.text(alphabet="\ufe0f\u200d\U0001f600\u2600\u27bf\u27c0\U0001f5ffa ", max_size=30))
    def test_emoji_matches_are_joiners_one_emoji_joiners(self, text):
        assert [m.span() for m in EMOJI_RE.finditer(text)] == [
            m.span() for m in PLAIN_EMOJI_RE.finditer(text)
        ]


class TestStripSigns:
    def test_examples(self):
        assert strip_irrelevant_signs("a+b*c") == "abc"
        assert strip_irrelevant_signs("#USER# ok") == "#USER# ok"
        assert strip_irrelevant_signs("x/(y)") == "xy"

    def test_keeps_sentence_punctuation(self):
        assert strip_irrelevant_signs("wait, really?!") == "wait, really?!"

    def test_every_sign_is_deleted(self):
        assert strip_irrelevant_signs(f"{SIGNS}a {SIGNS} b{SIGNS}") == "a  b"


class TestSqueezeRepeats:
    def test_shouting(self):
        assert squeeze_repeats("LOOOOOOOOL") == "LOOL"

    def test_two_run_untouched(self):
        assert squeeze_repeats("aa") == "aa"

    def test_punctuation_run(self):
        assert squeeze_repeats("!!!") == "!!"

    def test_case_variant_runs_squeeze_too(self):
        # lowercasing happens later in the pipeline; a mixed-case run
        # must already be squeezed here or it would surface afterwards
        assert squeeze_repeats("AAaa") == "AA"

    @settings(max_examples=400)
    @given(st.text(max_size=60))
    def test_never_longer_and_no_three_runs(self, text):
        out = squeeze_repeats(text)
        assert len(out) <= len(text)
        for i in range(len(out) - 2):
            assert not (out[i] == out[i + 1] == out[i + 2])


class TestTokenize:
    def test_retweet_line(self):
        assert tokenize("RT #USER#: nice!") == ["RT", "#USER#", ":", "nice", "!"]

    def test_apostrophe_word(self):
        assert tokenize("don't") == ["don't"]

    def test_empty(self):
        assert tokenize("") == []

    def test_emoticons_survive(self):
        assert tokenize("fine :) ok ;-p") == ["fine", ":)", "ok", ";-p"]

    def test_adjacent_placeholders(self):
        assert tokenize("#EMOJI##EMOJI#") == ["#EMOJI#", "#EMOJI#"]

    def test_punctuation_split_off(self):
        assert tokenize("end.") == ["end", "."]


class TestFilterAndLowercase:
    def test_rt_dropped_placeholder_kept(self, en_stopwords):
        out = filter_and_lowercase(["RT", "#USER#", "nice"], en_stopwords)
        assert out == ["#USER#", "nice"]

    def test_stopword_dropped(self, en_stopwords):
        assert filter_and_lowercase(["The", "Cat"], en_stopwords) == ["cat"]

    def test_empty(self, en_stopwords):
        assert filter_and_lowercase([], en_stopwords) == []

    def test_placeholders_exempt_from_every_rule(self, en_stopwords):
        out = filter_and_lowercase(list(PLACEHOLDER_TOKENS), en_stopwords)
        assert sorted(out) == sorted(PLACEHOLDER_TOKENS)


class TestPreprocessAuthor:
    def test_full_trace(self, en_stopwords):
        doc = make_author("a1", ["LOOOL!!! 15 😀 the"])
        stream = preprocess_author(doc, en_stopwords)
        assert stream.tokens == ("lool", "#NUMBER#", "#EMOJI#")

    def test_placeholders_survive(self, en_stopwords):
        doc = make_author("a1", ["#URL# #URL#"])
        stream = preprocess_author(doc, en_stopwords)
        assert stream.tokens == ("#URL#", "#URL#")

    def test_all_stopword_author_is_empty(self, en_stopwords):
        doc = make_author("a1", ["the and was"])
        stream = preprocess_author(doc, en_stopwords)
        assert stream.tokens == ()
        assert stream.joined_text == ""

    def test_spanish_stopwords_apply(self, es_stopwords):
        doc = make_author("a1", ["pero la noticia era falsa"])
        stream = preprocess_author(doc, es_stopwords)
        assert stream.tokens == ("noticia", "falsa")


# -- property suites ----------------------------------------------------

# A tweet-realistic alphabet, deliberately including the hazards:
# case-folding expansions (İ, ß), mixed-case runs, emoji, joiners,
# placeholder-ish hash forms, digits with group punctuation.
TWEET_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789"
    " \t\n "
    ".,!?:;'’\"@#-_&%$"
    "+*/\\|~^=<>{}[]()"
    "áéíóúñüÁÉÍÓÚÑÜßİıœŒ"
    "σςΣ"
    "😀😂🙌🔥☀❤🚀🤔"
    "️‍"
)

tweet_text = st.text(alphabet=TWEET_ALPHABET, max_size=120)


def assert_stream_invariants(stream: TokenStream, stopwords: StopwordList):
    for token in stream.tokens:
        assert token, "empty token"
        assert not any(ch.isspace() for ch in token), f"whitespace inside {token!r}"
        assert len(token) >= 3 or token in PLACEHOLDER_TOKENS, f"short token {token!r}"
        assert token not in stopwords.words, f"stopword {token!r} survived"
        if token not in PLACEHOLDER_TOKENS:
            assert token == token.lower(), f"uppercase outside placeholder: {token!r}"
    assert stream.joined_text == " ".join(stream.tokens)


@settings(max_examples=300, deadline=None)
@given(tweet_text)
def test_token_stream_invariants(en_stopwords, text):
    stream = preprocess_author(make_author("a1", [text]), en_stopwords)
    assert_stream_invariants(stream, en_stopwords)


@settings(max_examples=300, deadline=None)
@given(tweet_text)
def test_pipeline_idempotent(en_stopwords, text):
    first = preprocess_author(make_author("a1", [text]), en_stopwords)
    second = preprocess_author(make_author("a1", [first.joined_text]), en_stopwords)
    assert second.tokens == first.tokens


@settings(max_examples=200, deadline=None)
@given(st.lists(tweet_text, min_size=1, max_size=5))
def test_multi_tweet_equals_joined_single(en_stopwords, tweets):
    as_many = preprocess_author(make_author("a1", tweets), en_stopwords)
    as_one = preprocess_author(make_author("a1", [" ".join(tweets)]), en_stopwords)
    assert as_many.tokens == as_one.tokens


def test_stopword_lists_nonempty():
    for language in (Language.EN, Language.ES):
        stopwords = load_stopwords(language)
        assert len(stopwords.words) > 100
        assert all(word == word.lower() for word in stopwords.words)


# -- one pass per distinct word ---------------------------------------

# Words that probe each stage: emoji with VS16 and ZWJ, combining marks
# and İ; numbers with group punctuation; the placeholders and look-alikes
# of them; mixed-case repeats; both apostrophes; emoticons; stopwords in
# either case.
PROBE_WORDS = (
    "❤\ufe0f", "☀\ufe0f", "\U0001f468\u200d\U0001f469\u200d\U0001f467",
    "\u200d\U0001f600", "\U0001f600\ufe0f\ufe0f", "\U0001f525\U0001f525\U0001f525",
    "e\u0301te\u0301", "İstanbul", "İİİ", "ıi",
    "1,000", "3.14", "1.000,50", "2020.", ",5", "1..2", "12,", "x9y",
    "#URL#", "#HASHTAG#", "#USER#", "#NUMBER#", "#EMOJI#",
    "#url#", "#User#", "#number#", "#Emoji#", "#URL##USER#", "#URL#:", "##URL##",
    "LOOOOoool", "aaaAAA", "!!!!", "....", "ßßß", "ΣΣΣς",
    "don't", "it’s", "'quote'", "’’’", "o'o'o",
    ":-)", "<3", ":)", ";-p", ":D", "=)", "(:", ":-(", "<3<3",
    "the", "The", "THE", "de", "La", "QUE", "and",
)
WORD_ALPHABET = "".join(ch for ch in TWEET_ALPHABET if not ch.isspace())
# NBSP, the line separator U+2028 and the unit separator U+001F split
# words as a space does.
SEPARATORS = (" ", " ", " ", "  ", "\u00a0", "\u2028", "\x1f", "\t", "\n")

probe_word = st.one_of(
    st.sampled_from(PROBE_WORDS),
    st.text(alphabet=SIGNS, min_size=1, max_size=4),  # a word that sign deletion empties
    st.text(alphabet=WORD_ALPHABET, min_size=1, max_size=8),
)
glued_word = st.lists(probe_word, min_size=1, max_size=3).map("".join)
probe_tweet = st.lists(
    st.tuples(glued_word, st.sampled_from(SEPARATORS)), max_size=12
).map(lambda pairs: "".join(word + separator for word, separator in pairs))


@pytest.mark.parametrize("language", [Language.EN, Language.ES])
@settings(max_examples=150, deadline=None)
@given(
    shared=st.lists(probe_tweet, min_size=1, max_size=3),
    own=st.lists(st.lists(probe_tweet, max_size=3), min_size=1, max_size=4),
)
def test_corpus_and_author_streams_equal_the_per_author_pipeline(language, shared, own):
    """Authors that share words get the streams of the stage sequence
    run over each author's whole text, from ``preprocess_corpus`` and
    from ``preprocess_author`` alike."""
    stopwords = load_stopwords(language)
    corpus = make_corpus(
        [(f"a{k}", tweets + shared, None) for k, tweets in enumerate(own)], language, labeled=False
    )
    expected = [brute_preprocess_author(doc, stopwords) for doc in corpus]
    assert preprocess_corpus(corpus, stopwords) == expected
    assert [preprocess_author(doc, stopwords) for doc in corpus] == expected


def test_words_emptied_by_sign_deletion_keep_the_batch_aligned(en_stopwords):
    # Runs of sign-only words leave runs of spaces between the words
    # around them; every word must still get its own tokens.
    tweets = ["alpha + *** (( beta", "+ gamma ~~ ^ ||| delta +", "{} [] <> epsilon"]
    corpus = make_corpus([("a1", tweets, None), ("a2", tweets[::-1], None)], labeled=False)
    streams = preprocess_corpus(corpus, en_stopwords)
    assert streams[0].tokens == ("alpha", "beta", "gamma", "delta", "epsilon")
    assert streams[1].tokens == ("epsilon", "gamma", "delta", "alpha", "beta")
    assert streams == [brute_preprocess_author(doc, en_stopwords) for doc in corpus]
