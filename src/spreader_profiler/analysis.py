"""Descriptive corpus statistics, split by class.

All counts run over the raw tweets (before any preprocessing):
distinct whitespace tokens, emoji totals, provider placeholder
occurrences, retweet markers, and uppercase usage. Sentiment and
named-entity rows need external models and are reported as
"n/a (out of scope)" so the table keeps its familiar shape.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import Corpus, Label
from .errors import UnlabeledCorpus
from .preprocess import EMOJI_RE


@dataclass(frozen=True)
class ClassStats:
    unique_tokens: int
    emojis_total: int
    emojis_unique: int
    url_tokens: int
    hashtag_tokens: int
    user_tokens: int
    retweets: int
    uppercased_tokens_total: int
    uppercased_phrases_total: int


@dataclass(frozen=True)
class CorpusStats:
    true_class: ClassStats
    fake_class: ClassStats


def _is_uppercased(token: str) -> bool:
    return len(token) >= 2 and token.isalpha() and token == token.upper()


def class_tally(authors) -> ClassStats:
    """Raw-text statistics for a group of authors, in one pass over their
    tweets: every statistic is a sum or union over tweets (an uppercase
    phrase ends with its tweet), so grouping the tweets into authors
    changes none of them."""
    unique: set[str] = set()
    emoji: Counter = Counter()
    url_tokens = hashtag_tokens = user_tokens = retweets = 0
    uppercased_tokens_total = uppercased_phrases_total = 0
    for tweet in (tweet for doc in authors for tweet in doc.tweets):
        emoji.update(EMOJI_RE.findall(tweet))
        url_tokens += tweet.count("#URL#")
        hashtag_tokens += tweet.count("#HASHTAG#")
        user_tokens += tweet.count("#USER#")
        tokens = tweet.split()
        unique.update(tokens)
        if tokens and tokens[0] == "RT":
            retweets += 1
        run = 0
        for token in tokens:
            if _is_uppercased(token):
                uppercased_tokens_total += 1
                run += 1
            else:
                if run >= 2:
                    uppercased_phrases_total += 1
                run = 0
        if run >= 2:
            uppercased_phrases_total += 1
    return ClassStats(
        unique_tokens=len(unique),
        emojis_total=sum(emoji.values()),
        emojis_unique=len(emoji),
        url_tokens=url_tokens,
        hashtag_tokens=hashtag_tokens,
        user_tokens=user_tokens,
        retweets=retweets,
        uppercased_tokens_total=uppercased_tokens_total,
        uppercased_phrases_total=uppercased_phrases_total,
    )


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Per-class statistics of a labeled corpus."""
    if not corpus.is_labeled:
        raise UnlabeledCorpus("corpus statistics need labels")
    true_authors = [a for a in corpus if a.label == Label.TRUE_NEWS_SPREADER]
    fake_authors = [a for a in corpus if a.label == Label.FAKE_NEWS_SPREADER]
    return CorpusStats(
        true_class=class_tally(true_authors),
        fake_class=class_tally(fake_authors),
    )


_OUT_OF_SCOPE = "n/a (out of scope)"

_ROWS = (
    ("Unique Tokens", "unique_tokens"),
    ("Emojis Total", "emojis_total"),
    ("Emojis Unique", "emojis_unique"),
    ("Neutral Tweets", None),
    ("Positive Tweets", None),
    ("Negative Tweets", None),
    ("Uppercased Tokens Total", "uppercased_tokens_total"),
    ("Uppercased Phrases Total", "uppercased_phrases_total"),
    ("#URL# Token", "url_tokens"),
    ("#HASHTAG# Token", "hashtag_tokens"),
    ("#USER# Token", "user_tokens"),
    ("Retweets (RT)", "retweets"),
    ("NER ORG", None),
    ("NER PERSON", None),
    ("NER LOC", None),
)


def render_stats_table(stats: CorpusStats) -> str:
    """Aligned two-column (True / Fake) text table."""
    rows = []
    for title, attr in _ROWS:
        if attr is None:
            rows.append((title, _OUT_OF_SCOPE, _OUT_OF_SCOPE))
        else:
            rows.append(
                (
                    title,
                    f"{getattr(stats.true_class, attr):,}",
                    f"{getattr(stats.fake_class, attr):,}",
                )
            )
    name_width = max(len(r[0]) for r in rows)
    value_width = max(max(len(r[1]), len(r[2])) for r in rows)
    header = f"{'Features':<{name_width}}  {'True':>{value_width}}  {'Fake':>{value_width}}"
    lines = [header, "-" * len(header)]
    for title, true_value, fake_value in rows:
        lines.append(
            f"{title:<{name_width}}  {true_value:>{value_width}}  {fake_value:>{value_width}}"
        )
    return "\n".join(lines) + "\n"
