"""Tweet normalization pipeline.

Turns an author's 100 raw tweets into one stream of clean lowercase
tokens: concatenate, collapse whitespace, swap numbers and emojis for
placeholders, delete noise signs, squeeze character repeats, tokenize
Twitter-style, then drop short words and stopwords.

Every stage acts inside one whitespace-delimited word: no token holds
or crosses a space, no stage makes or deletes whitespace, and a
squeezed run is one character repeated, so a run of spaces never
changes a token. An author's tokens are therefore the tokens of each
of its words in turn, and the pipeline runs once per distinct word
(``_tokens_of_words``), not once per occurrence.

The corpus providers already replaced URLs, hashtags and user mentions
with ``#URL#``, ``#HASHTAG#`` and ``#USER#``; those placeholders (plus
our own ``#NUMBER#`` and ``#EMOJI#``) pass through every stage intact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from itertools import chain, filterfalse

from .corpus import AuthorDocument, Language

PLACEHOLDER_TOKENS = frozenset({"#URL#", "#HASHTAG#", "#USER#", "#NUMBER#", "#EMOJI#"})

NUMBER_PLACEHOLDER = "#NUMBER#"
EMOJI_PLACEHOLDER = "#EMOJI#"

# Characters treated as noise and removed before tokenization. '#' is
# deliberately absent: it delimits placeholders.
DEFAULT_SIGN_DELETION_SET = frozenset("+*/\\|~^=<>{}[]()")

# The patterns that find signs, emoji and numbers each start with one
# character class, so that ``re`` scans ahead to a character that can
# start a match instead of trying a match at every position.
_SIGN_RE = re.compile(f"[{re.escape(''.join(sorted(DEFAULT_SIGN_DELETION_SET)))}]")

# Unicode blocks counted as emoji, plus variation selector / zero-width
# joiner, which ride along with an adjacent emoji codepoint.
_EMOJI_RANGES = (
    "\U0001F300-\U0001F5FF"
    "\U0001F600-\U0001F64F"
    "\U0001F680-\U0001F6FF"
    "\U0001F900-\U0001F9FF"
    "☀-➿"
)
_EMOJI_JOINERS = "️‍"
# Joiners, one emoji, joiners: a match starts at an emoji, or at joiners
# that an emoji follows.
EMOJI_RE = re.compile(
    f"[{_EMOJI_RANGES}{_EMOJI_JOINERS}]"
    f"(?:(?<=[{_EMOJI_RANGES}])|[{_EMOJI_JOINERS}]*[{_EMOJI_RANGES}])"
    f"[{_EMOJI_JOINERS}]*"
)

_NUMBER_RE = re.compile(r"\d\d*(?:[.,]\d+)*")

# Run squeezing compares characters case-insensitively: the final
# lowercasing step must not be able to create new long runs (otherwise
# preprocessing would not be idempotent on its own output).
_REPEAT_RE = re.compile(r"(.)\1{2,}", re.DOTALL | re.IGNORECASE)
# The same for words joined by single spaces: a word that sign deletion
# empties leaves two spaces in a row, and squeezing a run of them would
# merge the boundaries of the words around it. Spaces never form tokens,
# so leaving them unsqueezed changes no token.
_WORD_REPEAT_RE = re.compile(r"([^ ])\1{2,}", re.DOTALL | re.IGNORECASE)

# Token shapes, tried in order: placeholder-like #word#, emoticons,
# words (apostrophes and combining marks allowed inside), any other
# single non-space character. Combining marks U+0300-U+036F belong to
# words because lowercasing can produce them (e.g. 'İ' → 'i̇').
_WORD_CHAR = r"[\ẁ-ͯ]"
TOKEN_RE = re.compile(
    r"#[A-Za-z]+#"
    r"|[<>]?[:;=][\-o\*']?[\)\]\(\[dDpP3/\\|{}]"
    r"|[\)\]\(\[dDpP/\\|{}][\-o\*']?[:;=][<>]?"
    r"|<3"
    rf"|{_WORD_CHAR}+(?:['’]{_WORD_CHAR}+)*"
    r"|\S"
)
# The same tokens, plus each single space as a token of its own: in text
# of words joined by single spaces, it marks where a word's tokens end.
_WORD_TOKEN_RE = re.compile(TOKEN_RE.pattern + "| ")


@dataclass(frozen=True)
class TokenStream:
    """Preprocessed tokens for one author, plus their space-joined form
    (the surface that character n-grams are read from)."""

    author_id: str
    tokens: tuple[str, ...]

    @property
    def joined_text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class StopwordList:
    language: Language
    words: frozenset[str]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError(f"stopword list for {self.language.value} is empty")


def load_stopwords(language: Language | str) -> StopwordList:
    """Load the bundled stopword list for a language.

    The lists live under ``resources/`` as plain UTF-8 text, one
    lowercase word per line, ``#`` starting a comment line. They are
    vendored copies of the standard NLTK-style lists so the package
    has no runtime download.
    """
    if isinstance(language, str):
        language = Language.parse(language)
    name = f"stopwords_{language.value}.txt"
    text = resources.files("spreader_profiler.resources").joinpath(name).read_text("utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        words.add(line.lower())
    return StopwordList(language=language, words=frozenset(words))


def concatenate_tweets(doc: AuthorDocument) -> str:
    """Join all tweets of one author into a single text, in order."""
    return " ".join(doc.tweets)


def normalize_whitespace(text: str) -> str:
    """Collapse every run of Unicode whitespace to one ASCII space."""
    return " ".join(text.split())


def replace_numbers_and_emojis(text: str) -> str:
    """Replace digit runs with ``#NUMBER#`` and emoji with ``#EMOJI#``.

    A digit run may contain internal ``.``/``,`` group punctuation
    ("1,000" is one number). Variation selectors and zero-width
    joiners attached to an emoji are absorbed into its placeholder.
    """
    text = _NUMBER_RE.sub(NUMBER_PLACEHOLDER, text)
    return EMOJI_RE.sub(EMOJI_PLACEHOLDER, text)


def strip_irrelevant_signs(text: str) -> str:
    """Delete the noise characters of ``DEFAULT_SIGN_DELETION_SET``,
    such as ``+ * / | ~``.

    ``#`` is never deleted (placeholder integrity) and apostrophes and
    sentence punctuation stay for the tokenizer to handle.
    """
    return _SIGN_RE.sub("", text)


def squeeze_repeats(text: str) -> str:
    """Shorten runs of more than two repeated characters to exactly two.

    Repeats are matched case-insensitively ("LOOOOoool" squeezes like
    "loooooool") so that lowercasing afterwards cannot reintroduce a
    long run.
    """
    return _REPEAT_RE.sub(lambda m: m.group(0)[:2], text)


def tokenize(text: str) -> list[str]:
    """Split text into Twitter-style tokens.

    Keeps intact: ``#WORD#`` placeholders, common emoticons (``:)``,
    ``:-(``, ``:D``, ``;)``, …), and words with internal apostrophes
    ("don't"). Everything else that is not a word character becomes a
    single-character token.
    """
    return TOKEN_RE.findall(text)


def filter_and_lowercase(tokens: list[str], stopwords: StopwordList) -> list[str]:
    """Lowercase tokens and drop short words and stopwords.

    The five canonical placeholders are exempt from all three rules;
    every other token is lowercased, then dropped when shorter than
    three characters or present in the stopword list.
    """
    kept = []
    for token in tokens:
        if token in PLACEHOLDER_TOKENS:
            kept.append(token)
            continue
        lowered = token.lower()
        if len(lowered) < 3:
            continue
        if lowered in stopwords.words:
            continue
        kept.append(lowered)
    return kept


def _tokens_of_words(words: list[str], stopwords: StopwordList) -> list[tuple[str, ...]]:
    """The preprocessed tokens of each word, in order.

    The words go through every stage together, as one text in which
    single spaces separate them, so each stage is one regex pass over
    the batch. The space tokens then split the tokens back per word.
    """
    text = replace_numbers_and_emojis(" ".join(words))
    text = _WORD_REPEAT_RE.sub(lambda m: m.group(0)[:2], strip_irrelevant_signs(text))
    stop = stopwords.words
    per_word = []
    kept: list[str] = []
    # filter_and_lowercase's rules, inline: a call per word would cost
    # more than the word's pass through every stage
    for token in _WORD_TOKEN_RE.findall(text):
        if token == " ":
            per_word.append(tuple(kept))
            kept.clear()
        elif token in PLACEHOLDER_TOKENS:
            kept.append(token)
        else:
            lowered = token.lower()
            if len(lowered) >= 3 and lowered not in stop:
                kept.append(lowered)
    per_word.append(tuple(kept))
    return per_word


def preprocess_author(doc: AuthorDocument, stopwords: StopwordList) -> TokenStream:
    """Run the full normalization pipeline on one author.

    An author whose tokens are all filtered away yields an empty
    stream, which is legal.
    """
    return preprocess_corpus([doc], stopwords)[0]


def preprocess_corpus(corpus, stopwords: StopwordList) -> list[TokenStream]:
    """Preprocess every author of a corpus, keeping corpus order.

    Each distinct word of the corpus goes through the pipeline once:
    a table (word → its tokens) lives for the length of the call, each
    author's words that it lacks are added in the order they first
    occur, and the author's stream joins its words' entries.
    """
    table: dict[str, tuple[str, ...]] = {}
    streams = []
    for doc in corpus:
        words = concatenate_tweets(doc).split()
        new = list(dict.fromkeys(filterfalse(table.__contains__, words)))
        if new:
            table.update(zip(new, _tokens_of_words(new, stopwords)))
        tokens = tuple(chain.from_iterable(map(table.__getitem__, words)))
        streams.append(TokenStream(author_id=doc.author_id, tokens=tokens))
    return streams
