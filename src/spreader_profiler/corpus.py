"""Corpus ingestion and splitting.

Reads the author-profiling directory layout used by the PAN shared
tasks: one ``<author_id>.xml`` file per Twitter account, each holding
the account's tweets inside ``<document>`` elements, plus an optional
``truth.txt`` with ``<author_id>:::<label>`` lines (label ``1`` marks a
fake-news spreader, ``0`` a credible user).
"""

from __future__ import annotations

import enum
import random
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import (
    DegenerateSplit,
    DuplicateAuthorId,
    EmptyAuthor,
    InvalidAuthorId,
    MalformedTruthLine,
    MalformedXml,
    MissingAuthorFile,
    NonStandardTweetCount,
    UnlabeledAuthor,
    UnlabeledCorpus,
)

TRUTH_SEPARATOR = ":::"
EXPECTED_TWEETS_PER_AUTHOR = 100


class Label(enum.IntEnum):
    TRUE_NEWS_SPREADER = 0
    FAKE_NEWS_SPREADER = 1


class Language(enum.Enum):
    EN = "en"
    ES = "es"

    @classmethod
    def parse(cls, text: str) -> "Language":
        return cls(text.strip().lower())


@dataclass(frozen=True)
class AuthorDocument:
    """One Twitter account: its id, raw tweets, and optional label."""

    author_id: str
    tweets: tuple[str, ...]
    label: Label | None = None

    def __post_init__(self) -> None:
        if not self.author_id or not self.author_id.isalnum():
            raise ValueError(
                f"author id must be a non-empty alphanumeric string, got {self.author_id!r}"
            )
        if not isinstance(self.tweets, tuple):
            object.__setattr__(self, "tweets", tuple(self.tweets))
        if len(self.tweets) == 0:
            raise EmptyAuthor(f"author {self.author_id} has no tweets")

    def with_label(self, label: Label) -> "AuthorDocument":
        return AuthorDocument(self.author_id, self.tweets, label)


@dataclass(frozen=True)
class Corpus:
    """An ordered set of authors for one language.

    Authors are kept sorted by ``author_id`` so every downstream
    computation sees them in the same order regardless of how the
    files were listed on disk.
    """

    language: Language
    authors: tuple[AuthorDocument, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.authors, key=lambda a: a.author_id))
        object.__setattr__(self, "authors", ordered)
        seen: set[str] = set()
        for author in ordered:
            if author.author_id in seen:
                raise DuplicateAuthorId(f"duplicate author id {author.author_id!r}")
            seen.add(author.author_id)
        labeled = [a for a in ordered if a.label is not None]
        if labeled and len(labeled) != len(ordered):
            missing = next(a.author_id for a in ordered if a.label is None)
            raise UnlabeledAuthor(
                f"corpus mixes labeled and unlabeled authors (e.g. {missing!r})"
            )

    def __len__(self) -> int:
        return len(self.authors)

    def __iter__(self):
        return iter(self.authors)

    @property
    def is_labeled(self) -> bool:
        return bool(self.authors) and self.authors[0].label is not None

    def class_counts(self) -> dict[Label, int]:
        if not self.is_labeled:
            raise UnlabeledCorpus("class counts need a labeled corpus")
        counts = {Label.TRUE_NEWS_SPREADER: 0, Label.FAKE_NEWS_SPREADER: 0}
        for author in self.authors:
            counts[author.label] += 1
        return counts

    def author_ids(self) -> list[str]:
        return [a.author_id for a in self.authors]


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic stratified split: fraction of each class into train."""

    train_fraction: Fraction = Fraction(7, 10)
    seed: int = 0

    def __post_init__(self) -> None:
        frac = self.train_fraction
        if not isinstance(frac, Fraction):
            frac = Fraction(str(frac))
            object.__setattr__(self, "train_fraction", frac)
        if not (0 < frac < 1):
            raise ValueError(f"train_fraction must lie in (0, 1), got {frac}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")


def parse_author_xml(raw: bytes | str, author_id: str) -> AuthorDocument:
    """Parse one author file into an (unlabeled) :class:`AuthorDocument`.

    The file layout is ``<author><documents><document>…`` with one
    tweet per ``<document>``; CDATA wrapping and XML entities are both
    handled by the parser. The caller supplies ``author_id`` (taken
    from the file name stem when reading from disk).
    """
    try:
        root = ET.fromstring(raw)
    except ET.ParseError as exc:
        raise MalformedXml(f"author {author_id}: {exc}") from exc
    tweets = [elem.text or "" for elem in root.iter("document")]
    if not tweets:
        raise EmptyAuthor(f"author {author_id}: no <document> elements")
    if len(tweets) != EXPECTED_TWEETS_PER_AUTHOR:
        warnings.warn(
            f"author {author_id} has {len(tweets)} tweets, expected "
            f"{EXPECTED_TWEETS_PER_AUTHOR}",
            NonStandardTweetCount,
            stacklevel=2,
        )
    return AuthorDocument(author_id=author_id, tweets=tuple(tweets))


def render_author_xml(doc: AuthorDocument, language: Language | None = None) -> bytes:
    """Serialize an author back to the XML layout ``parse_author_xml`` reads.

    Tweets go into CDATA sections; a literal ``]]>`` inside a tweet is
    split across two CDATA sections so the output stays well formed.
    """
    lang_attr = f' lang="{language.value}"' if language is not None else ""
    parts = [f"<author{lang_attr}>\n\t<documents>\n"]
    for tweet in doc.tweets:
        safe = tweet.replace("]]>", "]]]]><![CDATA[>")
        parts.append(f"\t\t<document><![CDATA[{safe}]]></document>\n")
    parts.append("\t</documents>\n</author>\n")
    return "".join(parts).encode("utf-8")


def parse_truth_file(text: str) -> dict[str, Label]:
    """Parse ``<author_id>:::<label>`` lines into an id → label map."""
    labels: dict[str, Label] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        head, sep, tail = line.partition(TRUTH_SEPARATOR)
        if not sep:
            raise MalformedTruthLine(f"line {lineno}: missing '{TRUTH_SEPARATOR}' separator")
        author_id = head.strip()
        label_text = tail.strip()
        if not author_id or not author_id.isalnum():
            raise MalformedTruthLine(f"line {lineno}: bad author id {head!r}")
        if label_text not in ("0", "1"):
            raise MalformedTruthLine(f"line {lineno}: label must be 0 or 1, got {tail!r}")
        if author_id in labels:
            raise DuplicateAuthorId(f"line {lineno}: duplicate author id {author_id!r}")
        labels[author_id] = Label(int(label_text))
    return labels


def load_corpus(directory: str | Path, language: Language | str) -> Corpus:
    """Load every ``*.xml`` author file in ``directory`` into a corpus.

    When ``truth.txt`` is present its labels are attached and must
    cover exactly the authors found on disk; without it the corpus is
    unlabeled (prediction-only).
    """
    if isinstance(language, str):
        language = Language.parse(language)
    directory = Path(directory)
    xml_paths = sorted(directory.glob("*.xml"))
    if not xml_paths:
        raise MissingAuthorFile(f"no author XML files in {directory}")

    # Collapse the per-author tweet-count warnings into one summary so a
    # whole directory of non-conformant files does not flood stderr.
    authors = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for path in xml_paths:
            if not path.stem.isalnum():
                raise InvalidAuthorId(
                    f"{path.name}: author file names must be <alphanumeric id>.xml"
                )
            authors.append(parse_author_xml(path.read_bytes(), author_id=path.stem))
    odd_counts = [w for w in caught if issubclass(w.category, NonStandardTweetCount)]
    for other in caught:
        if not issubclass(other.category, NonStandardTweetCount):
            warnings.warn_explicit(
                other.message, other.category, other.filename, other.lineno
            )
    if odd_counts:
        warnings.warn(
            f"{len(odd_counts)} of {len(authors)} authors in {directory} do not have "
            f"{EXPECTED_TWEETS_PER_AUTHOR} tweets (first: {odd_counts[0].message})",
            NonStandardTweetCount,
            stacklevel=2,
        )

    truth_path = directory / "truth.txt"
    if truth_path.exists():
        try:
            truth_text = truth_path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedTruthLine(f"{truth_path}: not UTF-8 text ({exc.reason})") from exc
        labels = parse_truth_file(truth_text)
        on_disk = {a.author_id for a in authors}
        for author_id in labels:
            if author_id not in on_disk:
                raise MissingAuthorFile(
                    f"truth file references {author_id!r} but {author_id}.xml is absent"
                )
        unlabeled = [a.author_id for a in authors if a.author_id not in labels]
        if unlabeled:
            raise UnlabeledAuthor(
                f"truth file present but authors missing from it: {unlabeled[:5]}"
            )
        authors = [a.with_label(labels[a.author_id]) for a in authors]

    return Corpus(language=language, authors=tuple(authors))


def _shuffled_classes(corpus: Corpus, seed: int) -> list[tuple[Label, list[str]]]:
    """The author ids of each class, credible users first, shuffled in
    turn by one generator seeded with ``seed``: every split's one draw."""
    if not corpus.is_labeled:
        raise UnlabeledCorpus("splitting needs a fully labeled corpus")
    rng = random.Random(seed)
    classes = []
    for label in (Label.TRUE_NEWS_SPREADER, Label.FAKE_NEWS_SPREADER):
        members = [a.author_id for a in corpus if a.label == label]
        rng.shuffle(members)  # an empty class draws nothing
        classes.append((label, members))
    return classes


def _sides(corpus: Corpus, held_out: set[str]) -> tuple[Corpus, Corpus]:
    train = Corpus(corpus.language, tuple(a for a in corpus if a.author_id not in held_out))
    test = Corpus(corpus.language, tuple(a for a in corpus if a.author_id in held_out))
    return train, test


def split_corpus(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Stratified seeded train/test split of a labeled corpus.

    Per class, ``floor(class_count * train_fraction)`` authors go into
    train, the rest into test; selection within a class is a seeded
    uniform shuffle, so the same (corpus, spec) pair always produces
    the identical partition.
    """
    frac = spec.train_fraction
    held_out: set[str] = set()
    for label, members in _shuffled_classes(corpus, spec.seed):
        n_train = (len(members) * frac.numerator) // frac.denominator
        if members and n_train == 0:
            raise DegenerateSplit(
                f"train fraction {frac} leaves class {label.name} with no training authors"
            )
        held_out.update(members[n_train:])
    return _sides(corpus, held_out)


def split_folds(corpus: Corpus, spec: SplitSpec, folds: int) -> list[tuple[Corpus, Corpus]]:
    """The split of ``spec`` when ``folds`` is 1, else stratified folds:
    each class's shuffled authors dealt round-robin into the test sides.
    A training side without a class, or an empty test side, is refused."""
    if folds < 1:
        raise ValueError("folds must be >= 1")
    if folds == 1:
        return [split_corpus(corpus, spec)]
    classes = _shuffled_classes(corpus, spec.seed)
    # dealt round-robin, a class of 2 or more authors has one outside every
    # test side, and the last test side is empty unless a class has `folds`
    label, members = min(classes, key=lambda c: len(c[1]))
    if len(members) < 2:
        raise DegenerateSplit(
            f"{folds} folds need 2 authors of class {label.name}, got {len(members)}"
        )
    label, members = max(classes, key=lambda c: len(c[1]))
    if len(members) < folds:
        raise DegenerateSplit(
            f"{folds} folds need {folds} authors of one class; {label.name} has {len(members)}"
        )
    return [_sides(corpus, {a for _, members in classes for a in members[f::folds]})
            for f in range(folds)]
