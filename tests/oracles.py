"""Independent reference implementations used to cross-check the
package. Everything here is written the slow, obvious way (dense
lists, repeated scans) on purpose: these paths share no code with the
implementations they verify.
"""

from __future__ import annotations

import codecs
import hashlib
import math
import re
from pathlib import Path

import numpy as np

from spreader_profiler.corpus import Language
from spreader_profiler.errors import CorruptModelFile, UnsupportedVersion
from spreader_profiler.models import LinearModel, LossKind, ModelKind, TrainConfig
from spreader_profiler.preprocess import (
    DEFAULT_SIGN_DELETION_SET,
    EMOJI_PLACEHOLDER,
    NUMBER_PLACEHOLDER,
    TokenStream,
    concatenate_tweets,
    filter_and_lowercase,
    normalize_whitespace,
    squeeze_repeats,
    tokenize,
)
from spreader_profiler.vectorize import (
    Analyzer,
    NgramRange,
    VectorizerConfig,
    Vocabulary,
    Weighting,
)


# -- tweet normalization, one author at a time -------------------------


# Joiners (VS16, ZWJ), one emoji, joiners; digits with group punctuation.
_JOINERS = "\ufe0f\u200d"
_EMOJI = "\U0001F300-\U0001F5FF\U0001F600-\U0001F64F\U0001F680-\U0001F6FF\U0001F900-\U0001F9FF\u2600-\u27bf"
PLAIN_EMOJI_RE = re.compile(f"[{_JOINERS}]*[{_EMOJI}][{_JOINERS}]*")
PLAIN_NUMBER_RE = re.compile(r"\d+(?:[.,]\d+)*")


def brute_preprocess_author(doc, stopwords) -> TokenStream:
    """Every stage over the author's whole text, once per occurrence of
    every word, with no table of words seen before."""
    text = concatenate_tweets(doc)
    text = normalize_whitespace(text)
    text = PLAIN_NUMBER_RE.sub(NUMBER_PLACEHOLDER, text)
    text = PLAIN_EMOJI_RE.sub(EMOJI_PLACEHOLDER, text)
    text = text.translate({ord(sign): None for sign in DEFAULT_SIGN_DELETION_SET})
    text = squeeze_repeats(text)
    tokens = filter_and_lowercase(tokenize(text), stopwords)
    return TokenStream(author_id=doc.author_id, tokens=tuple(tokens))


# -- brute-force character n-gram vectorizer ---------------------------


def brute_char_ngrams(text: str, min_n: int, max_n: int) -> list[str]:
    grams = []
    for n in range(min_n, max_n + 1):
        for start in range(len(text)):
            piece = text[start : start + n]
            if len(piece) == n:
                grams.append(piece)
    return grams


def brute_fit(
    docs: list[str],
    min_n: int,
    max_n: int,
    min_df: int = 1,
    max_features: int | None = None,
    tfidf: bool = True,
):
    """Returns (term→index, term→df, term→idf or None)."""
    per_doc = [brute_char_ngrams(doc, min_n, max_n) for doc in docs]
    every_term = sorted({gram for grams in per_doc for gram in grams})
    df = {t: sum(1 for grams in per_doc if t in grams) for t in every_term}
    tf = {t: sum(grams.count(t) for grams in per_doc) for t in every_term}
    kept = [t for t in every_term if df[t] >= min_df]
    if max_features is not None and len(kept) > max_features:
        by_frequency = sorted(kept, key=lambda t: (-tf[t], t))
        kept = by_frequency[:max_features]
    kept = sorted(kept)
    index = {t: i for i, t in enumerate(kept)}
    idf = None
    if tfidf:
        idf = {t: math.log((1 + len(docs)) / (1 + df[t])) + 1.0 for t in kept}
    return index, {t: df[t] for t in kept}, idf


def brute_transform(
    text: str,
    index: dict[str, int],
    idf: dict[str, float] | None,
    min_n: int,
    max_n: int,
) -> list[float]:
    """Dense vector for one document (counts, or normalized TF-IDF)."""
    dense = [0.0] * len(index)
    for gram in brute_char_ngrams(text, min_n, max_n):
        if gram in index:
            dense[index[gram]] += 1.0
    if idf is not None:
        terms_by_index = sorted(index, key=index.get)
        dense = [value * idf[term] for value, term in zip(dense, terms_by_index)]
        squares = 0.0
        for value in dense:  # left to right, as TF-IDF weighting adds them
            squares += value * value
        norm = math.sqrt(squares)
        if norm > 0:
            dense = [value / norm for value in dense]
    return dense


def dense_from_sparse(vector) -> list[float]:
    dense = [0.0] * vector.dimension
    for i, value in vector.entries:
        dense[i] = value
    return dense


# -- training objectives, written straight from their formulas ---------


def reference_objective(theta, X_dense, y_pm, C, loss, fit_intercept=True):
    """0.5||w||^2 + C * sum loss_i, evaluated with plain Python loops."""
    n_features = len(X_dense[0])
    w = list(theta[:n_features])
    b = float(theta[n_features]) if fit_intercept else 0.0
    total = 0.5 * sum(wj * wj for wj in w)
    for row, y in zip(X_dense, y_pm):
        margin = y * (sum(xj * wj for xj, wj in zip(row, w)) + b)
        if loss == "squared_hinge":
            gap = max(0.0, 1.0 - margin)
            total += C * gap * gap
        else:
            # log(1 + exp(-m)) computed stably
            if margin >= 0:
                total += C * math.log1p(math.exp(-margin))
            else:
                total += C * (-margin + math.log1p(math.exp(margin)))
    return total


def central_difference_gradient(fun, theta, step=1e-6):
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = step
        grad[i] = (fun(theta + bump) - fun(theta - bump)) / (2.0 * step)
    return grad


def relative_error(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1.0)
    return float(np.linalg.norm(a - b)) / scale


# -- model files, read and written one line at a time ------------------
#
# The per-line model-file writer and reader, kept as they were before
# the files were read and written a column at a time. They build the
# package's data classes (whose constructors make some of the checks)
# but share none of the package's parsing or formatting code.


def _oracle_escape(term: str) -> str:
    if term.isascii() and term.isprintable() and "\\" not in term:
        return term
    return term.encode("unicode_escape").decode("ascii")


def _oracle_unescape(text: str) -> str:
    if text.isascii() and "\\" not in text:
        return text
    return codecs.decode(text.encode("ascii"), "unicode_escape")


def oracle_render_model(model) -> str:
    """The text of ``model``'s file: header lines, one vocabulary line per
    term, one line per weight, then the checksum."""
    cfg = model.train_config
    lines = [
        "spreader-profiler-model 1",
        f"kind\t{model.kind.value}",
        f"language\t{model.language.value}",
        f"c\t{float(cfg.C).hex()}",
        f"tolerance\t{float(cfg.tolerance).hex()}",
        f"max_iterations\t{cfg.max_iterations}",
        f"loss\t{cfg.loss.value}",
        f"fit_intercept\t{int(cfg.fit_intercept)}",
        f"bias\t{float(model.bias).hex()}",
        f"blocks\t{len(model.feature_spec)}",
    ]
    for position, vocab in enumerate(model.feature_spec):
        vc = vocab.config
        cap = "none" if vc.max_features is None else str(vc.max_features)
        lines.extend(
            [
                f"block\t{position}",
                f"analyzer\t{vc.analyzer.value}",
                f"weighting\t{vc.weighting.value}",
                f"min_n\t{vc.range.min_n}",
                f"max_n\t{vc.range.max_n}",
                f"max_features\t{cap}",
                f"min_df\t{vc.min_df}",
                f"corpus_size\t{vocab.corpus_size}",
                f"terms\t{len(vocab.term_to_index)}",
            ]
        )
        terms = sorted(vocab.term_to_index, key=vocab.term_to_index.get)
        for index, term in enumerate(terms):
            idf = "-" if vocab.idf is None else float(vocab.idf[term]).hex()
            df = vocab.document_frequency[term]
            lines.append(f"{_oracle_escape(term)}\t{index}\t{df}\t{idf}")
    lines.append(f"weights\t{model.weights.shape[0]}")
    for index, weight in enumerate(model.weights):
        lines.append(f"{index}:{float(weight).hex()}")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + f"checksum\tsha256:{digest}\n"


class _OracleLines:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def section(self, count: int) -> list[str]:
        end = self.pos + count
        if count < 0 or end > len(self.lines):
            raise CorruptModelFile("model file truncated")
        lines = self.lines[self.pos : end]
        self.pos = end
        return lines

    def next_field(self, key: str) -> str:
        (line,) = self.section(1)
        head, sep, tail = line.partition("\t")
        if not sep or head != key:
            raise CorruptModelFile(f"expected '{key}' line, got {line!r}")
        return tail


def oracle_read_vocabulary(lines: list[str], config, corpus_size: int):
    """One block's vocabulary lines, checked one at a time: each index is
    its line's position, terms strictly ascend, ``1 <= df <=
    corpus_size``, and a TF-IDF idf is exactly the smooth IDF of its df."""
    term_to_index: dict[str, int] = {}
    document_frequency: dict[str, int] = {}
    idf: dict[str, float] | None = {} if config.weighting is Weighting.TFIDF else None
    term = ""
    for position, line in enumerate(lines):
        fields = line.split("\t")
        if len(fields) != 4:
            raise CorruptModelFile("malformed vocabulary line")
        previous, term = term, _oracle_unescape(fields[0])
        if int(fields[1]) != position:
            raise CorruptModelFile(f"vocabulary line {position} has index {fields[1]}")
        if position and term <= previous:
            raise CorruptModelFile(f"vocabulary term {position} is out of order")
        df = int(fields[2])
        if not 1 <= df <= corpus_size:
            raise CorruptModelFile(f"document frequency {df} outside [1; {corpus_size}]")
        if idf is not None:
            value = float.fromhex(fields[3])
            if value != math.log((1 + corpus_size) / (1 + df)) + 1.0:
                raise CorruptModelFile(f"idf of vocabulary term {position} does not match its df")
            idf[term] = value
        term_to_index[term] = position
        document_frequency[term] = df
    return Vocabulary(
        config=config,
        term_to_index=term_to_index,
        document_frequency=document_frequency,
        corpus_size=corpus_size,
        idf=idf,
    )


def oracle_read_weights(lines: list[str]) -> np.ndarray:
    """The weight lines, numbered 0, 1, ... in order."""
    weights = np.empty(len(lines), dtype=np.float64)
    for position, line in enumerate(lines):
        index_text, sep, value_text = line.partition(":")
        if not sep:
            raise CorruptModelFile("malformed weight line")
        if int(index_text) != position:
            raise CorruptModelFile(f"weight line {position} has index {index_text}")
        weights[position] = float.fromhex(value_text)
    return weights


def oracle_load_model(path):
    """Read a model file one line at a time. Raises ``CorruptModelFile``
    or ``UnsupportedVersion`` where the file is refused."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptModelFile(f"{path}: not UTF-8 text ({exc.reason})") from exc
    newline = text.rfind("\n", 0, len(text) - 1)
    last_line = text[newline + 1 :].strip()
    if not last_line.startswith("checksum\tsha256:"):
        raise CorruptModelFile("missing checksum line")
    body = text[: newline + 1]
    expected = last_line.split("sha256:", 1)[1]
    actual = hashlib.sha256(body.encode("utf-8")).hexdigest()

    lines = body.splitlines()
    reader = _OracleLines(lines)
    (header,) = reader.section(1)
    parts = header.split(" ")
    if len(parts) != 2 or parts[0] != "spreader-profiler-model":
        raise CorruptModelFile(f"not a model file (header {header!r})")
    if parts[1] != "1":
        raise UnsupportedVersion(f"model format version {parts[1]} is not supported")
    if actual != expected:
        raise CorruptModelFile("checksum mismatch: file is corrupt or truncated")

    try:
        kind = ModelKind(reader.next_field("kind"))
        language = Language(reader.next_field("language"))
        c = float.fromhex(reader.next_field("c"))
        tolerance = float.fromhex(reader.next_field("tolerance"))
        max_iterations = int(reader.next_field("max_iterations"))
        loss = LossKind(reader.next_field("loss"))
        fit_intercept_text = reader.next_field("fit_intercept")
        if fit_intercept_text not in ("0", "1"):
            raise CorruptModelFile(f"fit_intercept must be 0 or 1, got {fit_intercept_text!r}")
        fit_intercept = fit_intercept_text == "1"
        bias = float.fromhex(reader.next_field("bias"))
        n_blocks = int(reader.next_field("blocks"))

        blocks = []
        for position in range(n_blocks):
            if int(reader.next_field("block")) != position:
                raise CorruptModelFile("block sections out of order")
            analyzer = Analyzer(reader.next_field("analyzer"))
            weighting = Weighting(reader.next_field("weighting"))
            min_n = int(reader.next_field("min_n"))
            max_n = int(reader.next_field("max_n"))
            cap_text = reader.next_field("max_features")
            max_features = None if cap_text == "none" else int(cap_text)
            min_df = int(reader.next_field("min_df"))
            corpus_size = int(reader.next_field("corpus_size"))
            n_terms = int(reader.next_field("terms"))
            config = VectorizerConfig(
                analyzer=analyzer,
                range=NgramRange(min_n, max_n),
                max_features=max_features,
                min_df=min_df,
                weighting=weighting,
            )
            blocks.append(oracle_read_vocabulary(reader.section(n_terms), config, corpus_size))

        weights = oracle_read_weights(reader.section(int(reader.next_field("weights"))))
        if reader.pos != len(lines):
            raise CorruptModelFile("lines after the weights section")
        return LinearModel(
            kind=kind,
            weights=weights,
            bias=bias,
            feature_spec=tuple(blocks),
            language=language,
            train_config=TrainConfig(
                C=c,
                tolerance=tolerance,
                max_iterations=max_iterations,
                loss=loss,
                fit_intercept=fit_intercept,
            ),
        )
    except (ValueError, KeyError, IndexError) as exc:
        raise CorruptModelFile(f"cannot parse model file: {exc}") from exc
