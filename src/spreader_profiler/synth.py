"""Deterministic synthetic corpora in the on-disk author layout.

Builds a labeled corpus whose two classes draw from partly disjoint
word inventories, so a character n-gram model has a real (but not
trivial) signal to find. Useful for demos, CLI smoke tests, and the
desk-scale end-to-end experiment.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .corpus import AuthorDocument, Label, Language, render_author_xml

_SHARED_EN = (
    "today people city news video photo game music team family friend house water "
    "coffee morning night street phone story world market money time year week work "
    "play love life travel train garden window puzzle dinner ticket winter summer "
    "river mountain letter paper garden bottle animal flower market corner village"
).split()

_TRUE_EN = (
    "research climate report science study data health council budget election "
    "policy economy school transit weather museum festival library harvest bridge"
).split()

_FAKE_EN = (
    "miracle exposed secret shocking banned cure hoax celebrity scandal conspiracy "
    "outrage viral prize winner lottery pyramid detox giveaway shocker truthers"
).split()

_SHARED_ES = (
    "hoy gente ciudad noticia video foto juego música equipo familia amigo casa agua "
    "café mañana noche calle teléfono historia mundo mercado dinero tiempo año semana "
    "trabajo jugar amor vida viaje tren jardín ventana cena boleto invierno verano "
    "río montaña carta papel botella animal flor esquina pueblo camino puente plaza"
).split()

_TRUE_ES = (
    "investigación clima informe ciencia estudio datos salud consejo presupuesto "
    "elección política economía escuela tránsito museo festival biblioteca cosecha"
).split()

_FAKE_ES = (
    "milagro expuesto secreto impactante prohibido cura engaño celebridad escándalo "
    "conspiración indignación viral premio ganador lotería pirámide sorteo truco"
).split()

_EMOJIS = ["😀", "😂", "🙌", "🔥", "☀", "❤"]

_WORD_BANKS = {
    Language.EN: (_SHARED_EN, _TRUE_EN, _FAKE_EN),
    Language.ES: (_SHARED_ES, _TRUE_ES, _FAKE_ES),
}


def _make_tweet(rng: random.Random, shared: list[str], own: list[str]) -> str:
    words = []
    if rng.random() < 0.18:
        words.extend(["RT", "#USER#:"])
    for _ in range(rng.randint(5, 9)):
        roll = rng.random()
        if roll < 0.30:
            words.append(rng.choice(own))
        elif roll < 0.34:
            words.append("#HASHTAG#")
        elif roll < 0.37:
            words.append(str(rng.randint(2, 9999)))
        elif roll < 0.40:
            words.append(rng.choice(_EMOJIS))
        else:
            words.append(rng.choice(shared))
    if rng.random() < 0.45:
        words.append("#URL#")
    return " ".join(words)


def synth_author(
    rng: random.Random,
    label: Label,
    language: Language,
    tweets_per_author: int,
) -> AuthorDocument:
    shared, true_words, fake_words = _WORD_BANKS[language]
    own = fake_words if label == Label.FAKE_NEWS_SPREADER else true_words
    author_id = "".join(rng.choice("0123456789abcdef") for _ in range(12))
    tweets = tuple(_make_tweet(rng, shared, own) for _ in range(tweets_per_author))
    return AuthorDocument(author_id=author_id, tweets=tweets, label=label)


def generate_corpus_dir(
    out_dir: str | Path,
    authors_per_class: int = 60,
    tweets_per_author: int = 100,
    seed: int = 7,
    language: Language | str = Language.EN,
    labeled: bool = True,
) -> Path:
    """Write a synthetic corpus directory and return its path.

    The same arguments always produce byte-identical files. A count
    below 1 is refused with ``ValueError`` before anything is written.
    """
    counts = {"authors_per_class": authors_per_class, "tweets_per_author": tweets_per_author}
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    if isinstance(language, str):
        language = Language.parse(language)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    truth_lines = []
    seen_ids: set[str] = set()
    for label in (Label.TRUE_NEWS_SPREADER, Label.FAKE_NEWS_SPREADER):
        for _ in range(authors_per_class):
            author = synth_author(rng, label, language, tweets_per_author)
            while author.author_id in seen_ids:  # pragma: no cover - 48-bit collision
                author = synth_author(rng, label, language, tweets_per_author)
            seen_ids.add(author.author_id)
            (out_dir / f"{author.author_id}.xml").write_bytes(
                render_author_xml(author, language)
            )
            truth_lines.append(f"{author.author_id}:::{int(label)}")
    if labeled:
        truth_lines.sort()
        (out_dir / "truth.txt").write_text("\n".join(truth_lines) + "\n", encoding="utf-8")
    return out_dir


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m spreader_profiler.synth",
        description="Generate a deterministic synthetic author-profiling corpus.",
    )
    parser.add_argument("out_dir", help="directory to write XML files and truth.txt into")
    parser.add_argument("--authors-per-class", type=int, default=60)
    parser.add_argument("--tweets-per-author", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--lang", default="en", choices=["en", "es"])
    parser.add_argument(
        "--unlabeled", action="store_true", help="omit truth.txt (prediction-style corpus)"
    )
    args = parser.parse_args(argv)
    try:
        path = generate_corpus_dir(
            args.out_dir,
            authors_per_class=args.authors_per_class,
            tweets_per_author=args.tweets_per_author,
            seed=args.seed,
            language=args.lang,
            labeled=not args.unlabeled,
        )
    except ValueError as exc:  # a count below 1
        parser.error(str(exc))
    except OSError as exc:  # an out_dir that cannot be made or written
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    total = 2 * args.authors_per_class
    print(f"wrote {total} authors to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
