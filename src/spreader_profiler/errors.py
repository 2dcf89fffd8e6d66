"""Exception hierarchy shared across the pipeline.

Three families map onto the CLI exit codes: ``UsageError`` (exit 1)
for flags that parse but describe an invalid configuration,
``DataError`` (exit 2) for anything wrong with corpora, truth files, or
feature inputs, and ``ModelError`` (exit 3) for training and
persistence failures.
"""


class SpreaderError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(SpreaderError):
    """A command-line flag value that the configuration rejects."""


class DataError(SpreaderError):
    """Corpus, truth-file, or feature-input problem."""


class ModelError(SpreaderError):
    """Training, prediction, or model-file problem."""


# corpus ---------------------------------------------------------------

class MalformedXml(DataError):
    pass


class EmptyAuthor(DataError):
    pass


class InvalidAuthorId(DataError):
    pass


class MalformedTruthLine(DataError):
    pass


class DuplicateAuthorId(DataError):
    pass


class MissingAuthorFile(DataError):
    pass


class UnlabeledAuthor(DataError):
    pass


class UnlabeledCorpus(DataError):
    pass


class DegenerateSplit(DataError):
    pass


# vectorize ------------------------------------------------------------

class EmptyVocabulary(DataError):
    pass


# evaluation -----------------------------------------------------------

class LengthMismatch(DataError):
    pass


class EmptyMatrix(DataError):
    pass


class EmptyGrid(DataError):
    pass


# models ---------------------------------------------------------------

class SingleClassInput(ModelError):
    pass


class DimensionMismatch(ModelError):
    pass


class WrongModelKind(ModelError):
    pass


class UnsupportedVersion(ModelError):
    pass


class CorruptModelFile(ModelError):
    pass


# warnings -------------------------------------------------------------

class NonStandardTweetCount(UserWarning):
    """Author file does not carry the conventional 100 tweets."""


class ConvergenceWarning(UserWarning):
    """Optimizer stopped on the iteration cap, not on the tolerance."""
