"""Exception types shared across the toolkit."""


class XLDetectError(Exception):
    """Base class for all toolkit errors. cell is the index of the failing
    cell in a classifier.train_many batch, None elsewhere."""

    def __init__(self, *args, cell: int | None = None):
        super().__init__(*args)
        self.cell = cell


class FormatError(XLDetectError):
    """A file or record does not match its declared format."""


class LabelingError(XLDetectError):
    """An account cannot be labeled (e.g. no status on record)."""


class TrainingError(XLDetectError):
    """Training failed or diverged."""


class AlignmentError(XLDetectError):
    """Embedding alignment failed (degenerate input, empty induction, ...)."""


class DataError(XLDetectError, ValueError):
    """Input data cannot support the requested stage (e.g. an empty
    vocabulary, too few documents to split, a single class)."""


class DependencyError(XLDetectError):
    """A pipeline stage was invoked before its input artifacts exist."""


class ConfigError(XLDetectError):
    """Configuration validation failed; carries the full violation list."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
