"""Exception types shared across the toolkit.

Every error raised on purpose derives from TrajkitError so callers (and the
command line frontend) can distinguish domain failures from genuine bugs.
"""


class TrajkitError(Exception):
    """Base class for all toolkit errors."""


class FormatError(TrajkitError):
    """A file or record does not follow the expected layout."""


class TruncatedError(FormatError):
    """A binary payload ended before the declared amount of data."""


class DuplicateCategoryError(TrajkitError):
    """A vocabulary declares the same category id twice."""


class UnknownCategoryError(TrajkitError):
    """A detection references a category id absent from the vocabulary."""


class DimMismatchError(TrajkitError):
    """Vector or tensor dimensions disagree with the declared width."""


class NonFiniteError(TrajkitError):
    """A tensor or embedding contains NaN or infinite entries."""


class ZeroNormError(TrajkitError):
    """A vector that has to be normalized (cosine, bank row, loaded embedding) is zero."""


class MissingWeightsError(TrajkitError):
    """An operation needs fusion weights that were not supplied."""


class DivergedError(TrajkitError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")
