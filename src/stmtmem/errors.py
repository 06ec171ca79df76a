"""Exception taxonomy shared by every subsystem.

The CLI maps these onto process exit codes: usage/config problems exit 1,
verification failures exit 3, and every other error exits 2: bad or
missing data artifacts, and the non-finite, shape and vocabulary errors a
bad artifact (such as a checkpoint holding NaN) raises inside the model.
"""


class StmtMemError(Exception):
    """Base class for all package errors."""


class DimensionError(StmtMemError):
    """Tensor shapes are incompatible for the requested operation."""


class VocabularyError(StmtMemError):
    """A token id falls outside the vocabulary."""


class NumericInputError(StmtMemError):
    """An operation received non-finite input."""


class UsageError(StmtMemError):
    """An API was called in a way its contract forbids."""


class ConfigError(UsageError):
    """A configuration file or value is invalid."""


class DataError(StmtMemError):
    """A data artifact is missing, unreadable, or malformed."""


class AlignmentError(DataError):
    """Two per-sample collections do not share the same sample ids."""


class VerificationError(StmtMemError):
    """A gradient or consistency check failed."""
