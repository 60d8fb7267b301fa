"""Exception hierarchy shared across the package."""


class BellatrexError(Exception):
    """Base class for all package errors."""


class DataError(BellatrexError):
    """Problems with input data (files, schemas, contents)."""


class ParseError(DataError):
    """Malformed CSV or schema file; message carries the offending row."""


class SchemaError(DataError):
    """Declared targets/task do not match the data."""


class EmptyDataError(DataError):
    """All rows (or all columns) were dropped during preprocessing."""


class ForestFileError(DataError, ValueError):
    """A serialized forest that cannot be read or is not a forest."""


class UndefinedMetricError(BellatrexError):
    """Metric has no defined value for the given inputs (e.g. single-class AUROC)."""
