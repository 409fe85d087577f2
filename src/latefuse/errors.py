"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2, data
problems exit 3, provider transport problems exit 4.
"""


class LateFuseError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(LateFuseError, ValueError):
    """A parameter is outside its documented domain (e.g. tau <= 0)."""


class InvalidInputError(LateFuseError, ValueError):
    """An input value violates a documented invariant (e.g. non-finite logits)."""


class ConfigurationError(LateFuseError):
    """Components are wired together inconsistently (e.g. vocabulary mismatch)."""


class ProviderIOError(LateFuseError):
    """An external provider timed out or violated the wire protocol."""


class CorpusParseError(LateFuseError):
    """A corpus file line could not be parsed; carries the line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class CorpusSchemaError(LateFuseError):
    """An input field is missing, or of the wrong type or range; names the field."""

    def __init__(self, field, message=None):
        super().__init__(message or f"record is missing required field {field!r}")
        self.field = field
