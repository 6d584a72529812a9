"""Exception types shared across modules; the CLI maps them to exit codes."""


class AgrecError(Exception):
    """Base class for all package errors."""


class ConfigError(AgrecError):
    """Invalid configuration value or flag combination (CLI exit 2)."""


class DataError(AgrecError):
    """Malformed or inconsistent input data."""


class GraphError(AgrecError):
    """Graph construction or normalization failure."""


class IntegrityError(AgrecError):
    """Artifact/vocabulary hash mismatch (CLI exit 3)."""


class UnknownIdError(AgrecError):
    """Lookup of an external ID that is not in the vocabulary (CLI exit 4)."""


class NumericError(AgrecError):
    """Non-finite value produced during propagation or training."""


class NoKeywordsError(AgrecError):
    """A backend response yielded no keywords after normalization."""


class BackendError(AgrecError):
    """Vision-language backend transport failure after retries."""
