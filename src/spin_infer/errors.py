"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
anything else -> 4.
"""


class SpinInferError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SpinInferError):
    """Invalid configuration (bad value, unknown or missing key)."""


class ConfigNotFoundError(ConfigError):
    """A referenced config file does not exist."""


class ConfigSyntaxError(ConfigError):
    """A config file could not be parsed."""


class DataError(SpinInferError):
    """Malformed or inconsistent input data (corpus, vocab, checkpoint, trace)."""


class ContextOverflowError(SpinInferError):
    """The sequence would exceed the model's max_seq_len."""
