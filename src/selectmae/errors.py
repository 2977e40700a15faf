"""Exception types shared across the package.

CLI exit-code mapping: ConfigError -> 2, I/O (OSError) -> 3,
FormatError -> 4, and any other SelectMAEError (NumericError,
ContractError) -> 1.
"""


class SelectMAEError(Exception):
    """Base class for all package errors."""


class ConfigError(SelectMAEError):
    """Invalid configuration value or inconsistent config/checkpoint pair."""


class NumericError(SelectMAEError):
    """Non-finite values where finite ones are required."""


class ContractError(SelectMAEError):
    """An internal API contract was violated: a tensor of the wrong shape,
    a label outside the classes, a non-scalar loss. The message names
    the offending shapes or values."""


class FormatError(SelectMAEError):
    """Corrupt or mismatched on-disk artifact (clip or checkpoint file)."""
