"""Exception hierarchy shared across the package.

The CLI maps each onto a documented exit code: ConfigError -> 2,
BudgetError -> 3, InvariantViolationError -> 4, and every other
GencompError -> 1.
"""


class GencompError(Exception):
    """Base class for all package-specific errors."""


class UndefinedInputError(GencompError):
    """Input outside the operation's domain (eg. prefix density at n=0)."""


class CorruptDescriptionError(GencompError):
    """Decoding witnesses disagree: the description lied about its source."""


class CapacityError(GencompError):
    """Requested object exceeds the configured materialization bounds."""


class BudgetError(GencompError):
    """A configured work budget was exceeded.  CLI exit code 3."""


class ConfigError(GencompError):
    """Config file failed to parse or validate.  CLI exit code 2."""


class InvariantViolationError(GencompError):
    """A checked invariant failed on real data.  CLI exit code 4."""
