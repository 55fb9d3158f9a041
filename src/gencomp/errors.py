"""Exception hierarchy shared across the package.

The CLI maps a few of these onto documented exit codes: ConfigError -> 2,
BudgetError -> 3, InvariantViolationError -> 4.
"""


class GencompError(Exception):
    """Base class for all package-specific errors."""


class UndefinedInputError(GencompError):
    """Input outside the operation's domain (eg. prefix density at n=0)."""


class MalformedGapError(GencompError):
    """Gap exponent incompatible with the block it is claimed for (e > i)."""


class ExcludedIndexError(GencompError):
    """Index outside a coded real's domain (codings start at 1, resp. 2)."""


class CorruptDescriptionError(GencompError):
    """Decoding witnesses disagree: the description lied about its source."""


class InsufficientOracleError(GencompError):
    """An operator axiom references elements beyond the oracle's bound."""


class CapacityError(GencompError):
    """Requested object exceeds the configured materialization bounds."""


class UndefinedRegionError(GencompError):
    """Functional evaluated outside the region defined so far."""


class SelectorCapError(GencompError):
    """Every prefix of the selected path through the stage is already marked."""


class BudgetError(GencompError):
    """A configured work budget was exceeded.  CLI exit code 3."""


class ConfigError(GencompError):
    """Config file failed to parse or validate.  CLI exit code 2."""


class InvariantViolationError(GencompError):
    """A checked invariant failed on real data.  CLI exit code 4."""
