"""Exception types shared across the package."""


class CgdmsError(Exception):
    """Base class for all library errors."""


class InvalidWordError(CgdmsError):
    """A word refers to an unknown edge index or has invalid shape."""


class DomainMismatchError(CgdmsError):
    """Consecutive edges of a word do not chain (terminal != initial)."""


class NotIrreducibleError(CgdmsError):
    """No connector word of the allowed length joins some edge pair."""

    def __init__(self, pair, max_len):
        self.pair = pair
        self.max_len = max_len
        super().__init__(
            f"no connector of length <= {max_len} joins edge pair {pair}"
        )


class BracketBudgetError(CgdmsError):
    """A zero-finding run exhausted its budget before reaching tolerance.

    Carries the best enclosure found and, as ``required_n``, an estimate
    of the window that the requested tolerance would need.
    """

    def __init__(self, message, best=None, required_n=None):
        self.best = best
        self.required_n = required_n
        super().__init__(message)


class ConfigError(CgdmsError):
    """A run configuration failed validation; names the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
