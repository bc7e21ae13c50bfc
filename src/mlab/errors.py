"""Exception types shared across the library."""

__all__ = [
    "MlabError",
    "GridMismatchError",
    "FrequencyOverflowError",
    "BudgetExceededError",
    "UncoveredSpectrumError",
]


class MlabError(Exception):
    """Base class for library errors."""


class GridMismatchError(MlabError):
    """Operands live on incompatible grids."""


class FrequencyOverflowError(MlabError):
    """A frequency remap would leave the representable band."""


class BudgetExceededError(MlabError):
    """A frequency-tuple enumeration exceeds the configured budget."""


class UncoveredSpectrumError(MlabError):
    """An input has a mean mode, where every separable multiplier is 0,
    under a symbol that is not null on zero slots."""
