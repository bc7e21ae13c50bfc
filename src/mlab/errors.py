"""Exception types shared across the library, and the enumeration budget
that ``BudgetExceededError`` enforces."""

import os

__all__ = [
    "DEFAULT_BUDGET",
    "enumeration_budget",
    "MlabError",
    "GridMismatchError",
    "FrequencyOverflowError",
    "BudgetExceededError",
    "UncoveredSpectrumError",
    "SchemaValidationError",
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


class SchemaValidationError(MlabError, ValueError):
    """A payload does not match its schema: ``message`` says what is wrong,
    ``json_path`` (``$.p[1]``) says where."""

    def __init__(self, message: str, json_path: str) -> None:
        super().__init__(f"{json_path}: {message}")
        self.message = message
        self.json_path = json_path


DEFAULT_BUDGET = 20_000_000


def enumeration_budget() -> int:
    """Tuple-enumeration cap; override with the ``MLAB_BUDGET`` env var.

    A value that is not a positive integer raises ``ValueError``.
    """
    raw = os.environ.get("MLAB_BUDGET", "")
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"MLAB_BUDGET must be a positive integer, got {raw!r}")
    return budget
