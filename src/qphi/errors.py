"""Exception hierarchy shared across the library.

The CLI maps these onto process exit codes: validation problems exit with 2,
numerical breakdowns with 3, and budget / size caps with 4 (see cli.py).
"""


class QphiError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QphiError):
    """Malformed input: shapes, state invariants, parameters, configs."""


class DimensionMismatch(ValidationError):
    pass


class NotHermitian(ValidationError):
    pass


class NotPSD(ValidationError):
    pass


class TraceNotOne(ValidationError):
    pass


class LayoutMismatch(ValidationError):
    pass


class EmptyKeepSet(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class InvalidCut(ValidationError):
    pass


class InvalidPartition(ValidationError):
    pass


class BadParameter(ValidationError):
    pass


class SingleSubsystem(ValidationError):
    pass


class TooFewStates(ValidationError):
    pass


class DisjointnessViolation(ValidationError):
    pass


class BadSize(ValidationError):
    pass


class BadBudget(ValidationError):
    pass


class ConfigInvalid(ValidationError):
    pass


class NumericalBreakdown(QphiError):
    """An eigenvalue, trace, or support fell outside recoverable tolerance."""


class SupportBreakdown(NumericalBreakdown):
    pass


class BudgetExceeded(QphiError):
    """A configured computational cap was hit."""


class SearchBudgetExceeded(BudgetExceeded):
    pass


class GridTooLarge(BudgetExceeded):
    pass


class StateTooLarge(BudgetExceeded):
    pass
