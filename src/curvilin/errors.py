"""Exception types shared across the package."""


class CurvilinError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CurvilinError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class RangeError(CurvilinError, ValueError):
    """A parameter lies outside its admissible range."""


class DegenerateInputError(CurvilinError, ValueError):
    """The input has no usable content (zero volume, empty support)."""


class GridAlignmentError(CurvilinError, ValueError):
    """Coordinates cannot be represented on a common uniform grid."""


class ResolutionError(CurvilinError, ValueError):
    """A supplied output grid does not cover the required coordinate range."""


class CoverageError(CurvilinError, ValueError):
    """A set extends beyond the region where a density is defined."""


class BudgetError(CurvilinError, ValueError):
    """A computation was asked to enumerate or encode more than its budget."""


class RegimeError(CurvilinError, ValueError):
    """Parameters select a regime the operation does not support."""
