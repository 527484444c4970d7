"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands live in coordinate spaces of different lengths."""


class NonDominantError(ValueError):
    """A highest weight was required to be dominant and is not."""


class DecompositionError(ValueError):
    """A character is not a nonnegative combination of irreducibles."""


class SymmetryError(ValueError):
    """A character fails the required Weyl-group invariance."""


class AdmissibilityError(ValueError):
    """A weight fails one of the admissibility clauses for a pair."""


class InvalidPairError(ValueError):
    """A symmetric-pair structure failed validation."""


class UnsupportedRootSystemError(ValueError):
    """An unsupported family or rank."""


class GroupOrderLimitError(RuntimeError):
    """Weyl-group closure exceeded the fixed safety limit ``ORBIT_LIMIT``."""


class ConsistencyError(RuntimeError):
    """An internal identity that should be automatic failed; indicates a
    bad pair or a bug, never a user error."""
