"""Exception types shared across the package.

Every error raised by mdsrepair derives from MdsRepairError; most also
derive from the closest stdlib exception so generic handlers keep working.
"""


class MdsRepairError(Exception):
    """Base class for all mdsrepair errors."""


class BadPolynomial(MdsRepairError, ValueError):
    """Reduction polynomial is not a primitive degree-m polynomial."""


class ZeroInverse(MdsRepairError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class NonSquare(MdsRepairError, ValueError):
    """Operation requires a square matrix."""


class Singular(MdsRepairError, ArithmeticError):
    """Matrix has no inverse / system has no unique solution."""


class DimensionMismatch(MdsRepairError, ValueError):
    """Operand shapes do not conform."""


class BadShape(MdsRepairError, ValueError):
    """Code parameters violate a structural precondition (e.g. 2k > n)."""


class UnsupportedShape(BadShape):
    """Shape is valid for storage but not repairable (n < k + 2)."""


class FieldTooSmall(MdsRepairError, ValueError):
    """Field order is insufficient for the requested code shape."""


class NotBytes(MdsRepairError, TypeError):
    """Data to ingest is not a bytes-like object (bytes, bytearray, memoryview, array)."""


class NotASymbol(MdsRepairError, ValueError):
    """A value that must be a field symbol is not an int in 0..|F|-1."""


class BadHelpers(MdsRepairError, ValueError):
    """Helper set is malformed (wrong size, duplicates, includes failed)."""


class TooFewNodes(DimensionMismatch):
    """Fewer than k nodes supplied to decode from."""


class RetriesExhausted(MdsRepairError, RuntimeError):
    """Every random draw was rejected; configuration is likely broken."""


class InvariantViolation(MdsRepairError):
    """A maintained code invariant failed an exhaustive check."""


class StateFileError(MdsRepairError, ValueError):
    """Code-state file is malformed or fails re-validation."""


class ReadOnly(MdsRepairError, AttributeError):
    """An attribute of an immutable record was assigned or deleted."""
