"""Exception types raised by validation and numeric routines."""


class CohlabError(ValueError):
    """Base class for all cohlab errors."""


class NotFinite(CohlabError):
    """Input or result has a NaN or infinite entry."""


class NotHermitian(CohlabError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotUnitTrace(CohlabError):
    """Trace deviates from one beyond tolerance."""


class NotPSD(CohlabError):
    """Eigenvalue below the negative tolerance."""


class ConvergenceFailure(CohlabError):
    """Iterative eigensolver hit its iteration cap."""


class DimensionMismatch(CohlabError):
    """Operands have incompatible shapes or subsystem dimensions."""


class IncompleteChannel(CohlabError):
    """Kraus operators do not sum to the identity."""


class NotPure(CohlabError):
    """State purity is below the pure-state threshold."""


class NegativeCount(CohlabError):
    """A count or a seed is below its least value."""


class BadPartition(CohlabError):
    """Partition tree leaves do not partition the subsystem index set."""


class NotIncoherentChannel(CohlabError):
    """Channel has a Kraus operator with multi-entry columns."""


class UnknownFixture(CohlabError):
    """No bundled fixture with the requested name."""


class ParseError(CohlabError):
    """Input file is not valid JSON or lacks the required fields."""
