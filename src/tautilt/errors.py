"""Exception types shared across the package."""


class TautiltError(Exception):
    """Base class for all package errors."""


class AlgebraFormatError(TautiltError):
    """An algebra document is unparseable or structurally ill-formed."""


class InfiniteDimensionalError(TautiltError):
    """The relations do not cut every cycle: the path basis is infinite."""


class NotDirectedError(TautiltError):
    """The algebra is not representation-directed: the catalog closure cannot list it."""


class PreconditionError(TautiltError):
    """An operation was called outside its stated precondition."""


class InvariantViolation(TautiltError):
    """An internal cross-check failed; results cannot be trusted."""
