"""Exception hierarchy shared across the package."""


class AspoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigurationError(AspoError):
    """A configuration does not match its parameter space."""


class InvalidPointError(AspoError):
    """An encoded point has the wrong dimension or leaves the unit box."""


class ConstraintSyntaxError(AspoError):
    """A constraint file could not be parsed."""


class UnknownParameterError(AspoError):
    """A constraint references a parameter the space does not declare."""


class DomainError(AspoError):
    """A constraint function was evaluated outside its numeric domain."""


class NumericalError(AspoError):
    """A linear-algebra step failed beyond recovery (e.g. Cholesky breakdown)."""


class EmptyDatabaseError(AspoError):
    """A checkpoint query needs at least one stored record."""


class InsufficientRecordsError(AspoError):
    """Distance-weight learning needs more stored records."""


class InfeasibleSpaceError(AspoError):
    """No feasible configuration was found within the sampling budget."""


class NoFeasibleCandidateError(InfeasibleSpaceError):
    """Acquisition maximization produced no exact-feasible candidate."""


class UndefinedMetricError(AspoError):
    """A derived metric was requested for an invalid evaluation result."""


class ProtocolError(AspoError):
    """An external evaluator produced a malformed response."""


class ToolError(AspoError):
    """An external evaluator process exited abnormally."""


class AssetError(AspoError):
    """A bundled data file is missing, corrupt, or inconsistent."""
