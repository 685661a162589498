"""Exception types shared across the simulation suite."""


class TycoonError(Exception):
    """Base class for all errors raised by this package."""


class InvalidAccountError(TycoonError):
    """Account state makes the requested operation meaningless."""


class InvalidElapsedError(TycoonError):
    """Elapsed CPU time outside (0, timeslice_length]."""


class InvalidAmountError(TycoonError):
    """Negative or otherwise malformed credit amount."""


class CapacityRejection(TycoonError):
    """Accepting the reservation would exceed the reserved-fraction cap."""


class InsufficientHistoryError(TycoonError):
    """No clearing prices observed yet, so no quote can be computed."""


class InsufficientBalanceError(TycoonError):
    """The paying account cannot cover the requested amount."""


class UnknownProcessError(TycoonError):
    """Process id not present in the scheduler's process set."""


class UnknownAccountError(TycoonError):
    """Account id not present in the ledger."""


class UndefinedShareError(TycoonError):
    """An intended share of zero makes relative error undefined."""


class ExpiredTaskError(TycoonError):
    """The task's deadline has passed; it can earn nothing."""


class InvalidSpecError(TycoonError):
    """An agent or task was described with zero or negative resources, hosts, or deadline."""


class ConfigError(TycoonError):
    """Malformed or contradictory experiment configuration."""


class LedgerAuditError(TycoonError):
    """A cluster run failed its ledger audit, per slice or at its end."""
