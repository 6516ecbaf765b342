"""Exception types shared across the package."""


class GwcoalError(Exception):
    """Base class for package-specific errors."""


class DomainError(GwcoalError, ValueError):
    """Argument outside its mathematical domain (pgf point not in [0,1], bad order)."""


class HorizonError(GwcoalError, IndexError):
    """Generation or range index outside the environment's horizon."""


class DegenerateEnvironmentError(GwcoalError, ValueError):
    """Operation conditions on survival but the survival probability is zero."""


class NotLinearFractionalError(GwcoalError, TypeError):
    """Linear-fractional closed form requested for a law or range that is not LF."""


class EnvFormatError(GwcoalError, ValueError):
    """Malformed environment description; the message names the offending entry."""


class EnumerationGuardError(GwcoalError, RuntimeError):
    """Exact enumeration would exceed the configured state budget."""


class AttemptCapError(GwcoalError, RuntimeError):
    """Rejection sampling exceeded its attempt cap."""


class ChainStateError(GwcoalError, ValueError):
    """Backward-chain state that the chain cannot hold or its times do not give."""
