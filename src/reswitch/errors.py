"""Exception hierarchy shared across the package."""


class ReswitchError(Exception):
    """Base class for all analysis errors raised by this package."""


class DomainError(ReswitchError):
    """An interest rate at or below -100% (price factor 1+i <= 0)."""


class ZeroPolynomialError(ReswitchError):
    """Root isolation requested for the identically-zero polynomial."""


class HorizonMismatchError(ReswitchError):
    """A factor-price point and a technique disagree on the time horizon."""


class IdenticalTechniquesError(ReswitchError):
    """Two techniques have identical cost everywhere; no switch points exist."""


class NotAggregableError(ReswitchError):
    """The requested input group admits no consistent price aggregate."""


class NonScalarComplementError(ReswitchError):
    """The group complement has no single positive lag to normalize by."""


class NoRootError(ReswitchError):
    """No interest rate in the domain attains the requested value."""


class ModelFormatError(ReswitchError):
    """A model file failed schema or rational-string validation."""
