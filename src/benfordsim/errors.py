"""Exception types shared across the package."""


class BenfordSimError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BenfordSimError, ValueError):
    """An input value lies outside the mathematical domain of an operation."""


class EmptyDataError(BenfordSimError, ValueError):
    """An operation that needs at least one data point received none."""


class ConfigError(BenfordSimError, ValueError):
    """An experiment configuration or split ratio is invalid."""


class MissingSeedError(ConfigError):
    """A config text has no seed key and no seed was passed in its place."""


class UnderflowError(BenfordSimError, ArithmeticError):
    """A fragmentation produced a child that rounded to exactly zero."""
