"""Shared exception types."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation.

    Raised instead of returning sentinels (inf/nan) so callers must handle
    singular points explicitly.
    """


class SpecError(ValueError):
    """A sweep/verify specification is malformed (exit code 2)."""
