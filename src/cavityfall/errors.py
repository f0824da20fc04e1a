"""Exception types shared across the library.

The CLI maps these onto exit codes: ValidationError -> 2, DomainError -> 3,
OSError -> 4.  An error's key is the field it is about (Q), or None; the
scenario reader adds the section path (experiment.Q), the CLI an option (--q).
"""


class CavityFallError(ValueError):
    """Base class for all library errors; str() renders "key: message"."""

    def __init__(self, message: str, key: str | None = None) -> None:
        super().__init__(message)
        self.key = key

    def __str__(self) -> str:
        return super().__str__() if self.key is None else f"{self.key}: {super().__str__()}"


class ValidationError(CavityFallError):
    """Invalid parameter, configuration, or scenario input."""


class DomainError(CavityFallError):
    """Input outside a model's validity domain, or a numerical failure
    (relativistic envelope velocity, unresolved grid, domain escape, blowup,
    bracket violation)."""
