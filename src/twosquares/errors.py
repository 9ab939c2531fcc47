"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class FactorizationError(RuntimeError):
    """Factorization effort budget exhausted before completion."""


class ResourceLimitError(RuntimeError):
    """A solver would exceed its configured depth or state budget."""
